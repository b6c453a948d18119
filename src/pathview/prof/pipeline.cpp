#include "pathview/prof/pipeline.hpp"

#include <algorithm>
#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>

#include "pathview/obs/obs.hpp"
#include "pathview/prof/correlate.hpp"
#include "pathview/support/error.hpp"
#include "pathview/support/parallel.hpp"

namespace pathview::prof {

namespace {

// ---------------------------------------------------------------------------
// MergeTree: the lightweight intermediate representation flowing through the
// reduction tree. Children are kept as intrusive sibling lists sorted by
// (kind, scope, call_site), so two trees merge with a linear merge-join (no
// hash lookups) and grafting a disjoint subtree is a bulk append of
// trivially-copyable nodes. Samples are never copied or summed inside the
// tree: a union node carries a chain of (part, node) references into the
// still-alive input parts, spliced in O(1) per merge, and folded only at
// finalization in ascending part order (see pipeline.hpp).
// ---------------------------------------------------------------------------

constexpr std::uint32_t kNoParent = 0xffffffffu;
constexpr std::uint32_t kNone = 0xffffffffu;
constexpr std::int64_t kNil = -1;  // empty contribution reference

/// A contribution reference: part index in the high 32 bits, node id within
/// that part in the low 32.
inline std::int64_t pack_ref(std::uint32_t part, std::uint32_t id) {
  return (static_cast<std::int64_t>(part) << 32) | id;
}
inline std::uint32_t ref_part(std::int64_t ref) {
  return static_cast<std::uint32_t>(ref >> 32);
}
inline std::uint32_t ref_id(std::int64_t ref) {
  return static_cast<std::uint32_t>(ref & 0xffffffff);
}

struct MNode {
  CctKind kind = CctKind::kRoot;
  structure::SNodeId scope = structure::kSNull;
  structure::SNodeId call_site = structure::kSNull;
  std::uint32_t parent = kNoParent;
  // Serial creation key: the part index and node id within that part at
  // which the serial left fold would first have inserted this node.
  std::uint32_t first_part = 0;
  std::uint32_t first_id = 0;
  // Contribution chain endpoints ((part, node) refs resolved via
  // MergeContext::links), in ascending part order.
  std::int64_t chead = kNil;
  std::int64_t ctail = kNil;
  // Intrusive sibling list, kept sorted by sibling identity.
  std::uint32_t first_child = kNone;
  std::uint32_t next_sibling = kNone;
};

struct MergeTree {
  std::vector<MNode> nodes;  // [0] is the root
};

/// State shared by every task of one pipeline run: the input parts (kept
/// alive until finalization so contributions can reference their samples in
/// place — borrowed from the caller, or owned when the pipeline correlates
/// them itself) and the per-part contribution chain links. Tasks only touch
/// the slots of parts they own, so no synchronization is needed beyond the
/// scheduler's handoff.
struct MergeContext {
  std::vector<const CanonicalCct*> parts;
  std::vector<CanonicalCct> owned;  // backing storage for Pipeline::run
  // links[part][node] = next (part, node) ref in some union node's chain.
  std::vector<std::vector<std::int64_t>> links;

  std::int64_t& link(std::int64_t ref) {
    return links[ref_part(ref)][ref_id(ref)];
  }
};

/// Sibling identity order, over MNode or CctNode. Any total order works (it
/// only has to be independent of insertion order); final node numbering
/// comes from the serial creation keys, not from this.
template <typename NodeA, typename NodeB>
bool sibling_less(const NodeA& a, const NodeB& b) {
  if (a.kind != b.kind) return a.kind < b.kind;
  if (a.scope != b.scope) return a.scope < b.scope;
  return a.call_site < b.call_site;
}
template <typename NodeA, typename NodeB>
bool sibling_equal(const NodeA& a, const NodeB& b) {
  return a.kind == b.kind && a.scope == b.scope && a.call_site == b.call_site;
}

/// Lower part `part_index` into a MergeTree leaf. Node ids are preserved
/// (CanonicalCct ids are already topological), which is exactly what the
/// serial creation keys need.
MergeTree from_cct(MergeContext& ctx, std::uint32_t part_index) {
  const CanonicalCct& part = *ctx.parts[part_index];
  MergeTree t;
  const std::size_t n = part.size();
  t.nodes.resize(n);
  ctx.links[part_index].assign(n, kNil);
  std::vector<std::uint32_t> scratch;  // reused per-node child sort buffer
  for (std::uint32_t id = 0; id < n; ++id) {
    const CctNode& src = part.node(id);
    MNode& dst = t.nodes[id];
    dst.kind = src.kind;
    dst.scope = src.scope;
    dst.call_site = src.call_site;
    dst.parent = id == kCctRoot ? kNoParent : src.parent;
    dst.first_part = part_index;
    dst.first_id = id;
    if (!part.samples(id).all_zero())
      dst.chead = dst.ctail = pack_ref(part_index, id);
    if (src.children.empty()) continue;
    scratch.assign(src.children.begin(), src.children.end());
    std::sort(scratch.begin(), scratch.end(),
              [&](std::uint32_t x, std::uint32_t y) {
                return sibling_less(part.node(x), part.node(y));
              });
    dst.first_child = scratch.front();
    for (std::size_t i = 0; i + 1 < scratch.size(); ++i)
      t.nodes[scratch[i]].next_sibling = scratch[i + 1];
  }
  return t;
}

/// Deep-copy the subtree of `b` rooted at `b_root` into `a` under parent
/// `a_parent`; returns the new node's id in `a`. Contribution refs are
/// part-addressed, so they carry over untouched.
std::uint32_t graft_subtree(MergeTree& a, const MergeTree& b,
                            std::uint32_t b_root, std::uint32_t a_parent) {
  const auto a_root = static_cast<std::uint32_t>(a.nodes.size());
  // (b node, a node) pairs whose children still need copying.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> stack;
  {
    MNode copy = b.nodes[b_root];
    copy.parent = a_parent;
    copy.first_child = kNone;
    copy.next_sibling = kNone;  // caller links the root into its new list
    a.nodes.push_back(copy);
  }
  stack.emplace_back(b_root, a_root);
  while (!stack.empty()) {
    const auto [bi, ai] = stack.back();
    stack.pop_back();
    std::uint32_t tail = kNone;
    for (std::uint32_t bc = b.nodes[bi].first_child; bc != kNone;
         bc = b.nodes[bc].next_sibling) {
      const auto ac = static_cast<std::uint32_t>(a.nodes.size());
      MNode copy = b.nodes[bc];
      copy.parent = ai;
      copy.first_child = kNone;
      copy.next_sibling = kNone;
      a.nodes.push_back(copy);
      if (tail == kNone)  // preserves sorted child order
        a.nodes[ai].first_child = ac;
      else
        a.nodes[tail].next_sibling = ac;
      tail = ac;
      stack.emplace_back(bc, ac);
    }
  }
  return a_root;
}

/// Merge `b` into `a`: structural union with O(1) contribution splicing.
/// Precondition (maintained by the task planner): every part under `a`
/// precedes every part under `b`, so appending b's chains keeps every chain
/// in ascending part order.
void absorb(MergeContext& ctx, MergeTree& a, MergeTree&& b) {
  // Reserving the graft upper bound up front keeps every MNode reference
  // below valid: pushes during this absorb can never exceed capacity.
  a.nodes.reserve(a.nodes.size() + b.nodes.size());

  // Matched (a node, b node) pairs whose children need merge-joining.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> stack{{0u, 0u}};
  while (!stack.empty()) {
    const auto [ai, bi] = stack.back();
    stack.pop_back();

    {
      // No creation-key update is needed: the planner only ever absorbs a
      // strictly higher part range into a lower one, so a matched a-node's
      // key (its first occurrence) is always the smaller of the two.
      MNode& an = a.nodes[ai];
      const MNode& bn = b.nodes[bi];
      if (bn.chead != kNil) {
        if (an.chead == kNil)
          an.chead = bn.chead;
        else
          ctx.link(an.ctail) = bn.chead;
        an.ctail = bn.ctail;
      }
    }

    // Merge-join the two sorted sibling lists. a's list stays sorted and
    // matched nodes never move, so only graft points write links: new
    // subtrees are spliced in between `prev` and `ax`.
    std::uint32_t ax = a.nodes[ai].first_child;
    std::uint32_t prev = kNone;
    for (std::uint32_t bx = b.nodes[bi].first_child; bx != kNone;
         bx = b.nodes[bx].next_sibling) {
      const MNode& bxn = b.nodes[bx];
      while (ax != kNone && sibling_less(a.nodes[ax], bxn)) {
        prev = ax;
        ax = a.nodes[ax].next_sibling;
      }
      if (ax != kNone && sibling_equal(a.nodes[ax], bxn)) {
        stack.emplace_back(ax, bx);
        prev = ax;
        ax = a.nodes[ax].next_sibling;
      } else {
        const std::uint32_t g = graft_subtree(a, b, bx, ai);
        a.nodes[g].next_sibling = ax;
        if (prev == kNone)
          a.nodes[ai].first_child = g;
        else
          a.nodes[prev].next_sibling = g;
        prev = g;
      }
    }
  }
}

/// Scratch buffers shared by absorb_part and graft_cct_subtree (the outer
/// merge-join's sort buffer stays live across grafts, so grafting needs its
/// own).
struct PartBuffers {
  std::vector<std::uint32_t> scratch;   // absorb_part child sort
  std::vector<std::uint32_t> gscratch;  // graft child sort
  std::vector<std::pair<std::uint32_t, std::uint32_t>> gstack;
};

/// Deep-copy the subtree of `part` rooted at `p_root` into `a` under parent
/// `a_parent` (the fused leaf path: parts are grafted straight from their
/// CanonicalCct form, with children sorted on the way in).
std::uint32_t graft_cct_subtree(MergeTree& a, const CanonicalCct& part,
                                std::uint32_t part_index, std::uint32_t p_root,
                                std::uint32_t a_parent, PartBuffers& buf) {
  const auto make_node = [&](std::uint32_t pid, std::uint32_t parent) {
    const CctNode& src = part.node(pid);
    const auto id = static_cast<std::uint32_t>(a.nodes.size());
    MNode n;
    n.kind = src.kind;
    n.scope = src.scope;
    n.call_site = src.call_site;
    n.parent = parent;
    n.first_part = part_index;
    n.first_id = pid;
    if (!part.samples(pid).all_zero())
      n.chead = n.ctail = pack_ref(part_index, pid);
    a.nodes.push_back(n);
    return id;
  };
  const std::uint32_t a_root = make_node(p_root, a_parent);
  buf.gstack.clear();
  buf.gstack.emplace_back(p_root, a_root);
  while (!buf.gstack.empty()) {
    const auto [pi, ai] = buf.gstack.back();
    buf.gstack.pop_back();
    const std::vector<CctNodeId>& pch = part.node(pi).children;
    if (pch.empty()) continue;
    buf.gscratch.assign(pch.begin(), pch.end());
    std::sort(buf.gscratch.begin(), buf.gscratch.end(),
              [&](std::uint32_t x, std::uint32_t y) {
                return sibling_less(part.node(x), part.node(y));
              });
    std::uint32_t tail = kNone;
    for (const std::uint32_t pc : buf.gscratch) {
      const std::uint32_t ac = make_node(pc, ai);
      if (tail == kNone)
        a.nodes[ai].first_child = ac;
      else
        a.nodes[tail].next_sibling = ac;
      tail = ac;
      buf.gstack.emplace_back(pc, ac);
    }
  }
  return a_root;
}

/// Merge part `part_index` directly into `a` (the fused leaf path: one pass
/// over the part, no intermediate MergeTree). Precondition as for absorb():
/// every part already in `a` precedes `part_index`.
void absorb_part(MergeContext& ctx, MergeTree& a, std::uint32_t part_index,
                 PartBuffers& buf) {
  const CanonicalCct& part = *ctx.parts[part_index];
  ctx.links[part_index].assign(part.size(), kNil);
  a.nodes.reserve(a.nodes.size() + part.size());

  // Matched (a node, part node) pairs whose children need merge-joining.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> stack{{0u, 0u}};
  while (!stack.empty()) {
    const auto [ai, pi] = stack.back();
    stack.pop_back();

    if (!part.samples(pi).all_zero()) {
      const std::int64_t ref = pack_ref(part_index, pi);
      MNode& an = a.nodes[ai];
      if (an.chead == kNil)
        an.chead = ref;
      else
        ctx.link(an.ctail) = ref;
      an.ctail = ref;
    }

    const std::vector<CctNodeId>& pch = part.node(pi).children;
    if (pch.empty()) continue;
    buf.scratch.assign(pch.begin(), pch.end());
    std::sort(buf.scratch.begin(), buf.scratch.end(),
              [&](std::uint32_t x, std::uint32_t y) {
                return sibling_less(part.node(x), part.node(y));
              });

    // Same splice-only join as absorb(): writes happen at graft points only.
    std::uint32_t ax = a.nodes[ai].first_child;
    std::uint32_t prev = kNone;
    for (std::size_t y = 0; y < buf.scratch.size(); ++y) {
      const CctNode& pn = part.node(buf.scratch[y]);
      while (ax != kNone && sibling_less(a.nodes[ax], pn)) {
        prev = ax;
        ax = a.nodes[ax].next_sibling;
      }
      if (ax != kNone && sibling_equal(a.nodes[ax], pn)) {
        stack.emplace_back(ax, buf.scratch[y]);
        prev = ax;
        ax = a.nodes[ax].next_sibling;
      } else {
        const std::uint32_t g = graft_cct_subtree(
            a, part, part_index, buf.scratch[y], ai, buf);
        a.nodes[g].next_sibling = ax;
        if (prev == kNone)
          a.nodes[ai].first_child = g;
        else
          a.nodes[prev].next_sibling = g;
        prev = g;
      }
    }
  }
}

/// Materialize the final canonical CCT. Nodes are appended in serial
/// creation-key order (so ids match the serial fold exactly) and each node's
/// contributions are folded in ascending part order, reproducing the serial
/// fold bit for bit. The union tree is already deduplicated, so nodes are
/// bulk-appended without sibling lookups.
CanonicalCct finalize(const MergeTree& t, MergeContext& ctx,
                      const structure::StructureTree* tree) {
  PV_SPAN("prof.pipeline.finalize");
  const std::size_t n = t.nodes.size();

  // Order non-root nodes by (first_part, first_id) with a two-pass counting
  // sort (LSD radix: stable by first_id, then by first_part).
  std::size_t max_id = 0;
  for (const CanonicalCct* p : ctx.parts)
    max_id = std::max<std::size_t>(max_id, p->size());
  std::vector<std::uint32_t> by_id;
  by_id.reserve(n > 0 ? n - 1 : 0);
  {
    PV_SPAN("prof.pipeline.finalize.sort");
    std::vector<std::uint32_t> counts(max_id + 1, 0);
    for (std::uint32_t i = 1; i < n; ++i) ++counts[t.nodes[i].first_id];
    std::uint32_t sum = 0;
    for (std::uint32_t& c : counts) {
      const std::uint32_t v = c;
      c = sum;
      sum += v;
    }
    by_id.resize(n > 0 ? n - 1 : 0);
    for (std::uint32_t i = 1; i < n; ++i)
      by_id[counts[t.nodes[i].first_id]++] = i;
  }
  std::vector<std::uint32_t> order(by_id.size());
  {
    PV_SPAN("prof.pipeline.finalize.sort");
    std::vector<std::uint32_t> counts(ctx.parts.size() + 1, 0);
    for (const std::uint32_t i : by_id) ++counts[t.nodes[i].first_part];
    std::uint32_t sum = 0;
    for (std::uint32_t& c : counts) {
      const std::uint32_t v = c;
      c = sum;
      sum += v;
    }
    for (const std::uint32_t i : by_id)
      order[counts[t.nodes[i].first_part]++] = i;
  }

  // Creation keys are topological (a child's key is never smaller than its
  // parent's: the serial fold inserts parents first), so parents always
  // materialize before their children.
  CanonicalCct out(tree);
  out.reserve(n);
  std::vector<CctNodeId> map(n, kCctNull);
  map[0] = kCctRoot;
  {
    PV_SPAN("prof.pipeline.finalize.append");
    // Exact per-node child counts let every child list allocate once.
    std::vector<std::uint32_t> kids(n, 0);
    for (std::uint32_t i = 1; i < n; ++i) ++kids[t.nodes[i].parent];
    out.reserve_children(kCctRoot, kids[0]);
    for (const std::uint32_t i : order) {
      const MNode& node = t.nodes[i];
      map[i] = out.append_child(map[node.parent], node.kind, node.scope,
                                node.call_site);
      if (kids[i] != 0) out.reserve_children(map[i], kids[i]);
    }
  }

  // Contribution chains are in ascending part order by construction: leaves
  // absorb their batch in part order, internal tasks absorb consecutive
  // child ranges left to right, and splicing appends the higher range.
  // Folding each chain front to back therefore reproduces the serial fold's
  // exact floating-point association.
  {
    PV_SPAN("prof.pipeline.finalize.fold");
    for (std::uint32_t i = 0; i < n; ++i)
      for (std::int64_t c = t.nodes[i].chead; c != kNil; c = ctx.link(c))
        out.add_samples(map[i], ctx.parts[ref_part(c)]->samples(ref_id(c)));
  }
  // One degraded contribution taints the union, exactly as the serial
  // fold's merge() would have propagated it.
  for (const CanonicalCct* p : ctx.parts)
    if (p->degraded()) out.set_degraded(true);
  PV_COUNTER_ADD("prof.merged_cct_nodes", out.size());
  return out;
}

// ---------------------------------------------------------------------------
// The reduction-tree task graph and its bounded worker pool.
// ---------------------------------------------------------------------------

struct Task {
  // Leaves produce parts [begin, end); internal tasks merge child slots.
  std::uint32_t begin = 0, end = 0;
  std::vector<std::uint32_t> child_tasks;
  std::uint32_t level = 0;  // 0 for leaves
  std::uint32_t parent = kNoParent;
  std::uint32_t pending = 0;  // unfinished children (scheduler-locked)
  std::unique_ptr<MergeTree> slot;
};

class TreeMerger {
 public:
  TreeMerger(const PipelineOptions& opts, MergeContext& ctx, std::size_t nparts,
             std::function<void(std::uint32_t)> make_part)
      : opts_(opts), ctx_(ctx), nparts_(nparts),
        make_part_(std::move(make_part)) {
    nthreads_ = support::resolve_threads(opts.nthreads);
    arity_ = std::max(2u, opts.reduction_arity);
    batch_ = opts.batch_size;
    if (batch_ == 0) {
      // Auto: ~4 leaves per worker so merge work can overlap correlation,
      // without degenerating into one giant serial leaf.
      const auto target = static_cast<std::uint32_t>(nthreads_) * 4u;
      batch_ = std::max<std::uint32_t>(
          1, static_cast<std::uint32_t>((nparts_ + target - 1) / target));
    }
    ctx_.links.resize(nparts_);
    plan();
  }

  MergeTree run() {
    PV_COUNTER_SET("prof.pipeline.parts", nparts_);
    PV_COUNTER_SET("prof.pipeline.leaf_tasks", nleaves_);
    PV_COUNTER_SET("prof.pipeline.merge_tasks", tasks_.size() - nleaves_);
    PV_COUNTER_SET("prof.pipeline.merge_levels", levels_);
    const std::uint32_t pool =
        std::min<std::uint32_t>(nthreads_, static_cast<std::uint32_t>(nleaves_));
    if (pool <= 1) {
      worker();
    } else {
      std::vector<std::thread> threads;
      threads.reserve(pool);
      for (std::uint32_t i = 0; i < pool; ++i)
        threads.emplace_back([this] { worker(); });
      for (auto& th : threads) th.join();
    }
    PV_COUNTER_SET("prof.pipeline.queue_peak", queue_peak_);
    if (error_) std::rethrow_exception(error_);
    return std::move(*tasks_.back()->slot);
  }

 private:
  void plan() {
    nleaves_ = (nparts_ + batch_ - 1) / batch_;
    for (std::size_t i = 0; i < nleaves_; ++i) {
      auto t = std::make_unique<Task>();
      t->begin = static_cast<std::uint32_t>(i * batch_);
      t->end = static_cast<std::uint32_t>(
          std::min<std::size_t>(nparts_, (i + 1) * batch_));
      tasks_.push_back(std::move(t));
      ready_.push_back(static_cast<std::uint32_t>(tasks_.size() - 1));
    }
    queue_peak_ = ready_.size();
    // Build internal levels: groups of `arity_` consecutive nodes.
    std::vector<std::uint32_t> level_tasks(nleaves_);
    for (std::size_t i = 0; i < nleaves_; ++i)
      level_tasks[i] = static_cast<std::uint32_t>(i);
    std::uint32_t level = 0;
    while (level_tasks.size() > 1) {
      ++level;
      std::vector<std::uint32_t> next;
      for (std::size_t i = 0; i < level_tasks.size(); i += arity_) {
        auto t = std::make_unique<Task>();
        t->level = level;
        for (std::size_t j = i;
             j < std::min(level_tasks.size(), i + arity_); ++j)
          t->child_tasks.push_back(level_tasks[j]);
        t->pending = static_cast<std::uint32_t>(t->child_tasks.size());
        const auto id = static_cast<std::uint32_t>(tasks_.size());
        // A single-child group is a pass-through; still modeled as a task
        // so level grouping stays uniform (its merge is a cheap move).
        for (const std::uint32_t c : t->child_tasks)
          tasks_[c]->parent = id;
        tasks_.push_back(std::move(t));
        next.push_back(id);
      }
      level_tasks = std::move(next);
    }
    levels_ = level;
    remaining_ = tasks_.size();
  }

  void execute(std::uint32_t id) {
    Task& t = *tasks_[id];
    if (t.child_tasks.empty()) {
      PV_SPAN("prof.pipeline.leaf");
      make_part_(t.begin);
      auto acc = std::make_unique<MergeTree>(from_cct(ctx_, t.begin));
      PartBuffers buf;
      for (std::uint32_t p = t.begin + 1; p < t.end; ++p) {
        make_part_(p);
        absorb_part(ctx_, *acc, p, buf);
      }
      t.slot = std::move(acc);
    } else {
      PV_SPAN("prof.pipeline.merge");
      std::unique_ptr<MergeTree> acc = std::move(tasks_[t.child_tasks[0]]->slot);
      for (std::size_t i = 1; i < t.child_tasks.size(); ++i) {
        std::unique_ptr<MergeTree> src = std::move(tasks_[t.child_tasks[i]]->slot);
        absorb(ctx_, *acc, std::move(*src));
      }
      if (obs::enabled())
        obs::counter("prof.pipeline.level" + std::to_string(t.level) + ".nodes")
            .add(acc->nodes.size());
      t.slot = std::move(acc);
    }
  }

  void report(const Task& t) {
    if (!opts_.progress) return;
    PipelineProgress ev;
    std::lock_guard<std::mutex> lk(progress_mu_);
    if (t.child_tasks.empty()) {
      ev.stage = PipelineProgress::Stage::kCorrelate;
      ev.completed = ++leaves_done_;
      ev.total = nleaves_;
    } else {
      ev.stage = PipelineProgress::Stage::kMerge;
      ev.completed = ++merges_done_;
      ev.total = tasks_.size() - nleaves_;
    }
    opts_.progress(ev);
  }

  void worker() {
    for (;;) {
      std::uint32_t id;
      {
        std::unique_lock<std::mutex> lk(mu_);
        cv_.wait(lk, [this] {
          return !ready_.empty() || remaining_ == 0 || error_ != nullptr;
        });
        if (remaining_ == 0 || error_ != nullptr) return;
        id = ready_.front();
        ready_.pop_front();
      }
      try {
        execute(id);
        report(*tasks_[id]);
      } catch (...) {
        std::lock_guard<std::mutex> lk(mu_);
        if (!error_) error_ = std::current_exception();
        cv_.notify_all();
        return;
      }
      {
        std::lock_guard<std::mutex> lk(mu_);
        const std::uint32_t parent = tasks_[id]->parent;
        if (parent != kNoParent && --tasks_[parent]->pending == 0) {
          ready_.push_back(parent);
          queue_peak_ = std::max(queue_peak_, ready_.size());
        }
        if (--remaining_ == 0) {
          cv_.notify_all();
        } else {
          cv_.notify_one();
        }
      }
    }
  }

  const PipelineOptions& opts_;
  MergeContext& ctx_;
  std::size_t nparts_;
  std::function<void(std::uint32_t)> make_part_;
  std::uint32_t nthreads_ = 1;
  std::uint32_t arity_ = 2;
  std::uint32_t batch_ = 1;
  std::size_t nleaves_ = 0;
  std::uint32_t levels_ = 0;

  std::vector<std::unique_ptr<Task>> tasks_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::uint32_t> ready_;
  std::size_t remaining_ = 0;
  std::size_t queue_peak_ = 0;
  std::exception_ptr error_;

  std::mutex progress_mu_;
  std::size_t leaves_done_ = 0;
  std::size_t merges_done_ = 0;
};

}  // namespace

Pipeline::Pipeline(PipelineOptions opts) : opts_(std::move(opts)) {}

std::vector<CanonicalCct> Pipeline::correlate(
    const std::vector<sim::RawProfile>& ranks,
    const structure::StructureTree& tree) const {
  PV_SPAN("prof.pipeline.correlate");
  std::vector<CanonicalCct> out;
  out.reserve(ranks.size());
  for (std::size_t i = 0; i < ranks.size(); ++i)
    out.emplace_back(&tree);  // placeholders; filled below

  support::parallel_for(
      ranks.size(),
      [&](std::size_t i) { out[i] = prof::correlate(ranks[i], tree); },
      opts_.nthreads);
  return out;
}

CanonicalCct Pipeline::run(const std::vector<sim::RawProfile>& ranks,
                           const structure::StructureTree& tree) const {
  PV_SPAN("prof.pipeline.run");
  if (ranks.empty()) throw InvalidArgument("Pipeline: no profiles");
  if (ranks.size() == 1) {
    // Single rank: the serial fold's accumulator is the part itself; steal
    // it instead of re-inserting every node.
    CanonicalCct acc(&tree);
    acc.merge(prof::correlate(ranks[0], tree));
    if (opts_.progress)
      opts_.progress({PipelineProgress::Stage::kCorrelate, 1, 1});
    return acc;
  }
  MergeContext ctx;
  ctx.owned.reserve(ranks.size());
  ctx.parts.reserve(ranks.size());
  for (std::size_t i = 0; i < ranks.size(); ++i) {
    ctx.owned.emplace_back(&tree);  // placeholders; filled by leaf tasks
    ctx.parts.push_back(&ctx.owned.back());
  }
  TreeMerger merger(opts_, ctx, ranks.size(), [&](std::uint32_t i) {
    PV_SPAN("prof.pipeline.correlate");
    ctx.owned[i] = prof::correlate(ranks[i], tree);
  });
  const MergeTree merged = merger.run();
  return finalize(merged, ctx, &tree);
}

namespace {

const structure::StructureTree* validate_parts(
    const std::vector<CanonicalCct>& parts) {
  if (parts.empty()) throw InvalidArgument("Pipeline: no profiles");
  const structure::StructureTree* tree = &parts.front().tree();
  for (const CanonicalCct& p : parts)
    if (&p.tree() != tree)
      throw InvalidArgument(
          "Pipeline: parts reference different structure trees");
  return tree;
}

CanonicalCct merge_pointers(const PipelineOptions& opts, MergeContext& ctx,
                            const structure::StructureTree* tree) {
  TreeMerger merger(opts, ctx, ctx.parts.size(), [](std::uint32_t) {});
  const MergeTree merged = merger.run();
  return finalize(merged, ctx, tree);
}

}  // namespace

CanonicalCct Pipeline::merge(const std::vector<CanonicalCct>& parts) const {
  PV_SPAN("prof.pipeline.merge_parts");
  const structure::StructureTree* tree = validate_parts(parts);
  if (parts.size() == 1) {
    CanonicalCct acc(tree);
    acc.merge(parts.front());
    return acc;
  }
  MergeContext ctx;
  ctx.parts.reserve(parts.size());
  for (const CanonicalCct& p : parts) ctx.parts.push_back(&p);
  return merge_pointers(opts_, ctx, tree);
}

CanonicalCct Pipeline::merge(std::vector<CanonicalCct>&& parts) const {
  PV_SPAN("prof.pipeline.merge_parts");
  const structure::StructureTree* tree = validate_parts(parts);
  if (parts.size() == 1) {
    // Single part: steal it instead of re-inserting every node.
    CanonicalCct acc(tree);
    acc.merge(std::move(parts.front()));
    return acc;
  }
  MergeContext ctx;
  ctx.owned = std::move(parts);
  ctx.parts.reserve(ctx.owned.size());
  for (const CanonicalCct& p : ctx.owned) ctx.parts.push_back(&p);
  return merge_pointers(opts_, ctx, tree);
}

CanonicalCct merge_serial(const std::vector<CanonicalCct>& parts) {
  PV_SPAN("prof.merge_serial");
  if (parts.empty()) throw InvalidArgument("merge_serial: no profiles");
  CanonicalCct acc(&parts.front().tree());
  for (const CanonicalCct& p : parts) acc.merge(p);
  PV_COUNTER_ADD("prof.merged_cct_nodes", acc.size());
  return acc;
}

}  // namespace pathview::prof
