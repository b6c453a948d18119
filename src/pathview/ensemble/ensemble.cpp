#include "pathview/ensemble/ensemble.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <unordered_map>

#include "pathview/obs/obs.hpp"
#include "pathview/support/error.hpp"
#include "pathview/support/parallel.hpp"

namespace pathview::ensemble {

namespace {

using prof::CctNodeId;
using structure::SNode;
using structure::SNodeId;

// Identity of a union-tree scope: the serial creation keys, with names
// re-interned into the union tree's own string table. Entry addresses are
// deliberately absent — they differ across runs of the same program.
struct TreeKey {
  SNodeId parent;
  structure::SKind kind;
  NameId name;
  NameId file;
  int line;
  int call_line;
  bool operator==(const TreeKey&) const = default;
};

struct TreeKeyHash {
  std::size_t operator()(const TreeKey& k) const {
    std::uint64_t h = k.parent;
    h = h * 0x9e3779b97f4a7c15ULL + static_cast<std::uint64_t>(k.kind);
    h = h * 0xbf58476d1ce4e5b9ULL + k.name;
    h = h * 0x94d049bb133111ebULL + k.file;
    h = h * 0x2545f4914f6cdd1dULL +
        static_cast<std::uint32_t>(k.line);
    h = h * 0x9e3779b97f4a7c15ULL +
        static_cast<std::uint32_t>(k.call_line);
    return static_cast<std::size_t>(h ^ (h >> 31));
  }
};

constexpr std::size_t kStats = 7;

/// One (event, flavor) block of an ensemble's table: N run columns, then
/// mean, min, max, stddev, delta, ratio and regressed. Each member's column
/// is attributed on the member's own CCT, in parallel, and scattered through
/// its node map with `+=` (distinct member nodes may legally merge into one
/// supergraph node). Every cell sees the same operations in the same order
/// for any worker count, so the block is bit-identical to a serial build.
std::vector<std::vector<double>> build_block(const Ensemble::Sources& src,
                                             model::Event e, bool incl,
                                             std::size_t rows, std::size_t B,
                                             double thr) {
  PV_SPAN("ensemble.columns.block");
  PV_COUNTER_ADD("ensemble.blocks_generated", 1);
  const std::size_t N = src.members.size();
  std::vector<std::vector<double>> cols(N + kStats);
  support::parallel_for(N, [&](std::size_t k) {
    const prof::CanonicalCct& mc = src.members[k]->cct();
    std::vector<double> member(mc.size(), 0.0);
    double* const dst_member = member.data();
    metrics::attribute_events(mc, {&e, 1}, incl, {&dst_member, 1});
    const std::vector<CctNodeId>& map = src.maps[k];
    std::vector<double> dst(rows, 0.0);
    for (std::size_t i = 0; i < member.size(); ++i)
      if (member[i] != 0.0) dst[map[i]] += member[i];
    cols[k] = std::move(dst);
  });

  for (std::size_t s = N; s < cols.size(); ++s) cols[s].resize(rows);
  const std::span<const std::vector<double>> runs(cols.data(), N);
  double* dmean = cols[N].data();
  double* dmin = cols[N + 1].data();
  double* dmax = cols[N + 2].data();
  double* dstd = cols[N + 3].data();
  double* ddelta = cols[N + 4].data();
  double* dratio = cols[N + 5].data();
  double* dregr = cols[N + 6].data();
  // Statistics are per row, so row chunks may run in any order.
  constexpr std::size_t kChunk = std::size_t{1} << 15;
  support::parallel_for((rows + kChunk - 1) / kChunk, [&](std::size_t c) {
    const std::size_t lo = c * kChunk;
    const std::size_t hi = std::min(rows, lo + kChunk);
    for (std::size_t r = lo; r < hi; ++r) {
      double sum = 0.0;
      double mn = std::numeric_limits<double>::infinity();
      double mx = -std::numeric_limits<double>::infinity();
      for (std::size_t k = 0; k < N; ++k) {
        const double v = runs[k][r];
        sum += v;
        mn = std::min(mn, v);
        mx = std::max(mx, v);
      }
      const double mean = sum / static_cast<double>(N);
      double var = 0.0;
      for (std::size_t k = 0; k < N; ++k) {
        const double d = runs[k][r] - mean;
        var += d * d;
      }
      var /= static_cast<double>(N);
      const double base = runs[B][r];
      const double others =
          N > 1 ? (sum - base) / static_cast<double>(N - 1) : base;
      dmean[r] = mean;
      dmin[r] = mn;
      dmax[r] = mx;
      dstd[r] = std::sqrt(var);
      ddelta[r] = others - base;
      dratio[r] = base != 0.0 ? others / base : (others == 0.0 ? 1.0 : 0.0);
      dregr[r] = ((base > 0.0 && others - base > thr * base) ||
                  (base == 0.0 && others > 0.0))
                     ? 1.0
                     : 0.0;
    }
  });
  return cols;
}

}  // namespace

std::string run_column(std::string_view base, std::size_t member) {
  std::string s(base);
  s += " run";
  s += std::to_string(member);
  return s;
}

std::string stat_column(std::string_view base, std::string_view stat) {
  std::string s(base);
  s += ' ';
  s += stat;
  return s;
}

Ensemble Ensemble::align(
    const std::vector<std::shared_ptr<const db::Experiment>>& members,
    EnsembleOptions opts) {
  return align(members, {}, std::move(opts));
}

Ensemble Ensemble::align(
    const std::vector<std::shared_ptr<const db::Experiment>>& members,
    const std::vector<std::string>& paths, EnsembleOptions opts) {
  PV_SPAN("ensemble.align");
  if (members.empty()) throw InvalidArgument("ensemble: no members");
  for (const auto& m : members)
    if (!m) throw InvalidArgument("ensemble: null member experiment");
  if (!paths.empty() && paths.size() != members.size())
    throw InvalidArgument("ensemble: paths/members size mismatch");
  if (opts.baseline >= members.size())
    throw InvalidArgument("ensemble: baseline index " +
                          std::to_string(opts.baseline) + " out of range (" +
                          std::to_string(members.size()) + " members)");
  if (opts.regress_threshold < 0.0)
    throw InvalidArgument("ensemble: negative regression threshold");

  EnsembleOptions resolved = std::move(opts);
  if (resolved.events.empty())
    resolved.events.assign(metrics::all_events().begin(),
                           metrics::all_events().end());
  Ensemble out;
  out.opts_ = std::move(resolved);
  out.src_ = std::make_shared<Sources>();
  out.src_->members = members;
  out.align_structure(paths);
  out.build_columns();
  return out;
}

void Ensemble::align_structure(const std::vector<std::string>& paths) {
  PV_SPAN("ensemble.align.union");
  const std::vector<std::shared_ptr<const db::Experiment>>& members =
      src_->members;
  std::vector<std::vector<CctNodeId>>& maps = src_->maps;
  const std::size_t N = members.size();

  // --- Phase 1: union structure tree (insertion order) ----------------------
  // Scopes from every member are folded into one working tree keyed by the
  // serial creation keys; smap[k] maps member k's scope ids into it.
  structure::StructureTree wtree;
  std::unordered_map<TreeKey, SNodeId, TreeKeyHash> tindex;
  std::vector<std::vector<SNodeId>> smap(N);
  for (std::size_t k = 0; k < N; ++k) {
    const structure::StructureTree& t = members[k]->tree();
    smap[k].assign(t.size(), structure::kSNull);
    smap[k][t.root()] = wtree.root();
    // Child-list DFS: parents are always mapped before their children, with
    // no assumption about the member tree's id numbering.
    std::vector<SNodeId> stack(t.node(t.root()).children.rbegin(),
                               t.node(t.root()).children.rend());
    while (!stack.empty()) {
      const SNodeId id = stack.back();
      stack.pop_back();
      const SNode& n = t.node(id);
      TreeKey key{smap[k][n.parent], n.kind,
                  wtree.names().intern(t.names().str(n.name)),
                  wtree.names().intern(t.names().str(n.file)), n.line,
                  n.call_line};
      auto it = tindex.find(key);
      SNodeId u;
      if (it != tindex.end()) {
        u = it->second;
      } else {
        SNode copy;
        copy.kind = n.kind;
        copy.parent = key.parent;
        copy.name = key.name;
        copy.file = key.file;
        copy.line = n.line;
        copy.call_line = n.call_line;
        copy.entry = 0;  // member-specific; meaningless in the union
        copy.has_source = n.has_source;
        u = wtree.add_node(std::move(copy));
        tindex.emplace(key, u);
      }
      smap[k][id] = u;
      for (auto it2 = n.children.rbegin(); it2 != n.children.rend(); ++it2)
        stack.push_back(*it2);
    }
  }

  // --- Phase 2: canonical union structure tree -----------------------------
  // The working tree's numbering follows member order. Rebuild it with
  // children sorted by intrinsic keys and DFS-renumber, so the supergraph is
  // identical under any member permutation; then compose each member's
  // scope map with the renumbering.
  tree_ = std::make_unique<structure::StructureTree>();
  structure::StructureTree& ctree = *tree_;
  std::vector<SNodeId> tmap(wtree.size(), structure::kSNull);
  tmap[wtree.root()] = ctree.root();
  {
    auto sorted_children = [&](SNodeId id) {
      std::vector<SNodeId> ch = wtree.node(id).children;
      std::sort(ch.begin(), ch.end(), [&](SNodeId a, SNodeId b) {
        const SNode& na = wtree.node(a);
        const SNode& nb = wtree.node(b);
        if (na.kind != nb.kind) return na.kind < nb.kind;
        if (na.name != nb.name) {
          const std::string& sa = wtree.names().str(na.name);
          const std::string& sb = wtree.names().str(nb.name);
          if (sa != sb) return sa < sb;
        }
        if (na.file != nb.file) {
          const std::string& fa = wtree.names().str(na.file);
          const std::string& fb = wtree.names().str(nb.file);
          if (fa != fb) return fa < fb;
        }
        if (na.line != nb.line) return na.line < nb.line;
        return na.call_line < nb.call_line;
      });
      return ch;
    };
    struct Item {
      SNodeId wid;
      SNodeId cparent;
    };
    std::vector<Item> stack;
    {
      const auto ch = sorted_children(wtree.root());
      for (auto it = ch.rbegin(); it != ch.rend(); ++it)
        stack.push_back({*it, ctree.root()});
    }
    while (!stack.empty()) {
      const Item item = stack.back();
      stack.pop_back();
      const SNode& wn = wtree.node(item.wid);
      SNode cn;
      cn.kind = wn.kind;
      cn.parent = item.cparent;
      cn.name = ctree.names().intern(wtree.names().str(wn.name));
      cn.file = ctree.names().intern(wtree.names().str(wn.file));
      cn.line = wn.line;
      cn.call_line = wn.call_line;
      cn.entry = 0;
      cn.has_source = wn.has_source;
      const SNodeId cid = ctree.add_node(std::move(cn));
      tmap[item.wid] = cid;
      const auto ch = sorted_children(item.wid);
      for (auto it = ch.rbegin(); it != ch.rend(); ++it)
        stack.push_back({*it, cid});
    }
  }

  for (std::vector<SNodeId>& m : smap)
    for (SNodeId& s : m)
      if (s != structure::kSNull) s = tmap[s];

  // --- Phase 3: supergraph CCT, one preorder pass ---------------------------
  // A group is the set of (member, node) contributors that align to one
  // supergraph node, listed in (member, member preorder) order. Popping a
  // group appends its node — preorder, so parent ids stay smaller than
  // child ids, the invariant the attribution reverse sweep and the views
  // rely on — sums its contributors' samples in that order, maps them, and
  // gathers their children. Sorting the children by (kind, canonical scope,
  // canonical call site), gather position breaking ties, turns each run of
  // equal keys into one child group whose contributors keep the (member,
  // member preorder) order: a member's contributors to one group sit at the
  // same depth, so none is an ancestor of another and the children of an
  // earlier one precede those of a later one in the member's preorder.
  cct_ = std::make_unique<prof::CanonicalCct>(&ctree);
  prof::CanonicalCct& ccct = *cct_;
  maps.resize(N);
  for (std::size_t k = 0; k < N; ++k)
    maps[k].assign(members[k]->cct().size(), prof::kCctNull);
  {
    struct Contributor {
      std::uint32_t member;
      CctNodeId node;
    };
    // Contributors [begin, end) of `pool`, to become a child of `parent`.
    // Pending groups tile the tail of `pool` in stack order, so popping a
    // group and truncating the pool to its begin frees exactly its range.
    struct Group {
      CctNodeId parent;
      std::size_t begin;
      std::size_t end;
    };
    struct Child {
      std::uint64_t scopes;  // canonical scope << 32 | canonical call site
      std::uint32_t kind;
      std::uint32_t pos;  // gather position
      Contributor from;
      bool same_key(const Child& o) const {
        return kind == o.kind && scopes == o.scopes;
      }
      bool operator<(const Child& o) const {
        if (kind != o.kind) return kind < o.kind;
        if (scopes != o.scopes) return scopes < o.scopes;
        return pos < o.pos;
      }
    };
    const auto canon = [&smap](std::uint32_t k, SNodeId s) {
      return s == structure::kSNull ? structure::kSNull : smap[k][s];
    };
    std::vector<Contributor> pool;
    for (std::uint32_t k = 0; k < N; ++k) pool.push_back({k, prof::kCctRoot});
    std::vector<Group> stack{{prof::kCctNull, 0, N}};
    std::vector<Child> kids;
    while (!stack.empty()) {
      const Group g = stack.back();
      stack.pop_back();
      CctNodeId id = prof::kCctRoot;
      if (g.parent != prof::kCctNull) {
        const Contributor first = pool[g.begin];
        const prof::CctNode& n = members[first.member]->cct().node(first.node);
        id = ccct.append_child(g.parent, n.kind, canon(first.member, n.scope),
                               canon(first.member, n.call_site));
      }
      kids.clear();
      for (std::size_t i = g.begin; i < g.end; ++i) {
        const Contributor c = pool[i];
        const prof::CanonicalCct& mc = members[c.member]->cct();
        ccct.add_samples(id, mc.samples(c.node));
        maps[c.member][c.node] = id;
        for (const CctNodeId ch : mc.node(c.node).children) {
          const prof::CctNode& n = mc.node(ch);
          kids.push_back(
              {static_cast<std::uint64_t>(canon(c.member, n.scope)) << 32 |
                   canon(c.member, n.call_site),
               static_cast<std::uint32_t>(n.kind),
               static_cast<std::uint32_t>(kids.size()),
               {c.member, ch}});
        }
      }
      pool.resize(g.begin);
      if (kids.empty()) continue;
      std::sort(kids.begin(), kids.end());
      std::size_t runs = 1;
      for (std::size_t j = 1; j < kids.size(); ++j)
        if (!kids[j].same_key(kids[j - 1])) ++runs;
      ccct.reserve_children(id, runs);
      // Push the runs last key first, so the smallest key pops next.
      for (std::size_t e = kids.size(); e > 0;) {
        std::size_t b = e - 1;
        while (b > 0 && kids[b - 1].same_key(kids[b])) --b;
        stack.push_back({id, pool.size(), pool.size() + (e - b)});
        for (std::size_t j = b; j < e; ++j) pool.push_back(kids[j].from);
        e = b;
      }
    }
  }

  // --- Phase 4: presence bitmaps, degraded propagation, member infos --------
  words_ = (N + 63) / 64;
  presence_.assign(ccct.size() * words_, 0);
  for (std::size_t k = 0; k < N; ++k)
    for (const CctNodeId u : maps[k])
      presence_[u * words_ + k / 64] |= std::uint64_t{1} << (k % 64);

  bool degraded = false;
  members_.reserve(N);
  for (std::size_t k = 0; k < N; ++k) {
    const db::Experiment& e = *members[k];
    degraded = degraded || e.degraded();
    MemberInfo info;
    info.path = paths.empty() ? std::string() : paths[k];
    info.name = e.name();
    info.nranks = e.nranks();
    info.cct_nodes = e.cct().size();
    info.degraded = e.degraded();
    info.dropped_ranks = e.dropped_ranks();
    members_.push_back(std::move(info));
  }
  ccct.set_degraded(degraded);
}

void Ensemble::build_columns() {
  PV_SPAN("ensemble.align.columns");
  const std::size_t N = src_->members.size();
  const std::vector<model::Event>& events = opts_.events;

  // --- Phase 5: ensemble metric table ---------------------------------------
  // Plain columns are the ordinary attribution over the union's summed
  // samples, so hot paths, `total` and pre-ensemble queries keep their
  // single-run meaning (and, attribution being linear, each plain column
  // equals the sum of its run columns).
  attr_ = metrics::attribute_metrics(*cct_, events);
  metrics::MetricTable& table = attr_.table;
  const std::size_t rows = cct_->size();

  std::vector<double> presence(rows);
  for (std::size_t r = 0; r < rows; ++r)
    presence[r] =
        static_cast<double>(presence_count(static_cast<CctNodeId>(r)));
  table.add_column({std::string(kPresenceColumn), metrics::MetricKind::kSummary,
                    model::Event::kCycles, true, {}},
                   std::move(presence));

  // One block per (event, incl/excl): N run columns, then 7 statistics,
  // all filled by one generator on the first read of any of them.
  const double thr = opts_.regress_threshold;
  const std::size_t B = opts_.baseline;
  const std::string bref = "run" + std::to_string(B);
  const struct {
    std::string_view stat;
    metrics::MetricKind kind;
    std::string formula;
  } stat_cols[kStats] = {
      {"mean", metrics::MetricKind::kSummary, {}},
      {"min", metrics::MetricKind::kSummary, {}},
      {"max", metrics::MetricKind::kSummary, {}},
      {"stddev", metrics::MetricKind::kSummary, {}},
      {"delta", metrics::MetricKind::kDerived,
       "mean(non-baseline runs) - " + bref},
      {"ratio", metrics::MetricKind::kDerived,
       "mean(non-baseline runs) / " + bref},
      {"regressed", metrics::MetricKind::kDerived,
       "delta > " + std::to_string(thr) + " * " + bref}};
  for (const model::Event e : events) {
    for (const bool incl : {true, false}) {
      auto gen = std::make_shared<metrics::ColumnGenerator>(
          [src = std::shared_ptr<const Sources>(src_), e, incl, rows, B, thr] {
            return build_block(*src, e, incl, rows, B, thr);
          });
      const std::string base =
          std::string(model::event_name(e)) + (incl ? " (I)" : " (E)");
      for (std::size_t k = 0; k < N; ++k)
        table.add_column(
            {run_column(base, k), metrics::MetricKind::kRaw, e, incl, {}}, gen,
            k);
      for (std::size_t s = 0; s < kStats; ++s)
        table.add_column({stat_column(base, stat_cols[s].stat),
                          stat_cols[s].kind, e, incl, stat_cols[s].formula},
                         gen, N + s);
    }
  }
}

std::size_t Ensemble::presence_count(prof::CctNodeId n) const {
  std::size_t count = 0;
  for (std::size_t w = 0; w < words_; ++w)
    count += static_cast<std::size_t>(
        std::popcount(presence_[n * words_ + w]));
  return count;
}

}  // namespace pathview::ensemble
