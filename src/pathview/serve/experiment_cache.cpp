#include "pathview/serve/experiment_cache.hpp"

#include <functional>

#include "pathview/obs/obs.hpp"

namespace pathview::serve {

std::size_t estimate_experiment_bytes(const db::Experiment& exp,
                                      bool with_attribution) {
  const prof::CanonicalCct& cct = exp.cct();
  const structure::StructureTree& tree = exp.tree();
  std::size_t b = sizeof(db::Experiment) + exp.name().size();
  // CCT: node records, per-node sample vectors, child edges, and one slot
  // in the sibling-dedup edge index.
  b += cct.size() *
       (sizeof(prof::CctNode) + sizeof(model::EventVector) + 48);
  for (prof::CctNodeId i = 0; i < cct.size(); ++i)
    b += cct.node(i).children.size() * sizeof(prof::CctNodeId);
  // Structure tree: scope records, child edges, interned names.
  b += tree.size() * (sizeof(structure::SNode) + 16);
  for (structure::SNodeId i = 0; i < tree.size(); ++i)
    b += tree.node(i).children.size() * sizeof(structure::SNodeId);
  for (NameId n = 0; n < tree.names().size(); ++n)
    b += tree.names().str(n).size() + sizeof(std::string) + 16;
  for (const metrics::MetricDesc& d : exp.user_metrics())
    b += sizeof(metrics::MetricDesc) + d.name.size() + d.formula.size();
  if (with_attribution)
    b += sizeof(metrics::Attribution) +
         2 * model::kNumEvents *
             (cct.size() * sizeof(double) + sizeof(metrics::ColumnBuffer) +
              sizeof(metrics::MetricDesc) + 64);
  return b;
}

namespace {

std::shared_ptr<const db::Experiment> load(const std::string& path) {
  // Content-sniffing open (strict: a damaged database is an error reply,
  // never silently-degraded shared state).
  return std::make_shared<const db::Experiment>(
      std::move(db::open(path).experiment));
}

}  // namespace

ExperimentCache::ExperimentCache() : ExperimentCache(Options()) {}

ExperimentCache::ExperimentCache(Options opts) : opts_(opts) {
  if (opts_.shards == 0) opts_.shards = 1;
  budget_.store(opts_.byte_budget, std::memory_order_relaxed);
  std::size_t per_shard = opts_.byte_budget / opts_.shards;
  if (per_shard == 0) per_shard = 1;
  shard_budget_.store(per_shard, std::memory_order_relaxed);
  shards_.reserve(opts_.shards);
  for (std::size_t i = 0; i < opts_.shards; ++i)
    shards_.push_back(std::make_unique<Shard>());
}

void ExperimentCache::set_byte_budget(std::size_t bytes) {
  if (bytes == 0) bytes = 1;
  budget_.store(bytes, std::memory_order_relaxed);
  std::size_t per_shard = bytes / shards_.size();
  if (per_shard == 0) per_shard = 1;
  shard_budget_.store(per_shard, std::memory_order_relaxed);
  // Shrinks take effect now, not on the next insert: the brownout
  // controller calls this precisely because memory is short.
  for (const auto& sp : shards_) {
    std::lock_guard<std::mutex> lock(sp->mu);
    evict_to_fit(*sp, per_shard);
  }
  PV_COUNTER_SET("serve.cache.bytes",
                 resident_bytes_.load(std::memory_order_relaxed));
}

ExperimentCache::Shard& ExperimentCache::shard_for(const std::string& path) {
  return *shards_[std::hash<std::string>{}(path) % shards_.size()];
}

void ExperimentCache::evict_to_fit(Shard& s, std::size_t budget) {
  // Never evict the front (just-used) entry: a single experiment larger
  // than the shard budget still caches — evicting it would thrash.
  while (s.bytes > budget && s.lru.size() > 1) {
    const Entry& victim = s.lru.back();
    s.bytes -= victim.bytes;
    resident_bytes_.fetch_sub(victim.bytes, std::memory_order_relaxed);
    s.index.erase(victim.path);
    s.lru.pop_back();
    ++s.evictions;
    PV_COUNTER_ADD("serve.cache.evict", 1);
  }
}

ExperimentCache::Entry& ExperimentCache::front_entry(Shard& s,
                                                    const std::string& path) {
  if (auto it = s.index.find(path); it != s.index.end()) {
    s.lru.splice(s.lru.begin(), s.lru, it->second);
    ++s.hits;
    PV_COUNTER_ADD("serve.cache.hit", 1);
    return s.lru.front();
  }
  // Load under the shard lock: concurrent opens of the same database wait
  // for one load instead of duplicating it; other shards stay available.
  ++s.misses;
  PV_COUNTER_ADD("serve.cache.miss", 1);
  Entry e;
  e.path = path;
  e.exp = load(path);
  e.bytes = estimate_experiment_bytes(*e.exp);
  s.lru.push_front(std::move(e));
  s.index.emplace(path, s.lru.begin());
  charge(s, s.lru.front().bytes);
  return s.lru.front();
}

void ExperimentCache::charge(Shard& s, std::size_t delta) {
  s.bytes += delta;
  resident_bytes_.fetch_add(delta, std::memory_order_relaxed);
  // The front entry is never evicted, so the caller's entry survives.
  evict_to_fit(s, shard_budget_.load(std::memory_order_relaxed));
  PV_COUNTER_SET("serve.cache.bytes",
                 resident_bytes_.load(std::memory_order_relaxed));
}

std::shared_ptr<const db::Experiment> ExperimentCache::get(
    const std::string& path) {
  Shard& s = shard_for(path);
  std::lock_guard<std::mutex> lock(s.mu);
  return front_entry(s, path).exp;
}

AttributedExperiment ExperimentCache::get_attributed(const std::string& path) {
  Shard& s = shard_for(path);
  std::lock_guard<std::mutex> lock(s.mu);
  Entry& e = front_entry(s, path);
  if (!e.attr) {
    e.attr = std::make_shared<const metrics::Attribution>(
        metrics::attribute_metrics(e.exp->cct(), metrics::all_events()));
    const std::size_t bytes =
        estimate_experiment_bytes(*e.exp, /*with_attribution=*/true);
    const std::size_t delta = bytes - e.bytes;
    e.bytes = bytes;
    charge(s, delta);
  }
  return {e.exp, e.attr};
}

ExperimentCache::Stats ExperimentCache::stats() const {
  Stats st;
  for (const auto& sp : shards_) {
    std::lock_guard<std::mutex> lock(sp->mu);
    st.hits += sp->hits;
    st.misses += sp->misses;
    st.evictions += sp->evictions;
    st.resident_bytes += sp->bytes;
    st.entries += sp->lru.size();
  }
  return st;
}

void ExperimentCache::clear() {
  for (const auto& sp : shards_) {
    std::lock_guard<std::mutex> lock(sp->mu);
    resident_bytes_.fetch_sub(sp->bytes, std::memory_order_relaxed);
    sp->bytes = 0;
    sp->lru.clear();
    sp->index.clear();
  }
}

}  // namespace pathview::serve
