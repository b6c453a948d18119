// A sharded LRU cache of loaded experiment databases.
//
// Many sessions opening the same database must share ONE immutable
// in-memory Experiment (the views built on top are per-session; the CCT and
// structure tree they read are const and safe to share across threads), and
// ONE base metric attribution over it, built on the first session open and
// counted in the entry's bytes from then on (ensemble members never need
// it, so loading alone does not build it). The
// cache is sharded by path hash so concurrent opens of different databases
// do not serialize on one lock, and each shard enforces its slice of a
// global byte budget with LRU eviction.
//
// Eviction drops the cache's reference only: sessions holding a
// shared_ptr to an evicted experiment keep it alive until they close, so
// the budget bounds *cached* bytes, and resident memory converges back to
// the budget as sessions drain.
#pragma once

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "pathview/db/experiment.hpp"
#include "pathview/metrics/attribution.hpp"

namespace pathview::serve {

/// Deterministic size estimate of an experiment's resident footprint; with
/// `with_attribution`, plus its base attribution's columns (inclusive and
/// exclusive for every event, one value per CCT node each).
std::size_t estimate_experiment_bytes(const db::Experiment& exp,
                                      bool with_attribution = false);

/// A cached experiment with its shared base attribution.
struct AttributedExperiment {
  std::shared_ptr<const db::Experiment> exp;
  std::shared_ptr<const metrics::Attribution> attr;
};

class ExperimentCache {
 public:
  struct Options {
    /// Total byte budget across all shards.
    std::size_t byte_budget = 256u << 20;
    std::size_t shards = 8;
  };

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::size_t resident_bytes = 0;
    std::size_t entries = 0;
  };

  ExperimentCache();
  explicit ExperimentCache(Options opts);

  /// Fetch `path`, loading it on a miss (".pvdb" = binary, else XML).
  /// Throws the loader's typed error on unreadable/corrupt databases.
  std::shared_ptr<const db::Experiment> get(const std::string& path);

  /// Same, plus the entry's base attribution over every event, built on the
  /// first call for the entry (under its shard lock, so once).
  AttributedExperiment get_attributed(const std::string& path);

  Stats stats() const;
  std::size_t byte_budget() const {
    return budget_.load(std::memory_order_relaxed);
  }

  /// Re-size the byte budget live (memory-pressure response: the brownout
  /// controller halves it, then restores it). Shrinking evicts immediately;
  /// sessions holding evicted experiments keep them alive until they close.
  void set_byte_budget(std::size_t bytes);

  /// Drop every cached entry (sessions keep their references).
  void clear();

 private:
  struct Entry {
    std::string path;
    std::shared_ptr<const db::Experiment> exp;
    std::shared_ptr<const metrics::Attribution> attr;  // null until asked for
    std::size_t bytes = 0;
  };
  struct Shard {
    mutable std::mutex mu;
    std::list<Entry> lru;  // front = most recently used
    std::unordered_map<std::string, std::list<Entry>::iterator> index;
    std::size_t bytes = 0;
    std::uint64_t hits = 0, misses = 0, evictions = 0;
  };

  Shard& shard_for(const std::string& path);
  /// The entry for `path`, loaded on a miss and moved to the front of `s`
  /// (whose lock the caller holds).
  Entry& front_entry(Shard& s, const std::string& path);
  /// Charge `delta` more bytes to `s`, then evict to fit.
  void charge(Shard& s, std::size_t delta);
  /// Evict from the back of `s` until it fits `budget` (never evicts the
  /// front entry, so one over-budget experiment still caches).
  void evict_to_fit(Shard& s, std::size_t budget);

  Options opts_;
  /// Live budget (opts_.byte_budget is only the configured initial value).
  std::atomic<std::size_t> budget_;
  std::atomic<std::size_t> shard_budget_;
  std::vector<std::unique_ptr<Shard>> shards_;
  /// Resident total across shards (mirrors the per-shard sums, readable
  /// without taking every shard lock; feeds the serve.cache.bytes gauge).
  std::atomic<std::size_t> resident_bytes_{0};
};

}  // namespace pathview::serve
