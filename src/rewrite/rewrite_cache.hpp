// Memoized query rewriting.
//
// Rewriting is cheap (a few microseconds per rewriting of a 4- to 12-edge
// query) but pure, and the same rewriting is asked for repeatedly: the
// engine's variants share the rewritings of one query, and a served
// stream repeats popular queries. RewriteCache memoizes RewriteQuery
// keyed by
//
//   (query fingerprint, rewriting, stats identity, random seed)
//
// where the stats identity is LabelStats::identity() for the ILF family —
// whose permutation depends on the stored graph's label frequencies — and
// 0 for the stats-independent rewritings (Original/IND/DND/Random), which
// are therefore shared across stored graphs and datasets. The cache never
// crosses stats identities: an ILF entry computed against one stored
// graph is invisible to lookups against another.
//
// The cache holds at most kCapacity entries, in two generations of
// kCapacity / 2: a miss inserts into the young map; when the young map is
// full, the old map is dropped (its entries count as evictions) and the
// young one becomes the old one; a hit in the old map moves the entry
// back to the young one. An entry looked up at least once per
// kCapacity / 2 insertions therefore stays, and a stream of distinct
// queries holds bounded memory however long it runs.
//
// Thread-safe; entries are returned as shared_ptr so they stay valid
// across eviction, Clear() and cache destruction while a race still uses
// them.

#ifndef PSI_REWRITE_REWRITE_CACHE_HPP_
#define PSI_REWRITE_REWRITE_CACHE_HPP_

#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "core/graph.hpp"
#include "core/label_stats.hpp"
#include "rewrite/rewrite.hpp"

namespace psi {

/// Structural fingerprint of a query graph (labels + edge list + edge
/// labels). Two graphs with equal fingerprints receive the same cache
/// slot; the permutations this cache stores are O(64-bit-collision)
/// unlikely to cross distinct queries, and every stored entry also
/// records (num_vertices, num_edges) as a cheap guard.
uint64_t QueryFingerprint(const Graph& query);

class RewriteCache {
 public:
  /// The most entries the cache holds at once.
  static constexpr size_t kCapacity = 4096;

  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;  ///< entries dropped with an old generation
    uint64_t lookups() const { return hits + misses; }
    double hit_rate() const {
      return lookups() == 0
                 ? 0.0
                 : static_cast<double>(hits) / static_cast<double>(lookups());
    }
  };

  /// The rewriting of `query` under `r`, computed on first use and
  /// memoized. Stats-dependent rewritings (the ILF family) key on
  /// `stats.identity()`; the rest share one entry per query. Falls back
  /// to an uncached original-copy entry if RewriteQuery fails (it cannot
  /// for valid queries — same defensive posture as RunPortfolio).
  std::shared_ptr<const RewrittenQuery> Get(const Graph& query, Rewriting r,
                                            const LabelStats& stats,
                                            uint64_t random_seed = 0);

  /// Convenience for the FTV runners: one instance per rewriting, in
  /// order (a failed rewriting yields the original-copy fallback, so the
  /// result always has rewritings.size() entries). The query fingerprint
  /// is computed once for the whole batch — per-pair callers on the
  /// parallel hot path hash the query once, not once per rewriting.
  std::vector<std::shared_ptr<const RewrittenQuery>> GetInstances(
      const Graph& query, std::span<const Rewriting> rewritings,
      const LabelStats& stats);

  Stats stats() const;
  size_t size() const;
  void Clear();

  /// True when `r`'s permutation consults stored-graph label statistics
  /// (the ILF family), i.e. its cache entries are per stats identity.
  static bool StatsDependent(Rewriting r);

 private:
  struct Key {
    uint64_t query_fp = 0;
    uint64_t stats_id = 0;
    uint64_t seed = 0;
    Rewriting rewriting = Rewriting::kOriginal;
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    size_t operator()(const Key& k) const {
      uint64_t h = k.query_fp;
      h = h * 1099511628211ull ^ k.stats_id;
      h = h * 1099511628211ull ^ k.seed;
      h = h * 1099511628211ull ^ static_cast<uint64_t>(k.rewriting);
      return static_cast<size_t>(h);
    }
  };
  struct Entry {
    std::shared_ptr<const RewrittenQuery> rewritten;
    // Guard against (astronomically unlikely) fingerprint collisions.
    uint32_t num_vertices = 0;
    uint64_t num_edges = 0;
  };

  using Map = std::unordered_map<Key, Entry, KeyHash>;

  std::shared_ptr<const RewrittenQuery> GetWithFingerprint(
      uint64_t query_fp, const Graph& query, Rewriting r,
      const LabelStats& stats, uint64_t random_seed);
  // Under mutex_: the entry for `key` if it holds `query`'s dims, moved to
  // the young generation when found in the old one; nullptr otherwise.
  std::shared_ptr<const RewrittenQuery> FindLocked(const Key& key,
                                                   const Graph& query,
                                                   Map* evicted);
  // Under mutex_: puts the entry in the young generation, replacing a
  // young entry of the same key, after rotating the generations if a new
  // key finds it full. A rotation hands the dropped generation to
  // `*evicted`, which the caller destroys after releasing the lock.
  void InsertLocked(const Key& key, Entry entry, Map* evicted);

  mutable std::mutex mutex_;
  Map young_;              // guarded by mutex_
  Map old_;                // guarded by mutex_
  uint64_t hits_ = 0;       // guarded by mutex_
  uint64_t misses_ = 0;     // guarded by mutex_
  uint64_t evictions_ = 0;  // guarded by mutex_
};

}  // namespace psi

#endif  // PSI_REWRITE_REWRITE_CACHE_HPP_
