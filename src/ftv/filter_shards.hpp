// The filter-shard layer of the FTV pipeline.
//
// The paper's FTV protocol treats filtering as trivial overhead (§4): a
// query's whole filter is one merge join over gid-sorted postings and
// takes tens of microseconds, so it runs serially on the calling thread.
// What does not stay trivial as the collection grows is the index
// *build*, so the collection is sharded: the stored graphs are partitioned
// into contiguous id ranges, each range gets its own PathTrie, and each
// range's trie is built by one pool task over its own graphs only. Builds
// scale with the pool, and the shard tries are identical to what a serial
// build of each range would produce (a fixed graph yields a deterministic
// trie). Range tasks the bounded queue rejects or sheds build inline on
// the caller, so the index is complete under any queue capacity.
//
// The filter walks the shard tries in range order, one after another.
// The per-graph decision depends only on that graph's own postings, so
// any partition of the id space gives the serial single-trie filter's
// candidate set, in the same gid-ascending order. A single-shard index is
// the one-range case: one trie over every graph. Both engines filter a
// (trie, graph-id range) with the same merge join (ForEachCoveringGraph);
// only what a covering graph turns into — a gid for GGSX, a gid with its
// components for Grapes — stays in the engine modules (grapes/grapes.hpp,
// ggsx/ggsx.hpp).

#ifndef PSI_FTV_FILTER_SHARDS_HPP_
#define PSI_FTV_FILTER_SHARDS_HPP_

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "exec/executor.hpp"
#include "ftv/path_index.hpp"
#include "metrics/metrics.hpp"

namespace psi {

class GraphDataset;

/// Contiguous range [begin, end) of stored-graph ids owned by one shard.
struct ShardRange {
  uint32_t begin = 0;
  uint32_t end = 0;
  uint32_t size() const { return end - begin; }
};

/// Splits [0, num_graphs) into `num_shards` contiguous ranges of
/// near-equal size (the first `num_graphs % num_shards` ranges are one
/// graph larger). Never returns an empty range: the shard count is capped
/// at num_graphs. num_graphs == 0 yields no ranges.
std::vector<ShardRange> ComputeShardRanges(uint32_t num_graphs,
                                           uint32_t num_shards);

/// Resolves the effective filter-shard count: `requested` when > 0, else
/// the executor's pool width, i.e. one trie per pool worker (`executor`
/// nullptr means the shared pool — resolved without instantiating it).
/// The result is clamped to [1, collection_size] (collection_size 0
/// resolves to 1).
uint32_t ResolveFilterShards(uint32_t requested, size_t collection_size,
                             const Executor* executor);

/// Thread-safe counters of one index's filter stage, surfaced through
/// PoolGauges (metrics/metrics.hpp) next to the executor's own gauges.
/// All methods may be called concurrently.
class FilterStageStats {
 public:
  /// One filtered query over `considered` stored graphs of which `pruned`
  /// were dropped (each engine's Filter notes its own calls).
  void NoteQuery(uint64_t considered, uint64_t pruned);

  /// Adds this instance's counters into a PoolGauges snapshot.
  void AddTo(PoolGauges* g) const;

 private:
  std::atomic<uint64_t> queries_{0};
  std::atomic<uint64_t> candidates_in_{0};
  std::atomic<uint64_t> candidates_pruned_{0};
};

/// Probe order for the filter's merge join: rarest path first (fewest
/// postings), stable on ties so the early-exit pattern is deterministic.
/// The conjunction itself is order-independent, so any order yields the
/// same candidate set.
std::vector<size_t> ProbeOrder(
    std::span<const std::span<const PathPosting>> postings);

/// The path filter over the graph ids of `range` in `trie`: calls
/// `visit(graph_id, held)` for every graph whose count covers every query
/// path's, in ascending graph id. `held[i]` is the graph's component ids
/// for query_paths[i] (empty when the trie keeps none). Each path's
/// postings are clipped to the range and merged rarest first; a path
/// absent from the range ends the filter at once. With no query path
/// every graph in the range is visited with an empty `held`.
template <typename Visit>
void ForEachCoveringGraph(const PathTrie& trie, ShardRange range,
                          std::span<const QueryPath> query_paths,
                          Visit&& visit) {
  const size_t n = query_paths.size();
  std::vector<std::span<const uint32_t>> held(n);
  if (n == 0) {
    for (uint32_t gid = range.begin; gid < range.end; ++gid) {
      visit(gid, std::span<const std::span<const uint32_t>>(held));
    }
    return;
  }
  std::vector<const PostingList*> lists(n);
  std::vector<std::span<const PathPosting>> runs(n);
  for (size_t i = 0; i < n; ++i) {
    lists[i] = trie.Find(query_paths[i].labels);
    if (lists[i] == nullptr) return;
    runs[i] = lists[i]->Clip(range.begin, range.end);
    if (runs[i].empty()) return;
  }
  const std::vector<size_t> order = ProbeOrder(runs);
  const size_t lead = order[0];
  std::vector<size_t> cursor(n, 0);
  for (const PathPosting& p : runs[lead]) {
    if (p.count < query_paths[lead].count) continue;
    held[lead] = lists[lead]->ComponentsOf(p);
    bool covers = true;
    for (size_t k = 1; k < n && covers; ++k) {
      const size_t pi = order[k];
      const std::span<const PathPosting> run = runs[pi];
      const auto it = std::lower_bound(
          run.begin() + static_cast<std::ptrdiff_t>(cursor[pi]), run.end(),
          p.graph_id, [](const PathPosting& q, uint32_t gid) {
            return q.graph_id < gid;
          });
      cursor[pi] = static_cast<size_t>(it - run.begin());
      covers = it != run.end() && it->graph_id == p.graph_id &&
               it->count >= query_paths[pi].count;
      if (covers) held[pi] = lists[pi]->ComponentsOf(*it);
    }
    if (covers) {
      visit(p.graph_id, std::span<const std::span<const uint32_t>>(held));
    }
  }
}

/// Builds one PathTrie per shard range, each indexing only its own graphs,
/// as one TaskGroup on `executor` (nullptr = the shared pool). Ranges whose
/// build task the bounded queue displaces are built inline on the calling
/// thread, so the result is complete under any queue capacity. With a
/// single range the build is inline and never touches the executor.
std::vector<PathTrie> BuildShardTries(const GraphDataset& dataset,
                                      uint32_t max_path_edges,
                                      bool with_components,
                                      std::span<const ShardRange> ranges,
                                      Executor* executor);

}  // namespace psi

#endif  // PSI_FTV_FILTER_SHARDS_HPP_
