// The filter-shard layer of the FTV pipeline.
//
// The paper's FTV protocol treats filtering as trivial overhead (§4), which
// holds for thousands of stored graphs but not for the collection sizes the
// serving system targets: the filter walks every query path over one global
// trie and touches every stored graph's postings serially. This layer
// shards the *collection* (the scalable axis): the stored graphs are
// partitioned into contiguous id ranges, each range gets its own PathTrie,
// and a query filters every shard as one cancellable TaskGroup on the
// shared Executor — deadline-aware and admission-controlled exactly like a
// Ψ-race. Shards the bounded queue rejects or sheds are filtered inline on
// the caller, so the result is *always* complete and byte-identical to the
// serial filter (the per-graph filter decision depends only on that
// graph's own postings, so any partition of the id space commutes with
// filtering).
//
// The same ranges drive the parallel index *build*: each shard's trie is
// built by one pool task over its own graphs only, so builds scale with
// the pool and the shard tries are identical to what a serial build of
// each range would produce (a fixed graph yields a deterministic trie).
//
// A single-shard index is the one-range case: one trie over every graph.
// Both engines filter any (trie, graph-id range) with the same merge join
// over gid-sorted postings (ForEachCoveringGraph); only what a covering
// graph turns into — a gid for GGSX, a gid with its components for
// Grapes — stays in the engine modules (grapes/grapes.hpp, ggsx/ggsx.hpp).

#ifndef PSI_FTV_FILTER_SHARDS_HPP_
#define PSI_FTV_FILTER_SHARDS_HPP_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <iterator>
#include <span>
#include <vector>

#include "core/status.hpp"
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
/// PSI_FTV_FILTER_SHARDS when set, else the executor's pool width
/// (`executor` nullptr means the shared pool — resolved without
/// instantiating it). The result is clamped to [1, collection_size]
/// (collection_size 0 resolves to 1).
uint32_t ResolveFilterShards(uint32_t requested, size_t collection_size,
                             const Executor* executor);

/// Thread-safe counters of one sharded filter instance, surfaced through
/// PoolGauges (metrics/metrics.hpp) next to the executor's own gauges.
/// All methods may be called concurrently.
class FilterStageStats {
 public:
  /// One filtered query (a FilterSharded call, or a workload runner's
  /// serial Filter) over `considered` stored graphs of which `pruned`
  /// were dropped.
  void NoteQuery(uint64_t considered, uint64_t pruned);
  /// One shard filter task that ran on the pool.
  void NoteShardRun() { shards_run_.fetch_add(1, std::memory_order_relaxed); }
  /// One shard displaced by admission control (rejected or shed) and
  /// therefore filtered inline on the caller.
  void NoteShardInline() {
    shards_inline_.fetch_add(1, std::memory_order_relaxed);
  }
  /// Latency of one shard from its first submission to its result being
  /// ready, for the filter-wait histogram. Queue wait is included; for a
  /// shard admission control displaced, so is the failed pool attempt
  /// and the wait for the join before its inline re-run — the metric is
  /// "how long until this shard's results were available", not pure
  /// execution time.
  void NoteShardLatency(double ms);

  /// Adds this instance's counters into a PoolGauges snapshot.
  void AddTo(PoolGauges* g) const;

 private:
  std::atomic<uint64_t> queries_{0};
  std::atomic<uint64_t> shards_run_{0};
  std::atomic<uint64_t> shards_inline_{0};
  std::atomic<uint64_t> candidates_in_{0};
  std::atomic<uint64_t> candidates_pruned_{0};
  std::atomic<uint64_t> wait_hist_[PoolGauges::kWaitBuckets] = {};
  std::atomic<uint64_t> wait_count_{0};
  std::atomic<uint64_t> wait_total_ns_{0};
};

/// Runs `body(shard)` for every shard in [0, num_shards) as one
/// cancellable TaskGroup on `executor` (nullptr = the shared pool), with
/// `deadline` as the group's EDF priority and admission-control standing.
/// Shards the bounded queue rejects or sheds run inline on the calling
/// thread after the join, so every shard runs exactly once under any
/// queue capacity. Returns which shards ran inline. `num_shards <= 1`
/// runs inline directly and never touches the executor.
///
/// The fan-out scaffold behind the sharded trie build and both engines'
/// FilterSharded.
std::vector<uint8_t> RunShardTasks(Executor* executor, Deadline deadline,
                                   size_t num_shards,
                                   const std::function<void(size_t)>& body);

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
/// as one TaskGroup on `executor` (nullptr = the shared pool; the group
/// carries `deadline` as its EDF priority). Shards whose build task the
/// bounded queue displaces are built inline on the calling thread, so the
/// result is complete under any queue capacity. With a single range the
/// build is inline and never touches the executor.
std::vector<PathTrie> BuildShardTries(const GraphDataset& dataset,
                                      uint32_t max_path_edges,
                                      bool with_components,
                                      std::span<const ShardRange> ranges,
                                      Executor* executor,
                                      Deadline deadline = Deadline());

/// The single-shard FilterSharded fallback shared by both engines: runs
/// the serial `filter` on the calling thread, with the same per-query
/// prune accounting and latency bookkeeping as the sharded path.
template <typename FilterFn>
auto RunSerialFilterFallback(FilterStageStats& stats, size_t collection_size,
                             const FilterFn& filter) {
  const auto t0 = Deadline::Clock::now();
  auto out = filter();
  stats.NoteQuery(collection_size, collection_size - out.size());
  stats.NoteShardLatency(std::chrono::duration<double, std::milli>(
                             Deadline::Clock::now() - t0)
                             .count());
  return out;
}

/// The shared body of both engines' FilterSharded on a sharded index:
/// runs `filter_shard(si)` (-> std::vector<Candidate> for shard si) for
/// every shard via RunShardTasks, records per-shard latency, run/inline
/// counts and the per-query prune accounting into `stats`, and returns
/// the shard results concatenated in shard order (globally gid-ascending
/// for contiguous ranges).
template <typename Candidate, typename ShardFn>
std::vector<Candidate> RunShardedFilter(Executor* executor, Deadline deadline,
                                        size_t num_shards,
                                        size_t collection_size,
                                        FilterStageStats& stats,
                                        const ShardFn& filter_shard) {
  const auto t0 = Deadline::Clock::now();
  std::vector<std::vector<Candidate>> parts(num_shards);
  const std::vector<uint8_t> inline_shards =
      RunShardTasks(executor, deadline, num_shards, [&](size_t si) {
        parts[si] = filter_shard(si);
        stats.NoteShardLatency(std::chrono::duration<double, std::milli>(
                                   Deadline::Clock::now() - t0)
                                   .count());
      });
  for (uint8_t displaced : inline_shards) {
    if (displaced != 0) {
      stats.NoteShardInline();
    } else {
      stats.NoteShardRun();
    }
  }
  std::vector<Candidate> out;
  for (auto& part : parts) {
    out.insert(out.end(), std::make_move_iterator(part.begin()),
               std::make_move_iterator(part.end()));
  }
  stats.NoteQuery(collection_size, collection_size - out.size());
  return out;
}

}  // namespace psi

#endif  // PSI_FTV_FILTER_SHARDS_HPP_
