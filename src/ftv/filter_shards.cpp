#include "ftv/filter_shards.hpp"

#include <algorithm>
#include <chrono>
#include <numeric>

#include "core/dataset.hpp"
#include "core/env.hpp"

namespace psi {

std::vector<ShardRange> ComputeShardRanges(uint32_t num_graphs,
                                           uint32_t num_shards) {
  std::vector<ShardRange> ranges;
  if (num_graphs == 0) return ranges;
  const uint32_t shards = std::clamp<uint32_t>(num_shards, 1, num_graphs);
  ranges.reserve(shards);
  const uint32_t base = num_graphs / shards;
  const uint32_t extra = num_graphs % shards;
  uint32_t begin = 0;
  for (uint32_t s = 0; s < shards; ++s) {
    const uint32_t len = base + (s < extra ? 1 : 0);
    ranges.push_back(ShardRange{begin, begin + len});
    begin += len;
  }
  return ranges;
}

uint32_t ResolveFilterShards(uint32_t requested, size_t collection_size,
                             const Executor* executor) {
  uint32_t shards = requested;
  if (shards == 0) {
    const int64_t env = FtvFilterShards();
    if (env > 0) {
      shards = static_cast<uint32_t>(env);
    } else if (executor != nullptr) {
      shards = static_cast<uint32_t>(executor->num_threads());
    } else {
      // The shared pool's width without forcing its construction.
      shards = static_cast<uint32_t>(std::max<int64_t>(1, PoolThreads()));
    }
  }
  if (collection_size == 0) return 1;
  return std::clamp<uint32_t>(shards, 1,
                              static_cast<uint32_t>(std::min<size_t>(
                                  collection_size, UINT32_MAX)));
}

void FilterStageStats::NoteQuery(uint64_t considered, uint64_t pruned) {
  queries_.fetch_add(1, std::memory_order_relaxed);
  candidates_in_.fetch_add(considered, std::memory_order_relaxed);
  candidates_pruned_.fetch_add(pruned, std::memory_order_relaxed);
}

void FilterStageStats::NoteShardLatency(double ms) {
  wait_hist_[PoolGauges::WaitBucketFor(ms)].fetch_add(
      1, std::memory_order_relaxed);
  wait_count_.fetch_add(1, std::memory_order_relaxed);
  wait_total_ns_.fetch_add(static_cast<uint64_t>(ms * 1e6),
                           std::memory_order_relaxed);
}

void FilterStageStats::AddTo(PoolGauges* g) const {
  g->filter_queries += queries_.load(std::memory_order_relaxed);
  g->filter_shards_run += shards_run_.load(std::memory_order_relaxed);
  g->filter_shards_inline += shards_inline_.load(std::memory_order_relaxed);
  g->filter_candidates_in += candidates_in_.load(std::memory_order_relaxed);
  g->filter_candidates_pruned +=
      candidates_pruned_.load(std::memory_order_relaxed);
  for (size_t i = 0; i < PoolGauges::kWaitBuckets; ++i) {
    g->filter_wait_hist[i] += wait_hist_[i].load(std::memory_order_relaxed);
  }
  g->filter_wait_count += wait_count_.load(std::memory_order_relaxed);
  g->filter_wait_total_ms +=
      static_cast<double>(wait_total_ns_.load(std::memory_order_relaxed)) /
      1e6;
}

std::vector<uint8_t> RunShardTasks(Executor* executor, Deadline deadline,
                                   size_t num_shards,
                                   const std::function<void(size_t)>& body) {
  std::vector<uint8_t> inline_shards(num_shards, 0);
  if (num_shards <= 1) {
    for (size_t si = 0; si < num_shards; ++si) {
      body(si);
      inline_shards[si] = 1;
    }
    return inline_shards;
  }
  Executor& exec = executor != nullptr ? *executor : Executor::Shared();
  {
    TaskGroup group(exec, deadline);
    for (size_t si = 0; si < num_shards; ++si) {
      const Admission admission = group.Spawn([&, si](TaskStart start) {
        if (start != TaskStart::kRun) {
          // Shed while queued (or the group was torn down): the shard
          // runs inline after the join. The write is made visible to
          // the joiner by Wait().
          inline_shards[si] = 1;
          return;
        }
        body(si);
      });
      if (admission == Admission::kRejected) inline_shards[si] = 1;
    }
    group.Wait();
  }
  for (size_t si = 0; si < num_shards; ++si) {
    if (inline_shards[si] != 0) body(si);
  }
  return inline_shards;
}

std::vector<size_t> ProbeOrder(
    std::span<const std::span<const PathPosting>> postings) {
  std::vector<size_t> order(postings.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return postings[a].size() < postings[b].size();
  });
  return order;
}

std::vector<PathTrie> BuildShardTries(const GraphDataset& dataset,
                                      uint32_t max_path_edges,
                                      bool with_components,
                                      std::span<const ShardRange> ranges,
                                      Executor* executor, Deadline deadline) {
  std::vector<PathTrie> tries(ranges.size(), PathTrie(with_components));
  RunShardTasks(executor, deadline, ranges.size(), [&](size_t si) {
    for (uint32_t gid = ranges[si].begin; gid < ranges[si].end; ++gid) {
      tries[si].AddGraph(gid, dataset.graph(gid), max_path_edges);
    }
  });
  return tries;
}

}  // namespace psi
