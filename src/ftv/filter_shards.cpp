#include "ftv/filter_shards.hpp"

#include <algorithm>
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
    // One trie per pool worker; the shared pool's width is read without
    // forcing its construction.
    shards = executor != nullptr
                 ? static_cast<uint32_t>(executor->num_threads())
                 : static_cast<uint32_t>(std::max<int64_t>(1, PoolThreads()));
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

void FilterStageStats::AddTo(PoolGauges* g) const {
  g->filter_queries += queries_.load(std::memory_order_relaxed);
  g->filter_candidates_in += candidates_in_.load(std::memory_order_relaxed);
  g->filter_candidates_pruned +=
      candidates_pruned_.load(std::memory_order_relaxed);
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
                                      Executor* executor) {
  std::vector<PathTrie> tries(ranges.size(), PathTrie(with_components));
  const auto build = [&](size_t si) {
    for (uint32_t gid = ranges[si].begin; gid < ranges[si].end; ++gid) {
      tries[si].AddGraph(gid, dataset.graph(gid), max_path_edges);
    }
  };
  if (ranges.size() <= 1) {
    for (size_t si = 0; si < ranges.size(); ++si) build(si);
    return tries;
  }
  std::vector<uint8_t> displaced(ranges.size(), 0);
  {
    TaskGroup group(executor != nullptr ? *executor : Executor::Shared());
    for (size_t si = 0; si < ranges.size(); ++si) {
      const Admission admission = group.Spawn([&, si](TaskStart start) {
        if (start != TaskStart::kRun) {
          // Shed while queued (or the group was torn down): the range
          // builds inline after the join. Wait() makes the write visible
          // to the joiner.
          displaced[si] = 1;
          return;
        }
        build(si);
      });
      if (admission == Admission::kRejected) displaced[si] = 1;
    }
    group.Wait();
  }
  for (size_t si = 0; si < ranges.size(); ++si) {
    if (displaced[si] != 0) build(si);
  }
  return tries;
}

}  // namespace psi
