#include "ggsx/ggsx.hpp"

#include <chrono>

#include "match/candidate_index.hpp"
#include "vf2/vf2.hpp"

namespace psi {

Status GgsxIndex::Build(const GraphDataset& dataset) {
  dataset_ = &dataset;
  // One trie per contiguous graph-id range (ftv/filter_shards.hpp); a
  // single range builds inline, single-threaded as the original.
  const uint32_t shards = ResolveFilterShards(
      options_.filter_shards, dataset.size(), options_.executor);
  shard_ranges_ = ComputeShardRanges(dataset.size(), shards);
  shard_tries_ = BuildShardTries(dataset, options_.max_path_edges,
                                 /*with_components=*/false, shard_ranges_,
                                 options_.executor);
  // One shared candidate index per stored graph for the verification
  // stage (untimed, like the trie build — paper §3.2).
  const bool kernel = ResolveKernelEnabled(options_.candidate_index);
  graph_indexes_.clear();
  if (kernel) {
    graph_indexes_.reserve(dataset.size());
    for (uint32_t gid = 0; gid < dataset.size(); ++gid) {
      graph_indexes_.push_back(CandidateIndex::Build(dataset.graph(gid)));
    }
  }
  return Status::OK();
}

std::vector<uint32_t> GgsxIndex::Filter(const Graph& query) const {
  if (dataset_ == nullptr) return {};
  const std::vector<QueryPath> query_paths =
      CanonicalQueryPaths(query, options_.max_path_edges);
  std::vector<uint32_t> out;
  for (size_t si = 0; si < shard_tries_.size(); ++si) {
    ForEachCoveringGraph(
        shard_tries_[si], shard_ranges_[si], query_paths,
        [&](uint32_t gid, auto /*held*/) { out.push_back(gid); });
  }
  filter_stats_.NoteQuery(dataset_->size(), dataset_->size() - out.size());
  return out;
}

MatchResult GgsxIndex::VerifyCandidate(const Graph& query, uint32_t graph_id,
                                       const MatchOptions& opts) const {
  MatchOptions mo = opts;
  mo.max_embeddings = 1;  // decision problem
  MatchResult r =
      Vf2Match(query, dataset_->graph(graph_id), mo, graph_index(graph_id));
  kernel_stats_.Note(r.stats, graph_index(graph_id) != nullptr);
  return r;
}

}  // namespace psi
