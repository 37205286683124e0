// Grapes (Giugno et al., PLoS One 2013), per paper §3.1.1: path features up
// to a maximum length indexed in a trie *with location information*, a
// multi-threaded design, and a verification stage that extracts only the
// relevant connected components of each candidate graph before running VF2
// (modified, as in the paper's setup, to return after the first match —
// FTV answers the decision problem).
//
// The location information is kept as component ids: each posting of the
// trie (ftv/path_index.hpp) lists the sorted distinct components that hold
// an occurrence's start vertex, which is all the filter reads from a
// location. Postings are appended in ascending graph id, so the filter is
// one merge join over them; only graphs with more than one component
// intersect component lists.
//
// Index build is parallelised by sharding graphs across threads into local
// tries that are then merged; verification can fan candidate components out
// across `num_threads` workers (the paper's Grapes/1 vs Grapes/4).
//
// Beyond the paper, the index can shard the *filter stage* itself
// (ftv/filter_shards.hpp): with `filter_shards != 1` the collection is
// split into contiguous graph-id ranges, each with its own trie, and
// `FilterSharded` filters every shard as one deadline-aware TaskGroup on
// the shared executor. The per-graph decision depends only on that graph's
// own postings, so the sharded candidate set is byte-identical to the
// serial `Filter`'s (tests/ftv_parallel_filter_test.cpp holds this across
// randomized collections, and checks both against a trie-free census).

#ifndef PSI_GRAPES_GRAPES_HPP_
#define PSI_GRAPES_GRAPES_HPP_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/dataset.hpp"
#include "core/graph.hpp"
#include "core/status.hpp"
#include "core/stop_token.hpp"
#include "exec/executor.hpp"
#include "ftv/filter_shards.hpp"
#include "ftv/path_index.hpp"
#include "match/matcher.hpp"

namespace psi {

struct GrapesOptions {
  /// Maximum indexed path length in edges. The paper's "paths of up to
  /// size 4" counts vertices, i.e. 3 edges.
  uint32_t max_path_edges = 3;
  /// Worker threads for index build and candidate verification
  /// (Grapes/1, Grapes/4 in the paper).
  uint32_t num_threads = 1;
  /// Filter-stage shards: 1 (default) keeps the paper-faithful single
  /// trie and serial filter; 0 resolves from the environment
  /// (PSI_FTV_FILTER_SHARDS, auto = pool width); N > 1 is explicit. With
  /// more than one shard, Build creates one trie per contiguous graph-id
  /// range (built in parallel on `executor`) and FilterSharded filters
  /// shards concurrently.
  uint32_t filter_shards = 1;
  /// Pool backing the sharded build and FilterSharded; nullptr = the
  /// process-wide Executor::Shared(). Ignored when the index is
  /// single-shard.
  Executor* executor = nullptr;
  /// Candidate-index matching kernel for the verification stage
  /// (match/candidate_index.hpp): -1 (default) resolves from the
  /// environment (PSI_MATCH_INDEX), 0 forces it off, 1 on. When enabled,
  /// Build constructs one immutable CandidateIndex per cached component
  /// subgraph; every VF2 verification of that component — across all
  /// racing rewritings and pool tasks — shares it.
  int candidate_index = -1;
};

/// One filtering survivor: a stored graph plus the components that contain
/// all query paths (only those undergo VF2).
struct GrapesCandidate {
  uint32_t graph_id = 0;
  std::vector<uint32_t> components;

  bool operator==(const GrapesCandidate& o) const {
    return graph_id == o.graph_id && components == o.components;
  }
};

class GrapesIndex {
 public:
  GrapesIndex() = default;
  explicit GrapesIndex(const GrapesOptions& options) : options_(options) {}

  /// Indexes the dataset: enumerates paths (sharded across threads or
  /// filter shards), and caches each graph's connected components as
  /// standalone graphs for the verification stage.
  Status Build(const GraphDataset& dataset);

  /// Filter stage: graphs (and their components) whose path counts cover
  /// the query's. Sound: never drops a true answer. Always serial on the
  /// calling thread (on a sharded index it walks the shards in order);
  /// the ground truth FilterSharded is differential-tested against.
  std::vector<GrapesCandidate> Filter(const Graph& query) const;

  /// Sharded filter: every shard filters as one task of a cancellable
  /// TaskGroup on the configured executor; `deadline` is the group's EDF
  /// priority (and admission-control standing), exactly like a race.
  /// Shards the bounded queue rejects or sheds are filtered inline on the
  /// calling thread, so the candidate set is complete — and identical to
  /// Filter's — under any queue capacity. On a single-shard index this
  /// degrades to the serial Filter. Thread-safe after Build.
  std::vector<GrapesCandidate> FilterSharded(
      const Graph& query, Deadline deadline = Deadline()) const;

  /// The query's path index against this index's configuration — shared
  /// by every shard of one query.
  std::vector<QueryPath> CollectPaths(const Graph& query) const {
    return CollectQueryPaths(query, options_.max_path_edges);
  }

  /// Filters one shard on the calling thread (shard 0 of a single-shard
  /// index is the whole collection). `query_paths` must come from
  /// CollectPaths(query). Candidates are in ascending graph-id order
  /// within the shard.
  std::vector<GrapesCandidate> FilterShard(
      const Graph& query, std::span<const QueryPath> query_paths,
      uint32_t shard) const;

  /// Verification of one candidate: first-match VF2 over its relevant
  /// components (fanned across num_threads workers when > 1); a query
  /// without exactly one component runs against the whole stored graph.
  /// The MatchOptions deadline/stop are honoured; decision semantics
  /// (max_embeddings is forced to 1).
  MatchResult VerifyCandidate(const Graph& query,
                              const GrapesCandidate& candidate,
                              const MatchOptions& opts) const;

  const GraphDataset* dataset() const { return dataset_; }
  const GrapesOptions& options() const { return options_; }
  /// Number of filter shards, each with its own trie: 1 on a single-shard
  /// index, 0 before Build or over an empty collection.
  size_t num_filter_shards() const { return shard_tries_.size(); }
  std::span<const ShardRange> shard_ranges() const { return shard_ranges_; }
  /// Counters of the sharded filter stage (ftv/filter_shards.hpp);
  /// surface them with FilterStageStats::AddTo next to Executor::gauges().
  FilterStageStats& filter_stats() const { return filter_stats_; }
  /// The cached component subgraphs of stored graph `graph_id`.
  const std::vector<Graph>& components(uint32_t graph_id) const {
    return components_[graph_id];
  }
  /// The shared candidate index of one cached component; nullptr when the
  /// matching kernel is disabled for this index.
  const CandidateIndex* component_index(uint32_t graph_id,
                                        uint32_t component) const {
    return component_indexes_.empty()
               ? nullptr
               : component_indexes_[graph_id][component].get();
  }
  /// Kernel-effort counters over every VerifyCandidate call; surface with
  /// MatchKernelStats::AddTo next to the filter stats.
  MatchKernelStats& kernel_stats() const { return kernel_stats_; }

 private:
  GrapesOptions options_;
  std::vector<ShardRange> shard_ranges_;
  std::vector<PathTrie> shard_tries_;
  mutable FilterStageStats filter_stats_;
  mutable MatchKernelStats kernel_stats_;
  const GraphDataset* dataset_ = nullptr;
  /// components_[graph_id][component_id] — standalone component graphs.
  std::vector<std::vector<Graph>> components_;
  /// Parallel to components_; empty when the kernel is disabled.
  std::vector<std::vector<std::shared_ptr<const CandidateIndex>>>
      component_indexes_;
};

}  // namespace psi

#endif  // PSI_GRAPES_GRAPES_HPP_
