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
// The index build is parallel: the collection is split into contiguous
// graph-id ranges, each with its own trie built as one task on the shared
// executor (ftv/filter_shards.hpp). Grapes/N (`num_threads` > 1) builds at
// least `num_threads` ranges, and `filter_shards` asks for more. `Filter`
// walks the range tries serially in id order; the per-graph decision
// depends only on that graph's own postings, so the candidate set is the
// single trie's whatever the range count (tests/ftv_parallel_filter_test.cpp
// holds this across randomized collections against a trie-free census).
// Verification can fan candidate components out across `num_threads`
// workers (the paper's Grapes/1 vs Grapes/4).

#ifndef PSI_GRAPES_GRAPES_HPP_
#define PSI_GRAPES_GRAPES_HPP_

#include <cstdint>
#include <memory>
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
  /// Parallelism of the index build and of candidate verification
  /// (Grapes/1, Grapes/4 in the paper): the build uses at least this many
  /// graph-id ranges (capped at the collection size), and verification
  /// fans components out across this many threads.
  uint32_t num_threads = 1;
  /// Graph-id ranges of the build, each with its own trie: 1 (default)
  /// keeps the paper-faithful single trie; 0 means one per pool worker;
  /// N > 1 is explicit. Build uses the larger of this and `num_threads`.
  uint32_t filter_shards = 1;
  /// Pool backing a multi-range build; nullptr = the process-wide
  /// Executor::Shared(). Ignored when the index has a single range.
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

  /// Indexes the dataset: enumerates paths into one trie per graph-id
  /// range (the ranges built in parallel on the executor), and caches
  /// each graph's connected components as standalone graphs for the
  /// verification stage.
  Status Build(const GraphDataset& dataset);

  /// Filter stage: graphs (and their components) whose path counts cover
  /// the query's, in ascending graph id. Sound: never drops a true
  /// answer. Serial on the calling thread: it walks the range tries in
  /// order. Each call is counted in filter_stats(); before Build it
  /// returns nothing and counts nothing. Thread-safe after Build.
  std::vector<GrapesCandidate> Filter(const Graph& query) const;

  /// Forwards to Filter; `deadline` is ignored. Kept only because
  /// psibench's traced FTV path (psibench/src/harness.cpp) still calls it.
  std::vector<GrapesCandidate> FilterSharded(
      const Graph& query, Deadline /*deadline*/ = Deadline()) const {
    return Filter(query);
  }

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
  /// Number of graph-id ranges, each with its own trie: 1 on a
  /// single-range index, 0 before Build or over an empty collection.
  size_t num_filter_shards() const { return shard_tries_.size(); }
  /// Counters of the filter stage (ftv/filter_shards.hpp); surface them
  /// with FilterStageStats::AddTo next to Executor::gauges().
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
