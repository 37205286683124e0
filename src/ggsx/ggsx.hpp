// GGSX (Bonnici et al., IAPR PRIB 2010), per paper §3.1.1: like Grapes it
// indexes label paths up to a maximum length (originally in a generalized
// suffix tree), but it keeps *no location information* and is single-
// threaded. Filtering prunes by path presence and occurrence counts only;
// verification runs first-match VF2 against the *whole* candidate graph —
// the two behavioural differences from Grapes that the paper's experiments
// expose (GGSX pays for the missing locations with far larger verification
// search spaces).
//
// The trie (ftv/path_index.hpp) keeps per-graph counts with empty
// component ranges, and the filter is the merge join Grapes runs too
// (ForEachCoveringGraph), without the component step.
//
// Beyond the paper, the index supports the same range-sharded build as
// Grapes (ftv/filter_shards.hpp): `filter_shards != 1` splits the
// collection into per-range tries built concurrently on the shared
// executor, and Filter walks them serially, with candidate sets identical
// to the single trie's.

#ifndef PSI_GGSX_GGSX_HPP_
#define PSI_GGSX_GGSX_HPP_

#include <cstdint>
#include <memory>
#include <vector>

#include "core/dataset.hpp"
#include "core/graph.hpp"
#include "core/status.hpp"
#include "exec/executor.hpp"
#include "ftv/filter_shards.hpp"
#include "ftv/path_index.hpp"
#include "match/matcher.hpp"

namespace psi {

struct GgsxOptions {
  /// Maximum indexed path length in edges ("paths of up to size 4" in the
  /// paper counts vertices, i.e. 3 edges).
  uint32_t max_path_edges = 3;
  /// Graph-id ranges of the build, each with its own trie: 1 (default) is
  /// the original single-trie design; 0 means one per pool worker; N > 1
  /// is explicit. See ftv/filter_shards.hpp.
  uint32_t filter_shards = 1;
  /// Pool backing a multi-range build; nullptr = the process-wide
  /// Executor::Shared(). Ignored when the index has a single range.
  Executor* executor = nullptr;
  /// Candidate-index matching kernel for the verification stage
  /// (match/candidate_index.hpp): -1 (default) resolves from the
  /// environment (PSI_MATCH_INDEX), 0 forces it off, 1 on. When enabled,
  /// Build constructs one immutable CandidateIndex per stored graph;
  /// every whole-graph VF2 verification shares it.
  int candidate_index = -1;
};

class GgsxIndex {
 public:
  GgsxIndex() = default;
  explicit GgsxIndex(const GgsxOptions& options) : options_(options) {}

  /// Indexes the dataset (single-threaded on a single range, as the
  /// original; per-range tries built on the pool otherwise).
  Status Build(const GraphDataset& dataset);

  /// Count-based filtering; sound (no false dismissals). Serial on the
  /// calling thread; ascending graph ids. Each call is counted in
  /// filter_stats(); before Build it returns nothing and counts nothing.
  /// Thread-safe after Build.
  std::vector<uint32_t> Filter(const Graph& query) const;

  /// First-match VF2 against the full stored graph `graph_id`.
  MatchResult VerifyCandidate(const Graph& query, uint32_t graph_id,
                              const MatchOptions& opts) const;

  const GraphDataset* dataset() const { return dataset_; }
  const GgsxOptions& options() const { return options_; }
  /// Number of graph-id ranges, each with its own trie: 1 on a
  /// single-range index, 0 before Build or over an empty collection.
  size_t num_filter_shards() const { return shard_tries_.size(); }
  FilterStageStats& filter_stats() const { return filter_stats_; }
  /// The shared candidate index of stored graph `graph_id`; nullptr when
  /// the matching kernel is disabled for this index.
  const CandidateIndex* graph_index(uint32_t graph_id) const {
    return graph_indexes_.empty() ? nullptr : graph_indexes_[graph_id].get();
  }
  /// Kernel-effort counters over every VerifyCandidate call.
  MatchKernelStats& kernel_stats() const { return kernel_stats_; }

 private:
  GgsxOptions options_;
  std::vector<ShardRange> shard_ranges_;
  std::vector<PathTrie> shard_tries_;
  mutable FilterStageStats filter_stats_;
  mutable MatchKernelStats kernel_stats_;
  const GraphDataset* dataset_ = nullptr;
  /// One index per stored graph; empty when the kernel is disabled.
  std::vector<std::shared_ptr<const CandidateIndex>> graph_indexes_;
};

}  // namespace psi

#endif  // PSI_GGSX_GGSX_HPP_
