// sPath (Zhao, Han — PVLDB 2010), as described in paper §3.1.2.
//
// Index phase: every data vertex keeps a *distance-wise* neighbourhood
// signature — for each label, the cumulative count of vertices carrying it
// within shortest-path distance 1..radius (paper setup: radius 4). This is
// the decomposed storage the original uses instead of materialising
// shortest paths. The build is a bit-parallel multi-source BFS (MS-BFS,
// Then et al., PVLDB 2014) over batches of 64 consecutive source ids: one
// pass over a level's frontier advances 64 sources at once. Batches are
// independent, so the calling thread and helpers on the matcher's executor
// (set_executor; PsiEngine hands over its pool) claim them from one
// cursor, and the signatures are identical whoever built which batch.
//
// Query phase:
//   1. candidates per query vertex by signature dominance — an embedding
//      can only shrink shortest-path distances, so for every label and
//      every d the query's cumulative count must be covered by the data
//      vertex's count at the same d;
//   2. the query is decomposed into shortest paths (max length 4); a
//      greedy cover picks paths with the best estimated selectivity per
//      newly covered edge (ties resolved by generation order, which is
//      vertex-id driven — the rewriting hook);
//   3. the paths are instantiated in cover order with edge-by-edge
//      verification against the partial embedding.

#ifndef PSI_SPATH_SPATH_HPP_
#define PSI_SPATH_SPATH_HPP_

#include <array>
#include <cstdint>
#include <vector>

#include "match/matcher.hpp"

namespace psi {

struct SPathOptions {
  /// Neighbourhood signature radius (paper §3.2: 4).
  uint32_t radius = 4;
  /// Maximum decomposed path length in edges (paper §3.2: 4).
  uint32_t max_path_length = 4;
};

class SPathMatcher : public Matcher {
 public:
  static constexpr uint32_t kMaxRadius = 4;

  /// Cumulative per-distance label counts: cum[d-1] = #vertices with
  /// `label` at shortest distance <= d.
  struct NsEntry {
    LabelId label;
    std::array<uint32_t, kMaxRadius> cum;
  };

  SPathMatcher() = default;
  explicit SPathMatcher(const SPathOptions& options) : options_(options) {}

  std::string_view name() const override { return "SPA"; }
  Status Prepare(const Graph& data) override;
  MatchResult Match(const Graph& query,
                    const MatchOptions& opts) const override;
  const Graph* data() const override { return data_; }

  /// Exposed for tests: the signature of data vertex `v` (sorted by label).
  const std::vector<NsEntry>& signature(VertexId v) const {
    return ns_[v];
  }

  /// Exposed for tests: the shortest-path cover chosen for `query`
  /// (sequences of query vertex ids).
  std::vector<std::vector<VertexId>> DecomposeQuery(
      const Graph& query) const;

 private:
  SPathOptions options_;
  const Graph* data_ = nullptr;
  std::vector<std::vector<NsEntry>> ns_;
};

/// Builds the distance-wise signatures for an arbitrary graph — shared by
/// the matcher (data side), the per-query filter, and tests. Per vertex:
/// one entry per label within `radius` (clamped to kMaxRadius), ascending
/// by label, cumulative over d = 1..kMaxRadius and flat beyond `radius`;
/// the vertex itself is never counted. The output depends on the graph
/// and radius only: the same under any executor, pool width, queue
/// capacity or fault schedule. A graph of at most 64 vertices (every
/// query) builds on the calling thread and never touches `executor`;
/// a larger one runs on the calling thread plus helpers on `executor`
/// (nullptr = Executor::Shared()).
std::vector<std::vector<SPathMatcher::NsEntry>> BuildDistanceSignatures(
    const Graph& g, uint32_t radius, Executor* executor = nullptr);

}  // namespace psi

#endif  // PSI_SPATH_SPATH_HPP_
