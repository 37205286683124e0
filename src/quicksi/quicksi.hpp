// QuickSI (Shang, Zhang, Lin, Yu — PVLDB 2008), as described in paper
// §3.1.2: vertices with infrequent labels and infrequent adjacent edge
// labels get priority. The per-graph index precomputes label and
// edge-label-pair frequencies ("inner support"); each query is compiled
// into a rooted minimum spanning tree whose insertion order — the
// QI-sequence — fixes the matching order. Ties during MST construction
// prefer edges that close more back-edges (densifying the tree, as in the
// original) and finally fall back to vertex ids, which is what makes
// QuickSI sensitive to query rewritings.

#ifndef PSI_QUICKSI_QUICKSI_HPP_
#define PSI_QUICKSI_QUICKSI_HPP_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "match/matcher.hpp"

namespace psi {

/// One entry of the QI-sequence: which query vertex to place next, through
/// which tree edge, and which back-edges must hold at placement time.
struct QsiEntry {
  VertexId vertex = kInvalidVertex;
  /// Tree parent (already placed); kInvalidVertex for (forest) roots.
  VertexId parent = kInvalidVertex;
  /// Label required on the (vertex, parent) edge.
  LabelId parent_edge_label = 0;
  /// Already-placed non-parent neighbours (back edges to verify), paired
  /// with the edge labels those back edges must carry.
  std::vector<VertexId> back_edges;
  std::vector<LabelId> back_edge_labels;
};

class QuickSiMatcher : public Matcher {
 public:
  std::string_view name() const override { return "QSI"; }
  Status Prepare(const Graph& data) override;
  MatchResult Match(const Graph& query,
                    const MatchOptions& opts) const override;
  const Graph* data() const override { return data_; }

  /// Exposed for tests: the QI-sequence compiled for `query` against the
  /// prepared graph's statistics.
  std::vector<QsiEntry> CompileSequence(const Graph& query) const;

 private:
  uint64_t VertexWeight(LabelId l) const;
  uint64_t EdgeWeight(LabelId a, LabelId b, LabelId edge_label) const;

  const Graph* data_ = nullptr;
  std::vector<uint64_t> label_freq_;
  /// Frequency of edges keyed by unordered endpoint-label pair.
  std::unordered_map<uint64_t, uint64_t> edge_label_freq_;
};

}  // namespace psi

#endif  // PSI_QUICKSI_QUICKSI_HPP_
