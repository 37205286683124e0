// Path-feature machinery shared by the FTV methods (paper §3.1.1).
//
// Both Grapes and GGSX index the simplest form of features — label paths up
// to a maximum length, enumerated by DFS from every vertex. Grapes stores
// them in a trie *with location information*; GGSX stores the same
// features in a suffix-tree-like structure without locations. Here one
// PathTrie serves both. Each trie node holds one flat posting array,
// appended in ascending graph id: per stored graph, the path's occurrence
// count and — for Grapes — the sorted distinct connected components that
// hold an occurrence's start vertex. The component ids are all the filter
// ever needed from a location, so no vertex is stored.
//
// Filtering is count-based and sound: if query q embeds in graph g, every
// occurrence of a label path in q maps injectively to an occurrence in g,
// so count_g(p) >= count_q(p) must hold for every query path p.
//
// A path is enumerated once per direction, so every path with an edge is
// found twice: as label sequence p and as its reverse rev(p). Reversal maps
// the directed occurrences of p one to one onto those of rev(p), and an
// occurrence and its reverse lie in the same connected component, so p and
// rev(p) have equal counts and equal component lists in every graph (and in
// every query). The trie therefore records each path in one orientation
// only, the canonical one (IsCanonicalPath: the sequence sorts no later than
// its reverse), and the filters test only canonical query paths: the
// dropped conditions repeat the kept ones, so the candidate sets and their
// component lists are those of the two-orientation index.

#ifndef PSI_FTV_PATH_INDEX_HPP_
#define PSI_FTV_PATH_INDEX_HPP_

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "core/graph.hpp"
#include "core/status.hpp"

namespace psi {

/// True when `labels` sorts no later than its reverse: the orientation in
/// which the trie records a label path and the filters look it up. Every
/// 0-edge path and every palindrome is canonical.
bool IsCanonicalPath(std::span<const LabelId> labels);

/// Visits every simple path of 0..max_edges edges from every start vertex.
/// The visitor receives the path as a vertex sequence (front = start).
/// Paths are emitted in DFS order with neighbours explored ascending, so a
/// fixed graph yields a deterministic emission order.
using PathVisitor = std::function<void(std::span<const VertexId>)>;
void EnumeratePaths(const Graph& g, uint32_t max_edges,
                    const PathVisitor& visitor);

/// Occurrence statistics of one label path in one stored graph.
struct PathPosting {
  uint32_t graph_id = 0;
  uint32_t count = 0;
  /// [comp_begin, comp_end) indexes the owning PostingList's `components`;
  /// empty when the trie keeps no components.
  uint32_t comp_begin = 0;
  uint32_t comp_end = 0;
};

/// Every stored graph's postings for one label path.
struct PostingList {
  /// Ascending by graph id, one per graph holding the path.
  std::vector<PathPosting> postings;
  /// The postings' component ids, back to back in posting order.
  std::vector<uint32_t> components;

  std::span<const uint32_t> ComponentsOf(const PathPosting& p) const {
    return std::span<const uint32_t>(components)
        .subspan(p.comp_begin, p.comp_end - p.comp_begin);
  }
};

/// Trie over label sequences with per-graph postings.
class PathTrie {
 public:
  explicit PathTrie(bool with_components)
      : with_components_(with_components) {}

  /// Indexes every path of `g` (id `graph_id`) up to `max_edges`: one DFS
  /// per start vertex carries the trie node down the path and appends one
  /// posting per canonical node it touches. A reversed (non-canonical)
  /// sequence still gets its node, since longer paths descend through it,
  /// but never a posting. Graph ids must be added in ascending order, each
  /// at most once.
  void AddGraph(uint32_t graph_id, const Graph& g, uint32_t max_edges);

  /// Postings for an exact label sequence; nullptr when never seen, an
  /// empty list when seen only in its reversed orientation. The pointer is
  /// valid until the next AddGraph.
  const PostingList* Find(std::span<const LabelId> labels) const;

  /// Postings over every node, i.e. the index's size in (path, graph)
  /// pairs.
  size_t num_postings() const;

 private:
  struct Node {
    /// Sorted by label for binary search.
    std::vector<std::pair<LabelId, uint32_t>> children;
    PostingList list;
  };

  uint32_t ChildOrCreate(uint32_t node, LabelId l);
  int32_t FindChild(uint32_t node, LabelId l) const;
  /// Counts one occurrence at `node` for graph `graph_id`, whose start
  /// vertex lies in `component`.
  void Touch(uint32_t node, uint32_t graph_id, uint32_t component);

  bool with_components_;
  std::vector<Node> nodes_ = std::vector<Node>(1);  // nodes_[0] = root
};

/// Enumerates the query's label paths, in both orientations, and their
/// occurrence counts, ascending by label sequence.
struct QueryPath {
  std::vector<LabelId> labels;
  uint32_t count = 0;
};
std::vector<QueryPath> CollectQueryPaths(const Graph& query,
                                         uint32_t max_edges);

/// CollectQueryPaths without the non-canonical paths: the "query index"
/// the filters join against the dataset trie, one condition per path.
std::vector<QueryPath> CanonicalQueryPaths(const Graph& query,
                                           uint32_t max_edges);

}  // namespace psi

#endif  // PSI_FTV_PATH_INDEX_HPP_
