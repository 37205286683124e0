// Immutable vertex-labelled undirected graph in CSR form, plus a builder.
//
// This is the substrate shared by every matcher, index and generator in the
// library. Graphs follow Definition 1 of the paper: vertices carry labels;
// the datasets used throughout (PPI, GraphGen, yeast, human, wordnet) are
// vertex-labelled, so edges are unlabelled here. Vertex IDs are dense
// integers [0, n); *the assignment of IDs is semantically meaningful* to the
// matching algorithms (they all break ties by vertex ID), which is exactly
// the property the paper's query rewritings exploit.

#ifndef PSI_CORE_GRAPH_HPP_
#define PSI_CORE_GRAPH_HPP_

#include <cstdint>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "core/status.hpp"

namespace psi {

using VertexId = uint32_t;
using LabelId = uint32_t;

inline constexpr VertexId kInvalidVertex = static_cast<VertexId>(-1);

/// Immutable undirected graph with vertex labels, stored as CSR.
///
/// Neighbour lists are sorted ascending, enabling O(log d) HasEdge and
/// deterministic iteration order. Construct via GraphBuilder.
class Graph {
 public:
  Graph() = default;

  uint32_t num_vertices() const { return num_vertices_; }
  /// Number of undirected edges.
  uint64_t num_edges() const { return adjacency_.size() / 2; }
  const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

  LabelId label(VertexId v) const { return labels_[v]; }
  uint32_t degree(VertexId v) const {
    return offsets_[v + 1] - offsets_[v];
  }
  /// Sorted ascending neighbour list of `v`.
  std::span<const VertexId> neighbors(VertexId v) const {
    return {adjacency_.data() + offsets_[v],
            adjacency_.data() + offsets_[v + 1]};
  }
  /// Edge labels parallel to neighbors(v) (Definition 1 of the paper
  /// labels both vertices and edges; unlabelled datasets carry 0s).
  std::span<const LabelId> edge_labels(VertexId v) const {
    return {edge_labels_.data() + offsets_[v],
            edge_labels_.data() + offsets_[v + 1]};
  }
  /// O(log deg) membership test; (u,v) and (v,u) are equivalent.
  bool HasEdge(VertexId u, VertexId v) const;
  /// Membership + edge-label test in one binary search.
  bool HasEdgeWithLabel(VertexId u, VertexId v, LabelId edge_label) const;
  /// The label of edge (u,v); kInvalidEdgeLabel when absent.
  static constexpr LabelId kInvalidEdgeLabel = static_cast<LabelId>(-1);
  LabelId EdgeLabel(VertexId u, VertexId v) const;
  /// True iff any edge carries a non-zero label.
  bool has_edge_labels() const { return has_edge_labels_; }

  /// Number of distinct labels actually present (not the universe size).
  uint32_t NumDistinctLabels() const;
  /// Largest label id present plus one; 0 for the empty graph.
  LabelId LabelUniverseUpperBound() const;

  /// 2|E| / (n*(n-1)) — the density measure used in the paper's Tables 1-2.
  double Density() const;
  /// 2|E| / n.
  double AverageDegree() const;

  /// All vertices carrying `l`, ascending. Backed by a lazily built index;
  /// cheap after the first call per graph. Thread-safe only after
  /// EnsureLabelIndex() has been called once (builders call it for you).
  std::span<const VertexId> VerticesWithLabel(LabelId l) const;
  /// Builds the label->vertices index eagerly.
  void EnsureLabelIndex() const;

  /// Connected component id per vertex (ids dense from 0). Computed once
  /// — GraphBuilder::Build does it eagerly, like the label index, so
  /// built graphs may share these caches across threads freely (only a
  /// default-constructed Graph computes lazily at first use).
  const std::vector<uint32_t>& ComponentIds() const;
  uint32_t NumComponents() const;

  /// Structural + label equality including vertex numbering (not iso-test).
  bool IdenticalTo(const Graph& other) const;

 private:
  friend class GraphBuilder;

  uint32_t num_vertices_ = 0;
  std::vector<uint32_t> offsets_;     // size n+1
  std::vector<VertexId> adjacency_;   // size 2|E|, sorted per vertex
  std::vector<LabelId> edge_labels_;  // size 2|E|, parallel to adjacency_
  std::vector<LabelId> labels_;       // size n
  bool has_edge_labels_ = false;
  std::string name_;

  // Lazy caches (logically const).
  mutable std::vector<uint32_t> label_index_offsets_;
  mutable std::vector<VertexId> label_index_vertices_;
  mutable std::vector<uint32_t> component_ids_;
  mutable uint32_t num_components_ = 0;
};

/// Accumulates vertices and edges, then emits a validated Graph.
///
/// Self-loops, duplicate edges and edges labelled Graph::kInvalidEdgeLabel
/// are rejected at Build() time with Status::InvalidArgument (Corruption
/// for internal inconsistencies).
class GraphBuilder {
 public:
  GraphBuilder() = default;
  /// Pre-sizes internal buffers for `expected_vertices`.
  explicit GraphBuilder(uint32_t expected_vertices);

  /// Adds a vertex with the given label; returns its id (dense, ascending).
  VertexId AddVertex(LabelId label);
  /// Adds an undirected edge, optionally labelled. Endpoints must already
  /// exist.
  void AddEdge(VertexId u, VertexId v, LabelId edge_label = 0);

  uint32_t num_vertices() const {
    return static_cast<uint32_t>(labels_.size());
  }
  uint64_t num_edges() const { return edges_.size(); }

  /// Validates and produces the CSR graph. The builder is left empty.
  Result<Graph> Build(std::string name = "");

 private:
  struct PendingEdge {
    VertexId u;
    VertexId v;
    LabelId label;
    bool operator<(const PendingEdge& o) const {
      return std::tie(u, v) < std::tie(o.u, o.v);
    }
  };
  std::vector<LabelId> labels_;
  std::vector<PendingEdge> edges_;
};

}  // namespace psi

#endif  // PSI_CORE_GRAPH_HPP_
