#include "core/graph.hpp"

#include <algorithm>
#include <numeric>

namespace psi {

bool Graph::HasEdge(VertexId u, VertexId v) const {
  if (u >= num_vertices_ || v >= num_vertices_) return false;
  // Search the shorter adjacency list.
  if (degree(u) > degree(v)) std::swap(u, v);
  auto adj = neighbors(u);
  return std::binary_search(adj.begin(), adj.end(), v);
}

LabelId Graph::EdgeLabel(VertexId u, VertexId v) const {
  if (u >= num_vertices_ || v >= num_vertices_) return kInvalidEdgeLabel;
  if (degree(u) > degree(v)) std::swap(u, v);
  auto adj = neighbors(u);
  auto it = std::lower_bound(adj.begin(), adj.end(), v);
  if (it == adj.end() || *it != v) return kInvalidEdgeLabel;
  return edge_labels_[offsets_[u] + (it - adj.begin())];
}

bool Graph::HasEdgeWithLabel(VertexId u, VertexId v,
                             LabelId edge_label) const {
  if (!has_edge_labels_) return HasEdge(u, v) && edge_label == 0;
  return EdgeLabel(u, v) == edge_label;
}

uint32_t Graph::NumDistinctLabels() const {
  std::vector<LabelId> sorted = labels_;
  std::sort(sorted.begin(), sorted.end());
  return static_cast<uint32_t>(
      std::unique(sorted.begin(), sorted.end()) - sorted.begin());
}

LabelId Graph::LabelUniverseUpperBound() const {
  if (labels_.empty()) return 0;
  return *std::max_element(labels_.begin(), labels_.end()) + 1;
}

double Graph::Density() const {
  if (num_vertices_ < 2) return 0.0;
  return 2.0 * static_cast<double>(num_edges()) /
         (static_cast<double>(num_vertices_) * (num_vertices_ - 1));
}

double Graph::AverageDegree() const {
  if (num_vertices_ == 0) return 0.0;
  return 2.0 * static_cast<double>(num_edges()) / num_vertices_;
}

void Graph::EnsureLabelIndex() const {
  if (!label_index_offsets_.empty() || num_vertices_ == 0) return;
  const LabelId universe = LabelUniverseUpperBound();
  label_index_offsets_.assign(universe + 1, 0);
  for (LabelId l : labels_) ++label_index_offsets_[l + 1];
  for (size_t i = 1; i < label_index_offsets_.size(); ++i) {
    label_index_offsets_[i] += label_index_offsets_[i - 1];
  }
  label_index_vertices_.resize(num_vertices_);
  std::vector<uint32_t> cursor(label_index_offsets_.begin(),
                               label_index_offsets_.end() - 1);
  for (VertexId v = 0; v < num_vertices_; ++v) {
    label_index_vertices_[cursor[labels_[v]]++] = v;
  }
}

std::span<const VertexId> Graph::VerticesWithLabel(LabelId l) const {
  EnsureLabelIndex();
  if (label_index_offsets_.empty() || l + 1 >= label_index_offsets_.size()) {
    return {};
  }
  return {label_index_vertices_.data() + label_index_offsets_[l],
          label_index_vertices_.data() + label_index_offsets_[l + 1]};
}

const std::vector<uint32_t>& Graph::ComponentIds() const {
  if (!component_ids_.empty() || num_vertices_ == 0) return component_ids_;
  component_ids_.assign(num_vertices_, static_cast<uint32_t>(-1));
  uint32_t next_component = 0;
  std::vector<VertexId> stack;
  for (VertexId seed = 0; seed < num_vertices_; ++seed) {
    if (component_ids_[seed] != static_cast<uint32_t>(-1)) continue;
    stack.push_back(seed);
    component_ids_[seed] = next_component;
    while (!stack.empty()) {
      VertexId v = stack.back();
      stack.pop_back();
      for (VertexId w : neighbors(v)) {
        if (component_ids_[w] == static_cast<uint32_t>(-1)) {
          component_ids_[w] = next_component;
          stack.push_back(w);
        }
      }
    }
    ++next_component;
  }
  num_components_ = next_component;
  return component_ids_;
}

uint32_t Graph::NumComponents() const {
  ComponentIds();
  return num_components_;
}

bool Graph::IdenticalTo(const Graph& other) const {
  return num_vertices_ == other.num_vertices_ && labels_ == other.labels_ &&
         offsets_ == other.offsets_ && adjacency_ == other.adjacency_ &&
         edge_labels_ == other.edge_labels_;
}

GraphBuilder::GraphBuilder(uint32_t expected_vertices) {
  labels_.reserve(expected_vertices);
  edges_.reserve(static_cast<size_t>(expected_vertices) * 4);
}

VertexId GraphBuilder::AddVertex(LabelId label) {
  labels_.push_back(label);
  return static_cast<VertexId>(labels_.size() - 1);
}

void GraphBuilder::AddEdge(VertexId u, VertexId v, LabelId edge_label) {
  edges_.push_back(PendingEdge{u, v, edge_label});
}

Result<Graph> GraphBuilder::Build(std::string name) {
  const auto n = static_cast<uint32_t>(labels_.size());
  for (const auto& e : edges_) {
    if (e.u >= n || e.v >= n) {
      return Status::InvalidArgument("edge endpoint out of range");
    }
    if (e.u == e.v) {
      return Status::InvalidArgument("self-loop at vertex " +
                                     std::to_string(e.u));
    }
    // EdgeLabel() reports an absent edge with this value, so an edge
    // carrying it would match non-edges.
    if (e.label == Graph::kInvalidEdgeLabel) {
      return Status::InvalidArgument("edge label " + std::to_string(e.label) +
                                     " is reserved for absent edges");
    }
  }
  // Normalize to (min,max) and detect duplicates.
  for (auto& e : edges_) {
    if (e.u > e.v) std::swap(e.u, e.v);
  }
  std::sort(edges_.begin(), edges_.end());
  if (std::adjacent_find(edges_.begin(), edges_.end(),
                         [](const PendingEdge& a, const PendingEdge& b) {
                           return a.u == b.u && a.v == b.v;
                         }) != edges_.end()) {
    return Status::InvalidArgument("duplicate edge");
  }

  Graph g;
  g.num_vertices_ = n;
  g.labels_ = std::move(labels_);
  g.name_ = std::move(name);
  g.offsets_.assign(n + 1, 0);
  for (const auto& e : edges_) {
    ++g.offsets_[e.u + 1];
    ++g.offsets_[e.v + 1];
  }
  for (uint32_t i = 1; i <= n; ++i) g.offsets_[i] += g.offsets_[i - 1];
  g.adjacency_.resize(edges_.size() * 2);
  g.edge_labels_.resize(edges_.size() * 2);
  std::vector<uint32_t> cursor(g.offsets_.begin(), g.offsets_.end() - 1);
  for (const auto& e : edges_) {
    g.edge_labels_[cursor[e.u]] = e.label;
    g.adjacency_[cursor[e.u]++] = e.v;
    g.edge_labels_[cursor[e.v]] = e.label;
    g.adjacency_[cursor[e.v]++] = e.u;
    if (e.label != 0) g.has_edge_labels_ = true;
  }
  // Edges were inserted in sorted order, so each adjacency list is sorted.
  labels_.clear();
  edges_.clear();
  g.EnsureLabelIndex();
  // Components are computed eagerly too: the sharded FTV filter and the
  // parallel runners read them from many pool tasks at once, and a Graph
  // whose caches are all warm is freely shareable across threads.
  g.ComponentIds();
  return g;
}

}  // namespace psi
