#include "quicksi/quicksi.hpp"

#include <utility>

#include "match/search.hpp"

namespace psi {

namespace {

// Hash key over {endpoint labels} x edge label for the edge-frequency
// statistics ("inner support" of edges).
uint64_t EdgeKey(LabelId a, LabelId b, LabelId edge_label) {
  if (a > b) std::swap(a, b);
  uint64_t h = (static_cast<uint64_t>(a) << 32) | b;
  h ^= 0x9e3779b97f4a7c15ULL * (static_cast<uint64_t>(edge_label) + 1);
  return h;
}

// Depth-first execution of a QI-sequence on the shared search skeleton
// (match/search.hpp).
class QsiSearch : public BacktrackSearch<QsiSearch> {
 public:
  QsiSearch(const Graph& q, const Graph& g,
            const std::vector<QsiEntry>& seq, const MatchOptions& opts,
            const CandidateIndex* index)
      : BacktrackSearch(q, g, opts, index),
        seq_(seq),
        via_(q.num_vertices()) {}

  bool Prepare() const { return true; }

  VertexId Next(uint32_t depth) const { return seq_[depth].vertex; }

  // Tree children draw candidates from the parent image's adjacency
  // (edge labels ride along in the parallel span); roots scan the label
  // index. With the candidate index, a child enumerates only the parent
  // image's correctly-labelled slice — the label check in Feasible would
  // have rejected the rest one by one — in the slice's (degree, id)
  // order; without it, plain ascending id. Later roots of a disconnected
  // forest enumerate fully: only depth 0 is split.
  std::span<const VertexId> Source(uint32_t depth, VertexId u) {
    const QsiEntry& e = seq_[depth];
    via_[depth] = {};
    if (e.parent == kInvalidVertex) return g_.VerticesWithLabel(q_.label(u));
    const VertexId parent_img = map_[e.parent];
    if (index_ == nullptr) {
      via_[depth] = g_.edge_labels(parent_img);
      return g_.neighbors(parent_img);
    }
    const CandidateIndex::LabelSlice slice =
        index_->Slice(parent_img, q_.label(u));
    via_[depth] = slice.edge_labels;
    stats_.slice_candidates += slice.size();
    return slice.vertices;
  }

  // A multiway survivor has its label, via label and back edges settled
  // by the intersection; only injectivity remains.
  bool Admit(uint32_t depth, VertexId u, VertexId v, size_t i, bool mw) {
    if (!NlfAdmits(u, v)) return false;
    ++stats_.candidates_tried;
    if (mw) return !used_[v];
    const QsiEntry& e = seq_[depth];
    const LabelId via =
        via_[depth].empty() ? e.parent_edge_label : via_[depth][i];
    return Feasible(e, v, via);
  }

  // A tree child with back edges has >= 2 matched backward neighbours;
  // the parent leads the intersection inputs, then the back edges.
  void MultiwayInputs(uint32_t depth, VertexId /*u*/,
                      std::vector<MultiwayScratch::Input>& inputs) const {
    const QsiEntry& e = seq_[depth];
    if (e.parent == kInvalidVertex) return;
    inputs.push_back({map_[e.parent], e.parent_edge_label});
    for (size_t i = 0; i < e.back_edges.size(); ++i) {
      inputs.push_back({map_[e.back_edges[i]], e.back_edge_labels[i]});
    }
  }

 private:
  // Label + parent-adjacency + back-edge checks only — faithful to the
  // original QuickSI, which carries no degree-based pruning (its fragility
  // on bad orders is exactly what the paper's Fig 2/Table 3 expose; the
  // candidate index's NLF prefilter in Admit is an answer-preserving
  // kernel accelerator on top, PSI_MATCH_INDEX=0 restores the original).
  bool Feasible(const QsiEntry& e, VertexId gv, LabelId via_edge_label) {
    if (used_[gv] || g_.label(gv) != q_.label(e.vertex)) return false;
    if (e.parent != kInvalidVertex &&
        via_edge_label != e.parent_edge_label) {
      return false;
    }
    for (size_t i = 0; i < e.back_edges.size(); ++i) {
      if (!CandidateIndex::CheckEdge(index_, g_, gv, map_[e.back_edges[i]],
                                     e.back_edge_labels[i], stats_)) {
        return false;
      }
    }
    return true;
  }

  const std::vector<QsiEntry>& seq_;
  // Edge labels parallel to each depth's source (empty for roots).
  std::vector<std::span<const LabelId>> via_;
};

}  // namespace

Status QuickSiMatcher::Prepare(const Graph& data) {
  data_ = &data;
  data.EnsureLabelIndex();
  PrepareCandidateIndex(data);
  label_freq_.assign(data.LabelUniverseUpperBound(), 0);
  for (VertexId v = 0; v < data.num_vertices(); ++v) {
    ++label_freq_[data.label(v)];
  }
  edge_label_freq_.clear();
  for (VertexId v = 0; v < data.num_vertices(); ++v) {
    auto adj = data.neighbors(v);
    auto elabels = data.edge_labels(v);
    for (size_t i = 0; i < adj.size(); ++i) {
      if (v < adj[i]) {
        ++edge_label_freq_[EdgeKey(data.label(v), data.label(adj[i]),
                                   elabels[i])];
      }
    }
  }
  return Status::OK();
}

uint64_t QuickSiMatcher::VertexWeight(LabelId l) const {
  return l < label_freq_.size() ? label_freq_[l] : 0;
}

uint64_t QuickSiMatcher::EdgeWeight(LabelId a, LabelId b,
                                    LabelId edge_label) const {
  auto it = edge_label_freq_.find(EdgeKey(a, b, edge_label));
  return it == edge_label_freq_.end() ? 0 : it->second;
}

std::vector<QsiEntry> QuickSiMatcher::CompileSequence(
    const Graph& query) const {
  const uint32_t n = query.num_vertices();
  std::vector<QsiEntry> seq;
  if (n == 0) return seq;
  seq.reserve(n);
  std::vector<uint8_t> in_tree(n, 0);
  uint32_t placed = 0;

  // Counts a candidate's back edges into the tree (excluding the parent):
  // the original prefers insertions that densify the spanning tree.
  auto back_edge_count = [&](VertexId v, VertexId parent) {
    uint32_t c = 0;
    for (VertexId w : query.neighbors(v)) {
      if (in_tree[w] && w != parent) ++c;
    }
    return c;
  };

  auto add_root = [&]() {
    // Rarest label first; ties by smaller id.
    VertexId best = kInvalidVertex;
    for (VertexId v = 0; v < n; ++v) {
      if (in_tree[v]) continue;
      if (best == kInvalidVertex ||
          VertexWeight(query.label(v)) < VertexWeight(query.label(best))) {
        best = v;
      }
    }
    QsiEntry e;
    e.vertex = best;
    seq.push_back(e);
    in_tree[best] = 1;
    ++placed;
  };

  add_root();
  while (placed < n) {
    // Prim step: cheapest frontier edge; ties prefer more back edges, then
    // smaller child id, then smaller parent id.
    VertexId best_child = kInvalidVertex, best_parent = kInvalidVertex;
    uint64_t best_w = 0;
    uint32_t best_back = 0;
    for (VertexId u = 0; u < n; ++u) {
      if (!in_tree[u]) continue;
      auto uadj = query.neighbors(u);
      auto uel = query.edge_labels(u);
      for (size_t ei = 0; ei < uadj.size(); ++ei) {
        const VertexId v = uadj[ei];
        if (in_tree[v]) continue;
        const uint64_t w =
            EdgeWeight(query.label(u), query.label(v), uel[ei]);
        const uint32_t back = back_edge_count(v, u);
        bool better = false;
        if (best_child == kInvalidVertex) {
          better = true;
        } else if (w != best_w) {
          better = w < best_w;
        } else if (back != best_back) {
          better = back > best_back;
        } else if (v != best_child) {
          better = v < best_child;
        } else {
          better = u < best_parent;
        }
        if (better) {
          best_child = v;
          best_parent = u;
          best_w = w;
          best_back = back;
        }
      }
    }
    if (best_child == kInvalidVertex) {
      // Disconnected query: open the next tree in the forest.
      add_root();
      continue;
    }
    QsiEntry e;
    e.vertex = best_child;
    e.parent = best_parent;
    e.parent_edge_label = query.EdgeLabel(best_child, best_parent);
    {
      auto adj = query.neighbors(best_child);
      auto elabels = query.edge_labels(best_child);
      for (size_t i = 0; i < adj.size(); ++i) {
        if (in_tree[adj[i]] && adj[i] != best_parent) {
          e.back_edges.push_back(adj[i]);
          e.back_edge_labels.push_back(elabels[i]);
        }
      }
    }
    seq.push_back(e);
    in_tree[best_child] = 1;
    ++placed;
  }
  return seq;
}

MatchResult QuickSiMatcher::Match(const Graph& query,
                                  const MatchOptions& opts) const {
  const auto seq = CompileSequence(query);
  MatchResult r =
      QsiSearch(query, *data_, seq, opts, candidate_index()).Run();
  NoteMatch(opts, r.stats);
  return r;
}

}  // namespace psi
