#include "match/matcher.hpp"

#include <algorithm>

#include "core/env.hpp"
#include "match/candidate_index.hpp"
#include "metrics/metrics.hpp"

namespace psi {

void MatchKernelStats::AddTo(PoolGauges* g) const {
  g->kernel_matches += matches_.load(std::memory_order_relaxed);
  g->kernel_indexed_matches +=
      indexed_matches_.load(std::memory_order_relaxed);
  g->kernel_candidates_tried +=
      candidates_tried_.load(std::memory_order_relaxed);
  g->kernel_nlf_rejects += nlf_rejects_.load(std::memory_order_relaxed);
  g->kernel_bitset_checks += bitset_checks_.load(std::memory_order_relaxed);
  g->kernel_slice_candidates +=
      slice_candidates_.load(std::memory_order_relaxed);
  g->kernel_multiway_intersections +=
      multiway_intersections_.load(std::memory_order_relaxed);
  g->kernel_intersection_shortcuts +=
      intersection_shortcuts_.load(std::memory_order_relaxed);
  g->kernel_split_matches += split_matches_.load(std::memory_order_relaxed);
  g->kernel_split_tasks += split_tasks_.load(std::memory_order_relaxed);
  g->kernel_split_tasks_inline +=
      split_tasks_inline_.load(std::memory_order_relaxed);
  g->kernel_split_budget_stops +=
      split_budget_stops_.load(std::memory_order_relaxed);
}

void Matcher::PrepareCandidateIndex(const Graph& data) {
  if (candidate_index_injected_) {
    // An explicitly injected index wins — including an injected nullptr
    // (kernel pinned off). Rebuild only if it demonstrably covers a
    // different graph (address or extents mismatch — Covers()).
    if (candidate_index_ != nullptr && !candidate_index_->Covers(data)) {
      candidate_index_ = CandidateIndex::Build(data);
    }
    return;
  }
  candidate_index_ =
      MatchIndexEnabled() ? CandidateIndex::Build(data) : nullptr;
}

bool IsValidEmbedding(const Graph& query, const Graph& data,
                      const Embedding& emb) {
  if (emb.size() != query.num_vertices()) return false;
  // Injectivity.
  std::vector<VertexId> sorted = emb;
  std::sort(sorted.begin(), sorted.end());
  if (std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end()) {
    return false;
  }
  // Labels + range.
  for (VertexId qv = 0; qv < query.num_vertices(); ++qv) {
    if (emb[qv] >= data.num_vertices()) return false;
    if (query.label(qv) != data.label(emb[qv])) return false;
  }
  // Every query edge maps to a data edge with the same edge label
  // (non-induced semantics, Definition 3).
  for (VertexId qv = 0; qv < query.num_vertices(); ++qv) {
    auto adj = query.neighbors(qv);
    auto elabels = query.edge_labels(qv);
    for (size_t i = 0; i < adj.size(); ++i) {
      if (qv < adj[i] &&
          !data.HasEdgeWithLabel(emb[qv], emb[adj[i]], elabels[i])) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace psi
