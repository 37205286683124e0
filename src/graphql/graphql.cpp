#include "graphql/graphql.hpp"

#include <algorithm>

#include "match/scratch.hpp"

namespace psi {

namespace {

// Sorted-multiset containment: is `a` contained in `b`?
bool MultisetContained(const std::vector<LabelId>& a,
                       const std::vector<LabelId>& b) {
  size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] == b[j]) {
      ++i;
      ++j;
    } else if (a[i] > b[j]) {
      ++j;
    } else {
      return false;
    }
  }
  return i == a.size();
}

// Per-query search state: the three pruning stages build the candidate
// lists and the order in the leased CandidateScratch (epoch-stamped,
// reused across calls on one thread — FTV matches one query against many
// candidates and NFV serves thousands of queries per prepared matcher);
// the shared candidate-list layer (match/scratch.hpp) runs the join.
class GqlSearch : public CandidateListSearch<GqlSearch> {
 public:
  GqlSearch(const Graph& q, const Graph& g,
            const std::vector<std::vector<LabelId>>& signatures,
            const GraphQlOptions& options, const MatchOptions& opts,
            const CandidateIndex* index, CandidateScratch& scr)
      : CandidateListSearch(q, g, opts, index, scr),
        signatures_(signatures),
        options_(options) {}

  bool Prepare() {
    // Stage 1: every list, by label and signature (multiset) containment.
    const uint32_t nq = q_.num_vertices();
    qsig_.assign(nq, {});
    for (VertexId u = 0; u < nq; ++u) {
      for (VertexId w : q_.neighbors(u)) qsig_[u].push_back(q_.label(w));
      std::sort(qsig_[u].begin(), qsig_[u].end());
      if (!BuildList(u)) return false;
    }
    if (!Refine() || guard_.interrupted()) return false;
    BuildOrder();
    return true;
  }

  // Multiset containment implies NLF fingerprint containment, so the
  // prefilter ahead of the O(d) walk only skips work.
  bool Keep(VertexId u, VertexId v) const {
    return MultisetContained(qsig_[u], signatures_[v]);
  }

  // Every list is complete once refined, so the join reads the stamp.
  bool Candidate(VertexId u, VertexId v) const { return CandBit(u, v); }

 private:
  // Bipartite semi-perfect matching test for candidate pair (u, v):
  // every query neighbour of u needs a distinct data neighbour of v that is
  // still a candidate for it (Kuhn's augmenting paths; degrees are small).
  bool NeighborsMatchable(VertexId u, VertexId v) {
    auto qn = q_.neighbors(u);
    auto gn = g_.neighbors(v);
    if (qn.size() > gn.size()) return false;
    // match_right[j] = index into qn matched to gn[j], or -1.
    scr_.match_right.assign(gn.size(), -1);
    for (size_t i = 0; i < qn.size(); ++i) {
      scr_.visited.assign(gn.size(), 0);
      if (!Augment(qn, gn, static_cast<int>(i))) return false;
    }
    return true;
  }

  bool Augment(std::span<const VertexId> qn, std::span<const VertexId> gn,
               int i) {
    for (size_t j = 0; j < gn.size(); ++j) {
      if (scr_.visited[j] || !CandBit(qn[i], gn[j])) continue;
      scr_.visited[j] = 1;
      if (scr_.match_right[j] < 0 || Augment(qn, gn, scr_.match_right[j])) {
        scr_.match_right[j] = i;
        return true;
      }
    }
    return false;
  }

  // Stage 2: iterative pseudo-sub-iso refinement, up to refine_level rounds
  // or until fixpoint. Returns false if a candidate set empties.
  bool Refine() {
    for (uint32_t round = 0; round < options_.refine_level; ++round) {
      bool changed = false;
      for (VertexId u = 0; u < q_.num_vertices(); ++u) {
        auto& list = scr_.cand_list[u];
        size_t keep = 0;
        for (size_t k = 0; k < list.size(); ++k) {
          if (guard_.Check() != Interrupt::kNone) return false;
          const VertexId v = list[k];
          if (NeighborsMatchable(u, v)) {
            list[keep++] = v;
          } else {
            ClearCand(u, v);
            changed = true;
          }
        }
        list.resize(keep);
        if (list.empty()) return false;
      }
      if (!changed) break;
    }
    return true;
  }

  // Stage 3: left-deep order — start at the smallest candidate list, then
  // repeatedly take the connected vertex with the cheapest estimated join
  // (candidate cardinality), breaking ties by vertex id.
  void BuildOrder() {
    const uint32_t nq = q_.num_vertices();
    scr_.order.clear();
    scr_.order.reserve(nq);
    std::vector<uint8_t> chosen(nq, 0);
    auto pick_best = [&](bool need_connected) {
      VertexId best = kInvalidVertex;
      for (VertexId u = 0; u < nq; ++u) {
        if (chosen[u]) continue;
        if (need_connected) {
          bool connected = false;
          for (VertexId w : q_.neighbors(u)) {
            if (chosen[w]) {
              connected = true;
              break;
            }
          }
          if (!connected) continue;
        }
        if (best == kInvalidVertex ||
            scr_.cand_list[u].size() < scr_.cand_list[best].size()) {
          best = u;
        }
      }
      return best;
    };
    while (scr_.order.size() < nq) {
      VertexId next = pick_best(/*need_connected=*/!scr_.order.empty());
      if (next == kInvalidVertex) next = pick_best(false);  // new component
      chosen[next] = 1;
      scr_.order.push_back(next);
    }
  }

  const std::vector<std::vector<LabelId>>& signatures_;
  const GraphQlOptions& options_;
  std::vector<std::vector<LabelId>> qsig_;  // sorted neighbour labels
};

}  // namespace

Status GraphQlMatcher::Prepare(const Graph& data) {
  data_ = &data;
  data.EnsureLabelIndex();
  PrepareCandidateIndex(data);
  signatures_.assign(data.num_vertices(), {});
  for (VertexId v = 0; v < data.num_vertices(); ++v) {
    auto& sig = signatures_[v];
    sig.reserve(data.degree(v));
    for (VertexId w : data.neighbors(v)) sig.push_back(data.label(w));
    std::sort(sig.begin(), sig.end());
  }
  return Status::OK();
}

MatchResult GraphQlMatcher::Match(const Graph& query,
                                  const MatchOptions& opts) const {
  ScratchLease scratch;
  MatchResult r = GqlSearch(query, *data_, signatures_, options_, opts,
                            candidate_index(), *scratch)
                      .Run();
  NoteMatch(opts, r.stats);
  return r;
}

}  // namespace psi
