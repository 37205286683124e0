#include "vf2/vf2.hpp"

#include <vector>

#include "match/search.hpp"

namespace psi {

namespace {

// VF2 on the shared search skeleton (match/search.hpp). `in_q_`/`in_g_`
// hold the depth+1 at which a vertex entered the terminal set (0 = never),
// enabling O(1) backtracking.
class Vf2Search : public BacktrackSearch<Vf2Search> {
 public:
  Vf2Search(const Graph& q, const Graph& g, const MatchOptions& opts,
            const CandidateIndex* index)
      : BacktrackSearch(q, g, opts, index),
        in_q_(q.num_vertices(), 0),
        in_g_(g.num_vertices(), 0) {}

  // Cheap global reject: not enough vertices of some label in g.
  bool Prepare() const {
    if (q_.num_vertices() > g_.num_vertices()) return false;
    if (q_.num_edges() > g_.num_edges()) return false;
    for (VertexId qv = 0; qv < q_.num_vertices(); ++qv) {
      if (g_.VerticesWithLabel(q_.label(qv)).empty()) return false;
    }
    return true;
  }

  // Chooses the next query vertex: smallest-ID unmatched vertex in the
  // terminal set; if the terminal set is empty (start / disconnected query
  // part), smallest-ID unmatched vertex overall.
  VertexId Next(uint32_t /*depth*/) const {
    VertexId fallback = kInvalidVertex;
    for (VertexId qv = 0; qv < q_.num_vertices(); ++qv) {
      if (map_[qv] != kInvalidVertex) continue;
      if (in_q_[qv] != 0) return qv;
      if (fallback == kInvalidVertex) fallback = qv;
    }
    return fallback;
  }

  // Candidate enumeration in ascending data-vertex id (slice-internal
  // (degree, id) order under the index). If qv has a matched neighbour,
  // its image's adjacency is the tightest candidate source (rule 1
  // pre-applied); otherwise fall back to the label index. With the
  // candidate index the anchor's *label slice* replaces its full
  // adjacency, and the anchor itself is chosen by the size of that
  // label-restricted slice, not raw degree (PickAnchorImage).
  std::span<const VertexId> Source(uint32_t /*depth*/, VertexId qv) {
    return AnchoredSource(qv, g_.VerticesWithLabel(q_.label(qv)));
  }

  // A multiway survivor already satisfies the label and rule 1 (it is a
  // label-slice member adjacent to every matched neighbour through the
  // required edge labels), so only the lookahead rules remain.
  bool Admit(uint32_t /*depth*/, VertexId qv, VertexId gv, size_t /*i*/,
             bool mw) {
    if (used_[gv]) return false;
    if (!NlfAdmits(qv, gv)) return false;
    ++stats_.candidates_tried;
    if (mw) return FeasibleLookahead(qv, gv);
    // The three pruning rules of §3.1.1. Rule 1 — consistency: every
    // matched neighbour of qv must map to a neighbour of gv through an
    // equally-labelled edge.
    return q_.label(qv) == g_.label(gv) && BackEdgesHold(qv, gv) &&
           FeasibleLookahead(qv, gv);
  }

  void Assign(uint32_t depth, VertexId qv, VertexId gv) {
    BacktrackSearch::Assign(depth, qv, gv);
    if (in_q_[qv] == 0) in_q_[qv] = depth + 1;
    if (in_g_[gv] == 0) in_g_[gv] = depth + 1;
    for (VertexId qw : q_.neighbors(qv)) {
      if (in_q_[qw] == 0) in_q_[qw] = depth + 1;
    }
    for (VertexId gw : g_.neighbors(gv)) {
      if (in_g_[gw] == 0) in_g_[gw] = depth + 1;
    }
  }

  void Unassign(uint32_t depth, VertexId qv, VertexId gv) {
    for (VertexId qw : q_.neighbors(qv)) {
      if (in_q_[qw] == depth + 1) in_q_[qw] = 0;
    }
    for (VertexId gw : g_.neighbors(gv)) {
      if (in_g_[gw] == depth + 1) in_g_[gw] = 0;
    }
    if (in_q_[qv] == depth + 1) in_q_[qv] = 0;
    if (in_g_[gv] == depth + 1) in_g_[gv] = 0;
    BacktrackSearch::Unassign(depth, qv, gv);
  }

 private:
  // Rules 2 & 3 — lookahead: count qv's unmatched neighbours inside and
  // outside the terminal set; gv must offer at least as many of each.
  bool FeasibleLookahead(VertexId qv, VertexId gv) const {
    uint32_t q_term = 0, q_new = 0;
    for (VertexId qw : q_.neighbors(qv)) {
      if (map_[qw] != kInvalidVertex) continue;
      in_q_[qw] != 0 ? ++q_term : ++q_new;
    }
    uint32_t g_term = 0, g_new = 0;
    for (VertexId gw : g_.neighbors(gv)) {
      if (used_[gw]) continue;
      in_g_[gw] != 0 ? ++g_term : ++g_new;
    }
    // A terminal data vertex can also serve a "new" query neighbour, hence
    // the combined bound as the third rule.
    return q_term <= g_term && (q_term + q_new) <= (g_term + g_new);
  }

  // Depth+1 at which the vertex joined the terminal set; 0 = not a member.
  std::vector<uint32_t> in_q_;
  std::vector<uint32_t> in_g_;
};

}  // namespace

MatchResult Vf2Match(const Graph& query, const Graph& data,
                     const MatchOptions& opts) {
  return Vf2Match(query, data, opts, nullptr);
}

MatchResult Vf2Match(const Graph& query, const Graph& data,
                     const MatchOptions& opts,
                     const CandidateIndex* index) {
  return Vf2Search(query, data, opts, index).Run();
}

Status Vf2Matcher::Prepare(const Graph& data) {
  data_ = &data;
  data.EnsureLabelIndex();
  PrepareCandidateIndex(data);
  return Status::OK();
}

MatchResult Vf2Matcher::Match(const Graph& query,
                              const MatchOptions& opts) const {
  MatchResult r = Vf2Match(query, *data_, opts, candidate_index());
  NoteMatch(opts, r.stats);
  return r;
}

}  // namespace psi
