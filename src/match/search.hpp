// One backtracking skeleton under the four matchers (VF2, QuickSI,
// GraphQL, sPath).
//
// The engines differ only in matching order, candidate source and
// per-candidate check. Everything else about a search lives here once:
//  * multiway (WCOJ) engagement with per-depth scratch;
//  * query NLF fingerprints, the CostGuard and result assembly.
//
// A matcher derives `class S : public BacktrackSearch<S>` (CRTP: hooks
// resolve at compile time, the hot loop makes no virtual or std::function
// call per candidate) and supplies:
//
//   bool Prepare();
//       Per-call setup (candidate lists, matching order, global rejects).
//       false = no embedding exists; the search completes empty.
//   VertexId Next(uint32_t depth);
//       The query vertex placed at `depth`.
//   std::span<const VertexId> Source(uint32_t depth, VertexId u);
//       Candidates for `u` when multiway does not engage.
//   bool Admit(uint32_t depth, VertexId u, VertexId v, size_t i, bool mw);
//       The per-candidate check for candidate `v` at position `i` of the
//       source, counter bumps included. `mw` = the candidate survived a
//       multiway intersection, so every backward edge is already settled.
//
// and may shadow Assign/Unassign (extra per-assignment state) and
// MultiwayInputs (which backward neighbours feed the intersection, in
// which order). The defaults keep `map_` and `used_` and feed every
// matched query neighbour in adjacency order.

#ifndef PSI_MATCH_SEARCH_HPP_
#define PSI_MATCH_SEARCH_HPP_

#include <chrono>
#include <cstdint>
#include <span>
#include <vector>

#include "core/graph.hpp"
#include "core/stop_token.hpp"
#include "match/candidate_index.hpp"
#include "match/intersect.hpp"
#include "match/matcher.hpp"

namespace psi {

template <typename Derived>
class BacktrackSearch {
 public:
  MatchResult Run() {
    const auto start = std::chrono::steady_clock::now();
    MatchResult r;
    if (q_.num_vertices() == 0) {
      // The empty query has exactly one (empty) embedding.
      r.embedding_count = 1;
      r.complete = true;
      if (opts_.sink) opts_.sink(Embedding{});
    } else {
      if (self().Prepare()) Recurse(0);
      r.embedding_count = found_;
      r.complete = !guard_.interrupted();
      r.timed_out = guard_.state() == Interrupt::kDeadline;
      r.cancelled = guard_.state() == Interrupt::kCancelled;
    }
    r.stats = stats_;
    r.elapsed = std::chrono::steady_clock::now() - start;
    return r;
  }

  // ---- Default hooks (a matcher may shadow them) ----

  void Assign(uint32_t /*depth*/, VertexId u, VertexId v) {
    map_[u] = v;
    used_[v] = 1;
  }
  void Unassign(uint32_t /*depth*/, VertexId u, VertexId v) {
    used_[v] = 0;
    map_[u] = kInvalidVertex;
  }
  void MultiwayInputs(uint32_t /*depth*/, VertexId u,
                      std::vector<MultiwayScratch::Input>& inputs) const {
    auto adj = q_.neighbors(u);
    auto elabels = q_.edge_labels(u);
    for (size_t i = 0; i < adj.size(); ++i) {
      const VertexId img = map_[adj[i]];
      if (img != kInvalidVertex) inputs.push_back({img, elabels[i]});
    }
  }

 protected:
  BacktrackSearch(const Graph& q, const Graph& g, const MatchOptions& opts,
                  const CandidateIndex* index)
      : q_(q),
        g_(g),
        opts_(opts),
        index_(index),
        guard_(opts.stop, opts.deadline, opts.guard_period, opts.stop2),
        map_(q.num_vertices(), kInvalidVertex),
        used_(g.num_vertices(), 0) {
    if (index_ != nullptr) {
      qnlf_ = CandidateIndex::QueryNlf(q);
      if (opts.multiway) {
        multiway_ = true;
        mw_.resize(q.num_vertices());
      }
    }
  }

  // ---- Shared checks the hooks compose ----

  /// O(1) NLF prefilter (always passes without the index); counts a
  /// reject.
  bool NlfAdmits(VertexId u, VertexId v) {
    if (index_ == nullptr ||
        index_->NlfAdmits(qnlf_[u], q_.degree(u), v)) {
      return true;
    }
    ++stats_.nlf_rejects;
    return false;
  }

  /// Every matched neighbour of `u` maps to a neighbour of `v` through an
  /// equally-labelled edge (non-induced: one direction only).
  bool BackEdgesHold(VertexId u, VertexId v) {
    auto adj = q_.neighbors(u);
    auto elabels = q_.edge_labels(u);
    for (size_t i = 0; i < adj.size(); ++i) {
      const VertexId img = map_[adj[i]];
      if (img == kInvalidVertex) continue;
      if (!CandidateIndex::CheckEdge(index_, g_, v, img, elabels[i],
                                     stats_)) {
        return false;
      }
    }
    return true;
  }

  /// Anchored enumeration: the label slice (counted into the stats) of
  /// the matched neighbour image with the smallest one — full adjacency
  /// without the index — or `fallback` when no neighbour of `u` is
  /// matched yet.
  std::span<const VertexId> AnchoredSource(
      VertexId u, std::span<const VertexId> fallback) {
    const LabelId ul = q_.label(u);
    const VertexId anchor = CandidateIndex::PickAnchorImage(
        index_, q_, g_, u, ul, [this](VertexId w) { return map_[w]; });
    if (anchor == kInvalidVertex) return fallback;
    if (index_ == nullptr) return g_.neighbors(anchor);
    const auto slice = index_->Slice(anchor, ul).vertices;
    stats_.slice_candidates += slice.size();
    return slice;
  }

  const Graph& q_;
  const Graph& g_;
  const MatchOptions& opts_;
  const CandidateIndex* index_;
  CostGuard guard_;
  MatchStats stats_;
  Embedding map_;              ///< query vertex -> image (kInvalidVertex)
  std::vector<uint8_t> used_;  ///< data vertex is some query vertex's image
  std::vector<uint64_t> qnlf_;  ///< query NLF fingerprints; empty w/o index

 private:
  Derived& self() { return static_cast<Derived&>(*this); }

  // Returns false when the search should unwind entirely (cap reached,
  // sink declined or interrupted).
  bool Recurse(uint32_t depth) {
    if (depth == q_.num_vertices()) {
      ++found_;
      if (opts_.sink && !opts_.sink(map_)) return false;
      return found_ < opts_.max_embeddings;
    }
    ++stats_.recursion_nodes;
    const VertexId u = self().Next(depth);

    // Multiway (WCOJ) extension: with >= 2 matched backward neighbours,
    // intersect all their label slices at once (match/intersect.hpp). The
    // survivors are exactly the source candidates whose backward edges
    // hold, in the same (degree, id) order, so the stream is unchanged.
    // One scratch per depth: a deeper extension must not clobber the
    // survivor span this loop iterates.
    std::span<const VertexId> candidates;
    bool mw = false;
    if (multiway_) {
      MultiwayScratch& scr = mw_[depth];
      scr.inputs.clear();
      self().MultiwayInputs(depth, u, scr.inputs);
      if (scr.inputs.size() >= 2) {
        candidates = ExtendCandidates(*index_, g_, q_.label(u), scr, stats_);
        mw = true;
      }
    }
    if (!mw) candidates = self().Source(depth, u);

    for (size_t i = 0; i < candidates.size(); ++i) {
      const VertexId v = candidates[i];
      if (guard_.Check() != Interrupt::kNone) return false;
      if (!self().Admit(depth, u, v, i, mw)) continue;
      self().Assign(depth, u, v);
      const bool keep_going = Recurse(depth + 1);
      self().Unassign(depth, u, v);
      if (!keep_going) return false;
    }
    return true;
  }

  uint64_t found_ = 0;
  bool multiway_ = false;            // only with the index
  std::vector<MultiwayScratch> mw_;  // one per depth
};

}  // namespace psi

#endif  // PSI_MATCH_SEARCH_HPP_
