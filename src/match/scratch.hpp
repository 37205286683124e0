// Epoch-stamped, thread-reused search scratch for the candidate-list
// matchers (GraphQL, sPath), and the candidate-list search layer they
// share on top of the search skeleton (match/search.hpp).
//
// Both engines used to allocate and zero-fill an O(|V| * nq) candidate
// bitmap (plus order and Kuhn buffers) on *every* Match() call — pure
// churn in the FTV/NFV serving paths, where one prepared matcher answers
// thousands of calls. This scratch keeps those buffers alive per thread
// and replaces the zero-fills with epoch stamps: each call owns two stamp
// values, `epoch` (candidate) and `epoch + 1` (checked and rejected), and
// any other value means "not checked yet", so starting a call costs one
// counter increment instead of an O(|V| * nq) clear.
//
// Thread-compatibility with the Matcher contract (concurrent const
// Match() calls): every call leases the calling thread's scratch through
// ScratchLease, so two threads never share buffers; a re-entrant Match on
// the same thread (e.g. from inside an embedding sink) transparently gets
// a private heap-allocated scratch instead — correctness never depends on
// the lease being the thread-local one.

#ifndef PSI_MATCH_SCRATCH_HPP_
#define PSI_MATCH_SCRATCH_HPP_

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "core/graph.hpp"
#include "match/matcher.hpp"
#include "match/search.hpp"

namespace psi {

struct CandidateScratch {
  /// Epoch of the call currently using the scratch. A stamp cell equal to
  /// `epoch` marks a candidate, one equal to `epoch + 1` a pair checked
  /// and rejected; any other value is unchecked. Epochs are even and never
  /// 0, so fresh (zero-resized) cells are always unchecked.
  uint32_t epoch = 0;
  bool in_use = false;

  std::vector<uint32_t> cand_stamp;  ///< nq * |V| candidate verdicts
  std::vector<std::vector<VertexId>> cand_list;
  std::vector<VertexId> order;  ///< static matching order
  // Kuhn-matching buffers (degree-sized).
  std::vector<int> match_right;
  std::vector<uint8_t> visited;

  /// nq * nv of the most recent call — the lease's trim heuristic reads
  /// it to avoid shrinking buffers a workload legitimately needs.
  size_t last_cells = 0;

  /// Opens a new call over an nq-vertex query against an nv-vertex data
  /// graph: advances the epoch by 2 (invalidating both stamp values of
  /// every previous call in O(1)) and grows the stamp buffers as needed.
  /// Handles wrap-around by clearing once every ~2G calls, before
  /// `epoch + 1` could overflow.
  void BeginCall(uint32_t nq, uint32_t nv) {
    if (epoch >= std::numeric_limits<uint32_t>::max() - 2) {
      std::fill(cand_stamp.begin(), cand_stamp.end(), 0u);
      epoch = 0;
    }
    epoch += 2;
    const size_t cells = static_cast<size_t>(nq) * nv;
    last_cells = cells;
    if (cand_stamp.size() < cells) cand_stamp.resize(cells, 0u);
    if (cand_list.size() < nq) cand_list.resize(nq);
    for (uint32_t u = 0; u < nq; ++u) cand_list[u].clear();
  }
};

/// Leases the calling thread's scratch for one Match() call; falls back to
/// a private scratch when the thread's one is already leased (re-entrant
/// call). Move-free RAII: construct on the stack, use via ->.
class ScratchLease {
 public:
  ScratchLease() {
    CandidateScratch& tls = ThreadScratch();
    if (tls.in_use) {
      owned_ = std::make_unique<CandidateScratch>();
      scratch_ = owned_.get();
    } else {
      tls.in_use = true;
      scratch_ = &tls;
    }
  }
  ~ScratchLease() {
    if (owned_ == nullptr) {
      scratch_->in_use = false;
      // Don't pin unbounded buffers to a pool thread forever: a one-off
      // huge (query, graph) pair should not cost memory for the rest of
      // the process. The candidate lists' combined capacity has the same
      // worst case as the stamp matrix, so both count against the cap.
      // Trim only when the retained capacity dwarfs what the *current*
      // workload actually uses (last_cells) — a workload whose every
      // call legitimately needs more than the cap must keep its buffers,
      // or the scratch would degrade into per-call realloc + zero-fill
      // of a matrix 4x the old uint8 bitmap. (The epoch stays monotonic,
      // so dropped-and-regrown cells can never alias a live stamp.)
      constexpr size_t kMaxRetainedCells = size_t{1} << 22;  // 16 MiB
      size_t list_cells = 0;
      for (const auto& l : scratch_->cand_list) list_cells += l.capacity();
      const size_t retained = scratch_->cand_stamp.size() + list_cells;
      const size_t need = std::max<size_t>(scratch_->last_cells, 1);
      if (retained > kMaxRetainedCells && retained / 4 > need) {
        scratch_->cand_stamp.clear();
        scratch_->cand_stamp.shrink_to_fit();
        scratch_->cand_list.clear();
        scratch_->cand_list.shrink_to_fit();
      }
    }
  }
  ScratchLease(const ScratchLease&) = delete;
  ScratchLease& operator=(const ScratchLease&) = delete;

  CandidateScratch* operator->() { return scratch_; }
  CandidateScratch& operator*() { return *scratch_; }

 private:
  static CandidateScratch& ThreadScratch() {
    static thread_local CandidateScratch scratch;
    return scratch;
  }

  CandidateScratch* scratch_ = nullptr;
  std::unique_ptr<CandidateScratch> owned_;
};

/// The candidate-list layer GraphQL and sPath share: one candidate
/// predicate (label, degree, NLF, then the matcher's own signature test),
/// candidate lists for the query vertices whose source needs one, a
/// static matching order in `scr_.order` that the matcher's Prepare
/// builds, and the join that enumerates them — anchored on the placed
/// neighbour whose image offers the smallest source, every candidate
/// checked against the predicate and its backward edges.
///
/// Besides Prepare, the derived class supplies
///
///   bool Keep(VertexId u, VertexId v);
///       The matcher's signature test for a pair that passed label, degree
///       and NLF. It must imply NLF fingerprint containment, so the
///       prefilter only skips work and never changes a verdict.
///   bool Candidate(VertexId u, VertexId v);
///       Admit's verdict for a candidate of the join: CandBit when every
///       list the join can reach is complete, IsCandidate when pairs are
///       left to be decided on demand.
///
/// GraphQL builds every list (its refinement and join order read them)
/// and reads the stamps. sPath builds only the lists of the vertices the
/// join enters without an anchor, and decides every other pair the first
/// time Admit meets it, memoized in the pair's stamp.
template <typename Derived>
class CandidateListSearch : public BacktrackSearch<Derived> {
 public:
  VertexId Next(uint32_t depth) const { return scr_.order[depth]; }

  std::span<const VertexId> Source(uint32_t /*depth*/, VertexId u) {
    return this->AnchoredSource(u, scr_.cand_list[u]);
  }

  bool Admit(uint32_t /*depth*/, VertexId u, VertexId v, size_t /*i*/,
             bool mw) {
    ++this->stats_.candidates_tried;
    if (this->used_[v] || !static_cast<Derived&>(*this).Candidate(u, v)) {
      return false;
    }
    // The intersection settles the backward edges for a multiway
    // survivor; the anchored source still checks each one.
    return mw || this->BackEdgesHold(u, v);
  }

 protected:
  CandidateListSearch(const Graph& q, const Graph& g,
                      const MatchOptions& opts, const CandidateIndex* index,
                      CandidateScratch& scr)
      : BacktrackSearch<Derived>(q, g, opts, index),
        scr_(scr),
        nv_(g.num_vertices()) {
    scr_.BeginCall(q.num_vertices(), nv_);
  }

  /// Fills `u`'s candidate list with every same-label data vertex that
  /// passes the predicate and stamps each one a candidate; a rejected pair
  /// stays unstamped. Returns false if the list ends up empty or the guard
  /// trips.
  bool BuildList(VertexId u) {
    for (VertexId v : this->g_.VerticesWithLabel(this->q_.label(u))) {
      if (this->guard_.Check() != Interrupt::kNone) return false;
      if (Passes(u, v, /*count=*/true)) {
        scr_.cand_list[u].push_back(v);
        Stamp(u, v, true);
      }
    }
    return !scr_.cand_list[u].empty();
  }

  /// Scans `u`'s label up to the first data vertex that passes the
  /// predicate, so a vertex nothing can take ends the search before it
  /// starts, as an empty list does. Returns false if there is none or the
  /// guard trips.
  bool ProbeCandidate(VertexId u) {
    for (VertexId v : this->g_.VerticesWithLabel(this->q_.label(u))) {
      if (this->guard_.Check() != Interrupt::kNone) return false;
      const bool pass = Passes(u, v, /*count=*/true);
      Stamp(u, v, pass);
      if (pass) return true;
    }
    return false;
  }

  /// The memoized predicate: the stamped verdict, or one decided and
  /// stamped now. An on-demand verdict counts no NLF reject, so the
  /// counters do not depend on which pairs the join reaches (multiway on
  /// or off).
  bool IsCandidate(VertexId u, VertexId v) {
    const uint32_t stamp = scr_.cand_stamp[Cell(u, v)];
    if (stamp == scr_.epoch) return true;
    if (stamp == scr_.epoch + 1) return false;
    const bool pass = this->q_.label(u) == this->g_.label(v) &&
                      Passes(u, v, /*count=*/false);
    Stamp(u, v, pass);
    return pass;
  }

  /// The stamped verdict alone: true iff (u, v) was decided a candidate.
  bool CandBit(VertexId u, VertexId v) const {
    return scr_.cand_stamp[Cell(u, v)] == scr_.epoch;
  }
  void ClearCand(VertexId u, VertexId v) {
    scr_.cand_stamp[Cell(u, v)] = scr_.epoch + 1;
  }

  CandidateScratch& scr_;
  const uint32_t nv_;

 private:
  size_t Cell(VertexId u, VertexId v) const {
    return static_cast<size_t>(u) * nv_ + v;
  }

  void Stamp(VertexId u, VertexId v, bool candidate) {
    scr_.cand_stamp[Cell(u, v)] = candidate ? scr_.epoch : scr_.epoch + 1;
  }

  /// The predicate for a same-label pair: degree, the NLF prefilter, then
  /// Derived::Keep. With `count`, an NLF reject is counted.
  bool Passes(VertexId u, VertexId v, bool count) {
    const Graph& q = this->q_;
    if (this->g_.degree(v) < q.degree(u)) return false;
    if (this->index_ != nullptr &&
        !this->index_->NlfAdmits(this->qnlf_[u], q.degree(u), v)) {
      if (count) ++this->stats_.nlf_rejects;
      return false;
    }
    return static_cast<Derived&>(*this).Keep(u, v);
  }
};

}  // namespace psi

#endif  // PSI_MATCH_SCRATCH_HPP_
