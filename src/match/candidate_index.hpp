// Shared per-stored-graph candidate-index kernel (the matching hot path).
//
// PRs 1-4 made the orchestration fast; this layer attacks where variant-run
// wall-clock actually goes: candidate enumeration and backward-edge checks
// inside the four matchers. One CandidateIndex is built per stored graph
// (at Matcher::Prepare / Grapes-GGSX Build time — index build is not
// subject to the query cap, paper §3.2) and shared, immutably, by every
// concurrent Match() call and every racing variant:
//
//  1. Label-partitioned CSR adjacency — each vertex's neighbour list is
//     regrouped into contiguous per-label ranges (sorted by neighbour
//     label, then neighbour degree, then neighbour id), with a per-vertex
//     label->range directory. Anchor-based candidate enumeration jumps
//     straight to the correctly-labelled slice instead of filtering the
//     whole adjacency one label mismatch at a time; within a slice,
//     low-degree (most-constraining) candidates come first, so capped
//     searches (max_embeddings) tend to exit earlier.
//  2. Packed NLF signatures — a 64-bit neighbourhood-label fingerprint per
//     vertex: bit LabelBit(l) is set iff the vertex has a neighbour
//     labelled l. `query_fp & ~data_fp` != 0 refutes a candidate in O(1)
//     before any per-candidate work (a valid embedding maps neighbours to
//     equally-labelled neighbours, so the query vertex's label set must be
//     a subset of the data vertex's — the degree check rides along).
//  3. Hub adjacency bitsets — vertices with degree >=
//     `bitset_degree_threshold` (64 unless a caller sets it) get a dense
//     |V|-bit adjacency row, making backward-edge checks against hubs O(1)
//     instead of O(log d) binary searches.
//
// Invariants (held by construction, enforced by the differential harness
// in tests/candidate_index_test.cpp):
//  * Prefilters never change answers: every pruned candidate is provably
//    absent from all embeddings — the embedding *set* of every matcher is
//    identical with the index on or off, as are all uncapped counts. The
//    enumeration *order* does differ (slices run (degree, id) within a
//    label, raw adjacency runs plain id), so only the sorted streams are
//    comparable across index on/off. Slice order itself is deterministic
//    — a pure function of the stored graph.
//  * The index is immutable after Build — safe to share across any number
//    of racing variants, pool tasks and client threads.
//  * Bitset threshold semantics: the bitset is a pure accelerator for the
//    membership half of an edge check; edge-labelled graphs still resolve
//    the label through the CSR when the bit is set.

#ifndef PSI_MATCH_CANDIDATE_INDEX_HPP_
#define PSI_MATCH_CANDIDATE_INDEX_HPP_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/graph.hpp"
#include "match/matcher.hpp"

namespace psi {

struct CandidateIndexOptions {
  /// Vertices with degree >= this get a dense adjacency bitset; <= 0
  /// disables the bitsets (slices + NLF only).
  int64_t bitset_degree_threshold = 64;
  /// Hard cap on hub-bitset memory per index. Each hub row costs |V|/8
  /// bytes, so a fixed degree threshold alone is unbounded on power-law
  /// graphs; when the qualifying hubs exceed the budget, the
  /// highest-degree ones keep their bitsets (the rest fall back to
  /// binary-search edge checks — a pure accelerator, never a correctness
  /// knob). <= 0 disables the cap.
  int64_t bitset_memory_budget_bytes = 64 << 20;
};

/// Resolves the shared tri-state kernel switch used by the FTV index
/// options (GrapesOptions/GgsxOptions candidate_index): -1 = environment
/// (PSI_MATCH_INDEX), 0 = off, anything else = on.
bool ResolveKernelEnabled(int requested);

class CandidateIndex {
 public:
  /// A per-label range of one vertex's regrouped adjacency: the neighbours
  /// carrying one label, ascending by (degree, id) — most-constraining
  /// first — with their edge labels parallel.
  struct LabelSlice {
    std::span<const VertexId> vertices;
    std::span<const LabelId> edge_labels;
    /// Packed sort keys parallel to `vertices`: (degree << 32) | id. A
    /// slice's (degree, id) order makes the keys strictly increasing, so
    /// slices intersect like sorted sets (match/intersect.hpp) and the
    /// intersection inherits slice emission order.
    std::span<const uint64_t> keys;
    bool empty() const { return vertices.empty(); }
    size_t size() const { return vertices.size(); }
  };

  /// Builds the index over `g`. `g` must outlive the index.
  static std::shared_ptr<const CandidateIndex> Build(
      const Graph& g,
      const CandidateIndexOptions& options = CandidateIndexOptions{});

  const Graph* graph() const { return graph_; }

  /// Best-effort freshness check for an injected index: same graph object
  /// *and* matching vertex/adjacency extents (catches the
  /// address-reuse-after-destruction case where a different graph landed
  /// on the same address; a same-sized impostor is the caller's contract
  /// violation to avoid).
  bool Covers(const Graph& g) const {
    return graph_ == &g && vert_offsets_.size() == g.num_vertices() + 1 &&
           adj_.size() == g.num_edges() * 2;
  }

  /// The neighbours of `v` labelled `l` (ascending by (degree, id); empty
  /// when none).
  LabelSlice Slice(VertexId v, LabelId l) const;

  /// The NLF bit a label occupies (multiplicative hash onto 64 bits).
  static uint64_t LabelBit(LabelId l) {
    return uint64_t{1} << ((l * 0x9E3779B97F4A7C15ull) >> 58);
  }
  /// The data-side fingerprint of `v`.
  uint64_t nlf(VertexId v) const { return nlf_[v]; }
  /// Query-side fingerprints, one per query vertex (same LabelBit basis).
  static std::vector<uint64_t> QueryNlf(const Graph& query);

  /// O(1) neighbourhood prefilter: can a query vertex with fingerprint
  /// `query_fp` and degree `query_deg` possibly map onto `v`? Sound:
  /// returns true for every (query vertex, v) pair that occurs in any
  /// embedding.
  bool NlfAdmits(uint64_t query_fp, uint32_t query_deg, VertexId v) const {
    return degree_[v] >= query_deg && (query_fp & ~nlf_[v]) == 0;
  }

  /// True iff `v` carries a dense adjacency bitset.
  bool IsHub(VertexId v) const { return hub_slot_[v] != kNoHub; }
  size_t num_hubs() const { return num_hubs_; }

  /// Edge-membership + edge-label test accelerated by the hub bitsets;
  /// falls back to the graph's binary search when neither endpoint is a
  /// hub. `stats` records how many checks the bitsets answered.
  bool EdgeCheck(VertexId u, VertexId v, LabelId edge_label,
                 MatchStats& stats) const {
    uint32_t slot = hub_slot_[u];
    VertexId other = v;
    if (slot == kNoHub) {
      slot = hub_slot_[v];
      other = u;
    }
    if (slot == kNoHub) return graph_->HasEdgeWithLabel(u, v, edge_label);
    ++stats.bitset_edge_checks;
    const uint64_t word =
        hub_bits_[static_cast<size_t>(slot) * bitset_words_ + (other >> 6)];
    if (((word >> (other & 63)) & 1) == 0) return false;
    // Membership established in O(1); unlabelled graphs are done, labelled
    // ones still resolve the label through the CSR.
    if (!graph_->has_edge_labels()) return edge_label == 0;
    return graph_->EdgeLabel(u, v) == edge_label;
  }

  /// Approximate footprint, for Prepare-time accounting in benches.
  size_t memory_bytes() const;

  // ---- Search helpers that work with or without an index (`index` may
  // be null) ----

  /// Picks the anchored-enumeration source vertex among the *images* of
  /// `u`'s already-matched query neighbours: the image with the smallest
  /// label-`ul` slice when `index` is present, the smallest raw degree
  /// otherwise (first wins on ties, either way). `image(qw)` returns the
  /// data vertex `qw` is mapped to, or kInvalidVertex when unmatched.
  /// Returns kInvalidVertex when no neighbour is matched. The choice only
  /// changes effort, never answers: every surviving candidate must be
  /// adjacent to all matched images anyway. Equal costs break to the
  /// smaller image id, so the anchor — and with it the plan's effort
  /// profile — is reproducible across runs regardless of which matched
  /// neighbour the query iterates first.
  template <typename ImageFn>
  static VertexId PickAnchorImage(const CandidateIndex* index,
                                  const Graph& q, const Graph& g,
                                  VertexId u, LabelId ul,
                                  const ImageFn& image) {
    VertexId best_img = kInvalidVertex;
    size_t best = 0;
    for (VertexId w : q.neighbors(u)) {
      const VertexId img = image(w);
      if (img == kInvalidVertex) continue;
      const size_t cost = index != nullptr
                              ? index->Slice(img, ul).size()
                              : g.degree(img);
      if (best_img == kInvalidVertex || cost < best ||
          (cost == best && img < best_img)) {
        best_img = img;
        best = cost;
      }
    }
    return best_img;
  }

  /// Edge check dispatch: hub-bitset-accelerated when `index` is present,
  /// the graph's binary search otherwise.
  static bool CheckEdge(const CandidateIndex* index, const Graph& g,
                        VertexId u, VertexId v, LabelId edge_label,
                        MatchStats& stats) {
    return index != nullptr ? index->EdgeCheck(u, v, edge_label, stats)
                            : g.HasEdgeWithLabel(u, v, edge_label);
  }

 private:
  static constexpr uint32_t kNoHub = static_cast<uint32_t>(-1);

  const Graph* graph_ = nullptr;
  // Regrouped CSR: per vertex the same extent as Graph's adjacency, but
  // sorted by (neighbour label, neighbour id).
  std::vector<uint32_t> vert_offsets_;   // size n+1
  std::vector<VertexId> adj_;            // size 2|E|
  std::vector<LabelId> adj_edge_labels_; // size 2|E|, parallel to adj_
  std::vector<uint64_t> adj_keys_;       // size 2|E|, (degree << 32) | id
  // Per-vertex label directory: entries [dir_offsets_[v], dir_offsets_[v+1])
  // of (dir_labels_, dir_begins_), labels ascending; a range ends where the
  // next begins (or at the vertex's adjacency end).
  std::vector<uint32_t> dir_offsets_;    // size n+1
  std::vector<LabelId> dir_labels_;
  std::vector<uint32_t> dir_begins_;     // absolute offsets into adj_
  // NLF.
  std::vector<uint64_t> nlf_;            // size n
  std::vector<uint32_t> degree_;         // size n (avoids Graph deref)
  // Hub bitsets.
  std::vector<uint32_t> hub_slot_;       // size n; kNoHub = no bitset
  std::vector<uint64_t> hub_bits_;       // num_hubs_ * bitset_words_
  size_t bitset_words_ = 0;
  size_t num_hubs_ = 0;
};

}  // namespace psi

#endif  // PSI_MATCH_CANDIDATE_INDEX_HPP_
