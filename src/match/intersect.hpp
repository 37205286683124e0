// Multiway intersection: the WCOJ-style extension kernel.
//
// PR 5's CandidateIndex enumerates the anchor's label slice and checks the
// remaining backward edges one candidate at a time. Mhedhbi & Salihoglu
// ("Optimizing Subgraph Queries by Combining Binary and Worst-Case Optimal
// Joins", PAPERS.md) show the worst-case-optimal alternative: extend a
// partial embedding by intersecting the label slices of *all* matched
// backward neighbours at once. ExtendCandidates() is that kernel, built on
// a scalar galloping sorted-set intersection over the slices' packed
// (degree << 32 | id) keys.
//
// Invariants (docs/ARCHITECTURE.md "Multiway extension"; enforced by
// tests/intersect_test.cpp and tests/multiway_test.cpp):
//  * Set identity: the survivors of one extension are exactly the
//    candidates the legacy enumerate-then-check loop would have accepted —
//    an intersection of label-filtered adjacency sets either way.
//  * Order preservation: every slice is (degree, id)-sorted, i.e. sorted
//    by its packed keys, and a sorted-set intersection emits in key order;
//    the embedding stream stays byte-identical to the legacy path.
//
// Hub fallback: backward neighbours that carry a dense adjacency bitset
// (degree >= CandidateIndexOptions::bitset_degree_threshold, 64) are
// cheaper to test per survivor in O(1) than to gallop through, so they
// are checked via CandidateIndex::EdgeCheck after the slice intersection
// instead of joining it. So every galloped input is a non-hub slice, shorter than
// the bitset degree however dense the graph (unless the bitset memory
// budget ran out), which is why the gallop is scalar: vector window scans
// did not pay at that length.

#ifndef PSI_MATCH_INTERSECT_HPP_
#define PSI_MATCH_INTERSECT_HPP_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/graph.hpp"
#include "match/candidate_index.hpp"
#include "match/matcher.hpp"

namespace psi {

// ---- Sorted-set intersection primitives (64-bit keys, duplicate-free,
// strictly ascending inputs) ----

/// The kernel has one (scalar) level; psibench's machine fingerprint
/// prints ToString(ActiveSimdLevel()).
enum class SimdLevel : uint8_t { kScalar = 0 };
inline const char* ToString(SimdLevel) { return "scalar"; }
inline SimdLevel ActiveSimdLevel() { return SimdLevel::kScalar; }

/// Galloping intersection of two strictly ascending key arrays. Writes the
/// common keys, ascending, to `out` (capacity min(na, nb)) and returns how
/// many. Iterates the smaller array and gallops (exponential probe, then
/// binary search down to a short linear scan) through the larger, so
/// skewed size ratios cost O(small * log(large)).
size_t IntersectSorted(const uint64_t* a, size_t na, const uint64_t* b,
                       size_t nb, uint64_t* out);

/// Fused variant for packed (degree << 32 | id) keys: same intersection,
/// but emits the low-32-bit ids instead of the keys, saving the separate
/// materialize pass when only two slices meet. `out` needs capacity
/// min(na, nb); ids come out in key order.
size_t IntersectSortedIds(const uint64_t* a, size_t na, const uint64_t* b,
                          size_t nb, VertexId* out);

// ---- WCOJ extension ----

/// Per-depth scratch for ExtendCandidates: one instance per recursion
/// depth (a deeper call must not clobber the survivor span an outer loop
/// is still iterating). All buffers are reused across calls at the same
/// depth, so steady-state extension allocates nothing.
struct MultiwayScratch {
  /// One already-matched backward neighbour of the query vertex being
  /// extended: its image and the query edge's required label.
  struct Input {
    VertexId image;
    LabelId edge_label;
  };
  std::vector<Input> inputs;        // filled by the matcher before the call
  std::vector<CandidateIndex::LabelSlice> slices;  // parallel to inputs
  std::vector<uint32_t> order;      // non-hub slice visit order, rarest first
  std::vector<uint64_t> key_buf[2]; // ping-pong intersection buffers
  std::vector<VertexId> out;        // survivor ids, slice order
};

/// Intersects the label-`ul` slices of every matched backward neighbour in
/// `scratch.inputs` (the matcher fills it; at least two entries — with one
/// the legacy anchored loop is already the same computation). The rarest
/// slice is the galloping pivot; hub inputs fall back to per-survivor
/// bitset EdgeChecks; labelled graphs resolve each survivor's edge labels
/// through the CSR. Returns the surviving candidate ids in (degree, id)
/// slice order — exactly the candidates the legacy loop would accept, in
/// the same order. The span aliases `scratch.out` and stays valid until
/// the next call on the same scratch.
std::span<const VertexId> ExtendCandidates(const CandidateIndex& index,
                                           const Graph& g, LabelId ul,
                                           MultiwayScratch& scratch,
                                           MatchStats& stats);

}  // namespace psi

#endif  // PSI_MATCH_INTERSECT_HPP_
