#include "match/intersect.hpp"

#include <algorithm>

namespace psi {
namespace {

/// Gallop skeleton: iterate the smaller array; for each key,
/// exponential-probe through the larger from the current frontier, binary
/// search the bracketed range down to 8 keys, then scan them. OutT =
/// uint64_t emits the common keys; OutT = VertexId truncates each to its
/// low-32-bit id, fusing the materialize pass into the intersection.
template <typename OutT>
size_t IntersectWith(const uint64_t* a, size_t na, const uint64_t* b,
                     size_t nb, OutT* out) {
  if (na > nb) {
    std::swap(a, b);
    std::swap(na, nb);
  }
  size_t n = 0;
  size_t j = 0;
  for (size_t i = 0; i < na; ++i) {
    if (j >= nb) break;
    const uint64_t x = a[i];
    if (b[j] < x) {
      // Gallop: after the loop the first key >= x (if any) lies in
      // [lo, hi) — either the probe hit >= x at j+bound, or it ran off
      // the end.
      size_t bound = 1;
      size_t lo = j + 1;
      while (j + bound < nb && b[j + bound] < x) {
        lo = j + bound + 1;
        bound <<= 1;
      }
      size_t hi = std::min(j + bound + 1, nb);
      while (hi - lo > 8) {
        const size_t mid = lo + (hi - lo) / 2;
        if (b[mid] < x) {
          lo = mid + 1;
        } else {
          hi = mid;
        }
      }
      while (lo < hi && b[lo] < x) ++lo;
      j = lo;
    }
    if (j < nb && b[j] == x) {
      out[n++] = static_cast<OutT>(x);
      ++j;
    }
  }
  return n;
}

}  // namespace

size_t IntersectSorted(const uint64_t* a, size_t na, const uint64_t* b,
                       size_t nb, uint64_t* out) {
  return IntersectWith(a, na, b, nb, out);
}

size_t IntersectSortedIds(const uint64_t* a, size_t na, const uint64_t* b,
                          size_t nb, VertexId* out) {
  return IntersectWith(a, na, b, nb, out);
}

std::span<const VertexId> ExtendCandidates(const CandidateIndex& index,
                                           const Graph& g, LabelId ul,
                                           MultiwayScratch& scr,
                                           MatchStats& stats) {
  const bool labelled = g.has_edge_labels();
  if (!labelled) {
    // Unlabelled graphs carry label 0 on every edge, so a non-zero
    // required label refutes the whole extension (mirrors EdgeCheck).
    for (const auto& in : scr.inputs) {
      if (in.edge_label != 0) {
        ++stats.intersection_shortcuts;
        return {};
      }
    }
  }

  // Fast paths for the dominant shape: a cycle-closing vertex with exactly
  // two matched backward neighbours on an edge-unlabelled graph. Both skip
  // the slice/order scratch, the sort, the ping-pong buffers, and the
  // separate materialize pass. Survivor order is unaffected by which slice
  // gets enumerated — a vertex's (degree << 32 | id) key is a global
  // property, so every slice lists a given survivor set in the same order.
  if (!labelled && scr.inputs.size() == 2) {
    const bool hub0 = index.IsHub(scr.inputs[0].image);
    const bool hub1 = index.IsHub(scr.inputs[1].image);
    if (!hub0 && !hub1) {
      // Neither a hub: one fused intersection emits survivor ids straight
      // from the packed keys. Counters match the general path exactly
      // (same pivot rule, same key-order emission).
      const auto s0 = index.Slice(scr.inputs[0].image, ul);
      const auto s1 = index.Slice(scr.inputs[1].image, ul);
      if (s0.empty() || s1.empty()) {
        ++stats.intersection_shortcuts;
        return {};
      }
      const bool pivot0 = s0.size() < s1.size() ||
                          (s0.size() == s1.size() &&
                           scr.inputs[0].image < scr.inputs[1].image);
      stats.slice_candidates += (pivot0 ? s0 : s1).size();
      ++stats.multiway_intersections;
      const size_t cap = std::min(s0.size(), s1.size());
      if (scr.out.size() < cap) scr.out.resize(cap);
      const size_t n =
          IntersectSortedIds(s0.keys.data(), s0.keys.size(), s1.keys.data(),
                             s1.keys.size(), scr.out.data());
      if (n == 0) {
        ++stats.intersection_shortcuts;
        return {};
      }
      return {scr.out.data(), n};
    }
    if (hub0 != hub1) {
      // Exactly one hub: enumerate the non-hub slice and answer the hub
      // per survivor through its O(1) adjacency bitset — no galloping.
      const auto& hub_in = hub0 ? scr.inputs[0] : scr.inputs[1];
      const auto sn = index.Slice(hub0 ? scr.inputs[1].image
                                       : scr.inputs[0].image, ul);
      if (sn.empty() || index.Slice(hub_in.image, ul).empty()) {
        ++stats.intersection_shortcuts;
        return {};
      }
      stats.slice_candidates += sn.size();
      ++stats.multiway_intersections;
      scr.out.clear();
      for (const VertexId v : sn.vertices) {
        if (index.EdgeCheck(v, hub_in.image, hub_in.edge_label, stats)) {
          scr.out.push_back(v);
        }
      }
      if (scr.out.empty()) {
        ++stats.intersection_shortcuts;
        return {};
      }
      return {scr.out.data(), scr.out.size()};
    }
  }

  // Fetch every input's label slice once. Any empty slice refutes the
  // extension outright — a survivor must be a label-`ul` neighbour of
  // every input, hubs included. The rarest slice becomes the galloping
  // pivot (ties to the smaller image id, matching PickAnchorImage), and
  // because intersection output is in key order, pivot choice affects
  // effort only, never the emitted sequence.
  scr.slices.clear();
  size_t pivot = 0;
  for (size_t i = 0; i < scr.inputs.size(); ++i) {
    scr.slices.push_back(index.Slice(scr.inputs[i].image, ul));
    const auto& s = scr.slices.back();
    if (s.empty()) {
      ++stats.intersection_shortcuts;
      return {};
    }
    const auto& p = scr.slices[pivot];
    if (i > 0 && (s.size() < p.size() ||
                  (s.size() == p.size() &&
                   scr.inputs[i].image < scr.inputs[pivot].image))) {
      pivot = i;
    }
  }
  stats.slice_candidates += scr.slices[pivot].size();
  ++stats.multiway_intersections;

  // Key-intersect the non-hub slices, rarest first so the running set
  // shrinks as early as possible. Hub inputs are cheaper to answer per
  // survivor through their adjacency bitsets than to gallop through.
  scr.order.clear();
  for (size_t i = 0; i < scr.slices.size(); ++i) {
    if (i == pivot || index.IsHub(scr.inputs[i].image)) continue;
    scr.order.push_back(static_cast<uint32_t>(i));
  }
  if (scr.order.size() > 1) {
    std::sort(scr.order.begin(), scr.order.end(),
              [&](uint32_t a, uint32_t b) {
                return scr.slices[a].size() < scr.slices[b].size();
              });
  }

  std::span<const uint64_t> cur = scr.slices[pivot].keys;
  int buf = 0;
  for (const uint32_t i : scr.order) {
    const auto keys = scr.slices[i].keys;
    auto& dst = scr.key_buf[buf];
    const size_t need = std::min(cur.size(), keys.size());
    if (dst.size() < need) dst.resize(need);
    const size_t n = IntersectSorted(cur.data(), cur.size(), keys.data(),
                                     keys.size(), dst.data());
    cur = std::span<const uint64_t>(dst.data(), n);
    buf ^= 1;
    if (cur.empty()) {
      ++stats.intersection_shortcuts;
      return {};
    }
  }

  // Materialize survivors: recover ids from the packed keys, then settle
  // what the key intersection couldn't — per-survivor edge labels on
  // labelled graphs (the CSR resolves them) and hub memberships via the
  // O(1) bitset EdgeCheck.
  scr.out.clear();
  for (const uint64_t key : cur) {
    const VertexId v = static_cast<VertexId>(key & 0xffffffffu);
    bool ok = true;
    if (labelled) {
      for (size_t i = 0; ok && i < scr.inputs.size(); ++i) {
        if (index.IsHub(scr.inputs[i].image)) continue;
        ok = g.EdgeLabel(scr.inputs[i].image, v) ==
             scr.inputs[i].edge_label;
      }
    }
    for (size_t i = 0; ok && i < scr.inputs.size(); ++i) {
      const auto& in = scr.inputs[i];
      if (!index.IsHub(in.image)) continue;
      ok = index.EdgeCheck(v, in.image, in.edge_label, stats);
    }
    if (ok) scr.out.push_back(v);
  }
  return {scr.out.data(), scr.out.size()};
}

}  // namespace psi
