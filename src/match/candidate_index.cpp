#include "match/candidate_index.hpp"

#include <algorithm>
#include <numeric>

#include "core/env.hpp"

namespace psi {

bool ResolveKernelEnabled(int requested) {
  return requested < 0 ? MatchIndexEnabled() : requested != 0;
}

std::shared_ptr<const CandidateIndex> CandidateIndex::Build(
    const Graph& g, const CandidateIndexOptions& options) {
  auto idx = std::make_shared<CandidateIndex>();
  CandidateIndex& x = *idx;
  x.graph_ = &g;
  const uint32_t n = g.num_vertices();

  x.vert_offsets_.assign(n + 1, 0);
  x.degree_.assign(n, 0);
  x.nlf_.assign(n, 0);
  x.dir_offsets_.assign(n + 1, 0);

  // Pass 1: per-vertex extents match the graph's CSR.
  for (VertexId v = 0; v < n; ++v) {
    x.degree_[v] = g.degree(v);
    x.vert_offsets_[v + 1] = x.vert_offsets_[v] + x.degree_[v];
  }
  x.adj_.resize(x.vert_offsets_[n]);
  x.adj_edge_labels_.resize(x.vert_offsets_[n]);
  x.adj_keys_.resize(x.vert_offsets_[n]);

  // Pass 2: regroup each neighbour list by (label, degree, id) and record
  // the per-label range directory. Low-degree neighbours lead each slice:
  // a low-degree candidate constrains the rest of the search most (its
  // own slices are the smallest), so enumerating it first tends to reach
  // the max_embeddings cap sooner. The graph's lists are id-sorted, so the stable sort's
  // (label, degree) key yields (label, degree, id) order deterministically
  // for any input permutation of equal keys.
  std::vector<uint32_t> perm;
  for (VertexId v = 0; v < n; ++v) {
    const auto nb = g.neighbors(v);
    const auto el = g.edge_labels(v);
    perm.resize(nb.size());
    std::iota(perm.begin(), perm.end(), 0u);
    std::stable_sort(perm.begin(), perm.end(), [&](uint32_t a, uint32_t b) {
      const LabelId la = g.label(nb[a]);
      const LabelId lb = g.label(nb[b]);
      if (la != lb) return la < lb;
      return g.degree(nb[a]) < g.degree(nb[b]);
    });
    const uint32_t base = x.vert_offsets_[v];
    LabelId prev = static_cast<LabelId>(-1);
    for (size_t i = 0; i < perm.size(); ++i) {
      const VertexId w = nb[perm[i]];
      x.adj_[base + i] = w;
      x.adj_edge_labels_[base + i] = el[perm[i]];
      x.adj_keys_[base + i] = (uint64_t{g.degree(w)} << 32) | w;
      const LabelId l = g.label(w);
      if (l != prev) {
        x.dir_labels_.push_back(l);
        x.dir_begins_.push_back(base + static_cast<uint32_t>(i));
        prev = l;
      }
      x.nlf_[v] |= LabelBit(l);
    }
    x.dir_offsets_[v + 1] = static_cast<uint32_t>(x.dir_labels_.size());
  }

  // Pass 3: hub bitsets, under the memory budget — when more vertices
  // qualify than the budget admits, the highest-degree ones (ties to the
  // smaller id, deterministically) keep their rows and the rest fall
  // back to binary-search edge checks.
  x.hub_slot_.assign(n, kNoHub);
  const int64_t threshold = options.bitset_degree_threshold;
  if (threshold > 0 && n > 0) {
    x.bitset_words_ = (static_cast<size_t>(n) + 63) / 64;
    std::vector<VertexId> hubs;
    for (VertexId v = 0; v < n; ++v) {
      if (x.degree_[v] >= static_cast<uint64_t>(threshold)) {
        hubs.push_back(v);
      }
    }
    const size_t row_bytes = x.bitset_words_ * sizeof(uint64_t);
    if (options.bitset_memory_budget_bytes > 0 && row_bytes > 0) {
      const size_t max_hubs =
          static_cast<size_t>(options.bitset_memory_budget_bytes) /
          row_bytes;
      if (hubs.size() > max_hubs) {
        std::sort(hubs.begin(), hubs.end(), [&](VertexId a, VertexId b) {
          return x.degree_[a] != x.degree_[b] ? x.degree_[a] > x.degree_[b]
                                              : a < b;
        });
        hubs.resize(max_hubs);
        std::sort(hubs.begin(), hubs.end());
      }
    }
    for (VertexId v : hubs) {
      x.hub_slot_[v] = static_cast<uint32_t>(x.num_hubs_++);
    }
    x.hub_bits_.assign(x.num_hubs_ * x.bitset_words_, 0);
    for (VertexId v : hubs) {
      uint64_t* row = x.hub_bits_.data() +
                      static_cast<size_t>(x.hub_slot_[v]) * x.bitset_words_;
      for (VertexId w : g.neighbors(v)) {
        row[w >> 6] |= uint64_t{1} << (w & 63);
      }
    }
  }
  return idx;
}

CandidateIndex::LabelSlice CandidateIndex::Slice(VertexId v, LabelId l) const {
  const uint32_t dbegin = dir_offsets_[v];
  const uint32_t dend = dir_offsets_[v + 1];
  // Binary search the vertex's (few) directory entries.
  const auto first = dir_labels_.begin() + dbegin;
  const auto last = dir_labels_.begin() + dend;
  const auto it = std::lower_bound(first, last, l);
  if (it == last || *it != l) return {};
  const auto k = static_cast<uint32_t>(it - dir_labels_.begin());
  const uint32_t begin = dir_begins_[k];
  const uint32_t end =
      k + 1 < dend ? dir_begins_[k + 1] : vert_offsets_[v + 1];
  return {{adj_.data() + begin, adj_.data() + end},
          {adj_edge_labels_.data() + begin, adj_edge_labels_.data() + end},
          {adj_keys_.data() + begin, adj_keys_.data() + end}};
}

std::vector<uint64_t> CandidateIndex::QueryNlf(const Graph& query) {
  std::vector<uint64_t> fp(query.num_vertices(), 0);
  for (VertexId u = 0; u < query.num_vertices(); ++u) {
    for (VertexId w : query.neighbors(u)) fp[u] |= LabelBit(query.label(w));
  }
  return fp;
}

size_t CandidateIndex::memory_bytes() const {
  return adj_.size() * sizeof(VertexId) +
         adj_edge_labels_.size() * sizeof(LabelId) +
         adj_keys_.size() * sizeof(uint64_t) +
         vert_offsets_.size() * sizeof(uint32_t) +
         dir_offsets_.size() * sizeof(uint32_t) +
         dir_labels_.size() * sizeof(LabelId) +
         dir_begins_.size() * sizeof(uint32_t) +
         nlf_.size() * sizeof(uint64_t) + degree_.size() * sizeof(uint32_t) +
         hub_slot_.size() * sizeof(uint32_t) +
         hub_bits_.size() * sizeof(uint64_t);
}

}  // namespace psi
