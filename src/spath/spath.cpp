#include "spath/spath.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <deque>

#include "exec/executor.hpp"
#include "match/scratch.hpp"

namespace psi {

namespace {

using NsEntry = SPathMatcher::NsEntry;
using Signatures = std::vector<std::vector<NsEntry>>;

// Sources per batch: one bit of a 64-bit mask each.
constexpr uint32_t kBatchWidth = 64;

// The graph's distinct labels, ascending, and each vertex's rank among
// them. The batch counters are indexed by rank, so their size follows the
// labels present, not the largest label id.
struct LabelRanks {
  std::vector<LabelId> labels;
  std::vector<uint32_t> of_vertex;

  explicit LabelRanks(const Graph& g) : of_vertex(g.num_vertices()) {
    labels.reserve(g.num_vertices());
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      labels.push_back(g.label(v));
    }
    std::sort(labels.begin(), labels.end());
    labels.erase(std::unique(labels.begin(), labels.end()), labels.end());
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      of_vertex[v] = static_cast<uint32_t>(
          std::lower_bound(labels.begin(), labels.end(), g.label(v)) -
          labels.begin());
    }
  }
};

// One participant's state for the bit-parallel multi-source BFS (MS-BFS,
// Then et al., PVLDB 2014): source `first + i` of a batch owns bit i of
// every mask. One pass over a level's frontier advances all the batch's
// sources at once, so a vertex's adjacency is read once per batch and
// level instead of once per source. Every array is reset through the
// lists of entries the batch dirtied, never by a full sweep.
class SignatureBatch {
 public:
  SignatureBatch(const Graph& g, const LabelRanks& ranks, uint32_t radius,
                 Signatures& out)
      : g_(g),
        ranks_(ranks),
        radius_(radius),
        stride_(std::min(kBatchWidth, g.num_vertices())),
        out_(out),
        seen_(g.num_vertices(), 0),
        next_(g.num_vertices(), 0),
        count_(ranks.labels.size() * SPathMatcher::kMaxRadius * stride_, 0),
        label_sources_(ranks.labels.size(), 0) {}

  // Writes the signatures of sources [first, first + 64) clipped to the
  // graph, and nothing else.
  void Run(VertexId first) {
    const uint32_t width =
        std::min(kBatchWidth, g_.num_vertices() - first);
    for (uint32_t i = 0; i < width; ++i) {
      const uint64_t bit = uint64_t{1} << i;
      seen_[first + i] = bit;  // a source is seen, never counted
      touched_.push_back(first + i);
      frontier_.push_back({first + i, bit});
    }
    for (uint32_t d = 0; d < radius_ && !frontier_.empty(); ++d) {
      for (const auto& [v, bits] : frontier_) {
        for (VertexId w : g_.neighbors(v)) {
          const uint64_t fresh = bits & ~seen_[w];
          if (fresh == 0) continue;
          if (next_[w] == 0) reached_.push_back(w);
          next_[w] |= fresh;
        }
      }
      // `seen` changes only here, at the level's end, so a vertex that a
      // source reaches along several paths of one level counts once.
      frontier_.clear();
      for (VertexId w : reached_) {
        const uint64_t bits = next_[w];
        next_[w] = 0;
        if (seen_[w] == 0) touched_.push_back(w);
        seen_[w] |= bits;
        frontier_.push_back({w, bits});
        Count(ranks_.of_vertex[w], d, bits);
      }
      reached_.clear();
    }
    frontier_.clear();
    Emit(first);
    for (VertexId v : touched_) seen_[v] = 0;
    touched_.clear();
  }

 private:
  uint32_t& Counter(uint32_t rank, uint32_t d, uint32_t source) {
    return count_[(static_cast<size_t>(rank) * SPathMatcher::kMaxRadius +
                   d) * stride_ + source];
  }

  // One vertex of label rank `rank` first reached at distance d + 1 by
  // every source in `bits`.
  void Count(uint32_t rank, uint32_t d, uint64_t bits) {
    if (label_sources_[rank] == 0) ranks_hit_.push_back(rank);
    label_sources_[rank] |= bits;
    for (; bits != 0; bits &= bits - 1) {
      ++Counter(rank, d, static_cast<uint32_t>(std::countr_zero(bits)));
    }
  }

  // Appends one cumulative entry per (source, label) the batch reached.
  // Walking the ranks in ascending order appends each source's entries in
  // ascending label order; the signatures are sized exactly first.
  void Emit(VertexId first) {
    std::sort(ranks_hit_.begin(), ranks_hit_.end());
    std::array<uint32_t, kBatchWidth> entries{};
    for (uint32_t rank : ranks_hit_) {
      for (uint64_t b = label_sources_[rank]; b != 0; b &= b - 1) {
        ++entries[std::countr_zero(b)];
      }
    }
    for (uint32_t i = 0; i < kBatchWidth; ++i) {
      if (entries[i] != 0) out_[first + i].reserve(entries[i]);
    }
    for (uint32_t rank : ranks_hit_) {
      for (uint64_t b = label_sources_[rank]; b != 0; b &= b - 1) {
        const auto source = static_cast<uint32_t>(std::countr_zero(b));
        NsEntry e;
        e.label = ranks_.labels[rank];
        uint32_t acc = 0;
        for (uint32_t d = 0; d < SPathMatcher::kMaxRadius; ++d) {
          uint32_t& c = Counter(rank, d, source);
          acc += c;
          c = 0;
          e.cum[d] = acc;
        }
        out_[first + source].push_back(e);
      }
      label_sources_[rank] = 0;
    }
    ranks_hit_.clear();
  }

  const Graph& g_;
  const LabelRanks& ranks_;
  const uint32_t radius_;
  const uint32_t stride_;  // sources per counter row: min(64, |V|)
  Signatures& out_;
  std::vector<uint64_t> seen_;  // per vertex: sources that reached it
  std::vector<uint64_t> next_;  // per vertex: sources reaching it now
  std::vector<std::pair<VertexId, uint64_t>> frontier_;
  std::vector<VertexId> reached_;  // vertices with next_ != 0
  std::vector<VertexId> touched_;  // vertices with seen_ != 0
  // count_[(rank * kMaxRadius + d) * stride_ + source]: vertices of that
  // label first reached at distance d + 1.
  std::vector<uint32_t> count_;
  std::vector<uint64_t> label_sources_;  // per rank: sources counting it
  std::vector<uint32_t> ranks_hit_;      // ranks with label_sources_ != 0
};

}  // namespace

Signatures BuildDistanceSignatures(const Graph& g, uint32_t radius,
                                   Executor* executor) {
  radius = std::min(radius, SPathMatcher::kMaxRadius);
  const uint32_t n = g.num_vertices();
  Signatures out(n);
  if (n == 0 || radius == 0) return out;
  const LabelRanks ranks(g);
  const size_t batches = (n + kBatchWidth - 1) / kBatchWidth;
  if (batches == 1) {
    // Every query lands here: one batch on the calling thread, and the
    // executor is never touched.
    SignatureBatch(g, ranks, radius, out).Run(0);
    return out;
  }
  Executor& exec = executor != nullptr ? *executor : Executor::Shared();
  DrainIndices(exec, batches, std::min(exec.num_threads(), batches - 1),
               [&] {
                 return [batch = SignatureBatch(g, ranks, radius, out)](
                            size_t b) mutable {
                   batch.Run(static_cast<VertexId>(b * kBatchWidth));
                 };
               });
  return out;
}

namespace {

using NsEntry = SPathMatcher::NsEntry;

// Dominance test: every (label, cumulative count) requirement of the query
// vertex must be covered by the data vertex at the same distance bound.
bool SignatureDominates(const std::vector<NsEntry>& query_sig,
                        const std::vector<NsEntry>& data_sig) {
  size_t j = 0;
  for (const NsEntry& qe : query_sig) {
    while (j < data_sig.size() && data_sig[j].label < qe.label) ++j;
    if (j == data_sig.size() || data_sig[j].label != qe.label) return false;
    for (uint32_t d = 0; d < SPathMatcher::kMaxRadius; ++d) {
      if (qe.cum[d] > data_sig[j].cum[d]) return false;
    }
  }
  return true;
}

// Signature dominance plus the path-cover order; the shared
// candidate-list layer (match/scratch.hpp) runs the join. The order does
// not read candidates, so it comes first. Only a vertex with no neighbour
// earlier in it is entered without an anchor and needs a full list: the
// first vertex of each component, and the start of a cover path placed
// before any of its neighbours. Every other vertex's candidates are an
// anchor's neighbours, checked on demand in Admit and memoized in the
// leased epoch-stamped CandidateScratch, so a query no longer scans every
// same-label data vertex for every query vertex.
class SpaSearch : public CandidateListSearch<SpaSearch> {
 public:
  SpaSearch(const Graph& q, const Graph& g,
            const std::vector<std::vector<NsEntry>>& data_sig,
            const SPathOptions& options, const MatchOptions& opts,
            const SPathMatcher& matcher, const CandidateIndex* index,
            CandidateScratch& scr)
      : CandidateListSearch(q, g, opts, index, scr),
        data_sig_(data_sig),
        options_(options),
        matcher_(matcher) {}

  bool Prepare() {
    BuildOrder();
    query_sig_ = BuildDistanceSignatures(q_, options_.radius);
    std::vector<uint8_t> placed(q_.num_vertices(), 0);
    for (VertexId u : scr_.order) {
      bool anchored = false;
      for (VertexId w : q_.neighbors(u)) anchored = anchored || placed[w];
      placed[u] = 1;
      if (!(anchored ? ProbeCandidate(u) : BuildList(u))) return false;
    }
    return true;
  }

  // Dominance at distance 1 implies NLF fingerprint containment, so the
  // prefilter ahead of the O(labels * radius) walk only skips work.
  bool Keep(VertexId u, VertexId v) const {
    return SignatureDominates(query_sig_[u], data_sig_[v]);
  }

  // A pair outside the lists is decided the first time the join reaches
  // it.
  bool Candidate(VertexId u, VertexId v) { return IsCandidate(u, v); }

 private:
  // Flattens the greedy path cover into a vertex visit order.
  void BuildOrder() {
    scr_.order.clear();
    std::vector<uint8_t> placed(q_.num_vertices(), 0);
    for (const auto& path : matcher_.DecomposeQuery(q_)) {
      for (VertexId u : path) {
        if (!placed[u]) {
          placed[u] = 1;
          scr_.order.push_back(u);
        }
      }
    }
    // Safety net for isolated query vertices (absent from any path).
    for (VertexId u = 0; u < q_.num_vertices(); ++u) {
      if (!placed[u]) scr_.order.push_back(u);
    }
  }

  const std::vector<std::vector<NsEntry>>& data_sig_;
  const SPathOptions& options_;
  const SPathMatcher& matcher_;
  std::vector<std::vector<NsEntry>> query_sig_;
};

}  // namespace

Status SPathMatcher::Prepare(const Graph& data) {
  data_ = &data;
  data.EnsureLabelIndex();
  PrepareCandidateIndex(data);
  ns_ = BuildDistanceSignatures(data, options_.radius, executor_);
  return Status::OK();
}

std::vector<std::vector<VertexId>> SPathMatcher::DecomposeQuery(
    const Graph& query) const {
  const uint32_t n = query.num_vertices();
  const uint32_t max_len = std::max<uint32_t>(1, options_.max_path_length);

  // Path pool: for each start vertex (ascending id), a BFS tree with
  // min-id parent preference; one shortest path per reached vertex.
  std::vector<std::vector<VertexId>> pool;
  std::vector<uint32_t> dist(n);
  std::vector<VertexId> parent(n);
  for (VertexId src = 0; src < n; ++src) {
    std::fill(dist.begin(), dist.end(), static_cast<uint32_t>(-1));
    dist[src] = 0;
    parent[src] = kInvalidVertex;
    std::deque<VertexId> queue{src};
    while (!queue.empty()) {
      const VertexId v = queue.front();
      queue.pop_front();
      if (dist[v] >= max_len) continue;
      for (VertexId w : query.neighbors(v)) {
        if (dist[w] != static_cast<uint32_t>(-1)) continue;
        dist[w] = dist[v] + 1;
        parent[w] = v;  // BFS pops ascending-id parents first
        queue.push_back(w);
        // Materialize the path src -> w.
        std::vector<VertexId> path;
        for (VertexId x = w; x != kInvalidVertex; x = parent[x]) {
          path.push_back(x);
        }
        std::reverse(path.begin(), path.end());
        pool.push_back(std::move(path));
      }
    }
  }

  // Greedy selectivity-driven edge cover. Estimated path cost = product of
  // per-vertex candidate... at decomposition time the matcher does not have
  // the candidate lists yet, so the original's proxy is used: label
  // frequency in the stored graph per vertex on the path.
  std::vector<double> score(pool.size());
  for (size_t p = 0; p < pool.size(); ++p) {
    double s = 1.0;
    for (VertexId u : pool[p]) {
      s *= static_cast<double>(
               data_->VerticesWithLabel(query.label(u)).size()) +
           1.0;
    }
    score[p] = s;
  }

  auto edge_key = [n](VertexId a, VertexId b) {
    if (a > b) std::swap(a, b);
    return static_cast<uint64_t>(a) * n + b;
  };
  std::vector<uint8_t> covered_edge(static_cast<size_t>(n) * n, 0);
  uint64_t uncovered = query.num_edges();
  std::vector<std::vector<VertexId>> selected;
  std::vector<uint8_t> taken(pool.size(), 0);
  while (uncovered > 0) {
    size_t best = pool.size();
    double best_rate = 0.0;
    for (size_t p = 0; p < pool.size(); ++p) {
      if (taken[p]) continue;
      uint32_t fresh = 0;
      for (size_t i = 0; i + 1 < pool[p].size(); ++i) {
        if (!covered_edge[edge_key(pool[p][i], pool[p][i + 1])]) ++fresh;
      }
      if (fresh == 0) continue;
      // Lower estimated result per newly covered edge wins; ties keep the
      // earlier (lower start id, shorter) pool entry.
      const double rate = score[p] / fresh;
      if (best == pool.size() || rate < best_rate) {
        best = p;
        best_rate = rate;
      }
    }
    if (best == pool.size()) break;  // disconnected leftovers
    taken[best] = 1;
    for (size_t i = 0; i + 1 < pool[best].size(); ++i) {
      auto& flag = covered_edge[edge_key(pool[best][i], pool[best][i + 1])];
      if (!flag) {
        flag = 1;
        --uncovered;
      }
    }
    selected.push_back(pool[best]);
  }
  return selected;
}

MatchResult SPathMatcher::Match(const Graph& query,
                                const MatchOptions& opts) const {
  ScratchLease scratch;
  MatchResult r = SpaSearch(query, *data_, ns_, options_, opts, *this,
                            candidate_index(), *scratch)
                      .Run();
  NoteMatch(r.stats);
  return r;
}

}  // namespace psi
