#include "grapes/grapes.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <iterator>
#include <numeric>
#include <thread>

#include "core/graph_algos.hpp"
#include "match/candidate_index.hpp"
#include "vf2/vf2.hpp"

namespace psi {

Status GrapesIndex::Build(const GraphDataset& dataset) {
  dataset_ = &dataset;
  // One trie per contiguous graph-id range, built as one TaskGroup on the
  // pool (ftv/filter_shards.hpp); a single range builds inline. Grapes/N
  // builds at least num_threads ranges.
  const uint32_t shards = std::max(
      ResolveFilterShards(options_.filter_shards, dataset.size(),
                          options_.executor),
      std::min<uint32_t>(options_.num_threads, dataset.size()));
  shard_ranges_ = ComputeShardRanges(dataset.size(), shards);
  shard_tries_ = BuildShardTries(dataset, options_.max_path_edges,
                                 /*with_components=*/true, shard_ranges_,
                                 options_.executor);

  // Cache component subgraphs for the verification stage, each with its
  // shared candidate index when the matching kernel is enabled (index
  // build is untimed, like the trie build — paper §3.2).
  const bool kernel = ResolveKernelEnabled(options_.candidate_index);
  components_.clear();
  components_.resize(dataset.size());
  component_indexes_.clear();
  if (kernel) component_indexes_.resize(dataset.size());
  for (uint32_t gid = 0; gid < dataset.size(); ++gid) {
    const Graph& g = dataset.graph(gid);
    const uint32_t ncomp = g.NumComponents();
    components_[gid].reserve(ncomp);
    for (uint32_t c = 0; c < ncomp; ++c) {
      auto comp = ExtractComponent(g, c);
      if (!comp.ok()) return comp.status();
      components_[gid].push_back(std::move(comp).value());
    }
    if (kernel) {
      component_indexes_[gid].reserve(ncomp);
      for (const Graph& comp : components_[gid]) {
        component_indexes_[gid].push_back(CandidateIndex::Build(comp));
      }
    }
  }
  return Status::OK();
}

size_t GrapesIndex::num_postings() const {
  size_t total = 0;
  for (const PathTrie& trie : shard_tries_) total += trie.num_postings();
  return total;
}

std::vector<GrapesCandidate> GrapesIndex::Filter(const Graph& query) const {
  if (dataset_ == nullptr) return {};
  const std::vector<QueryPath> query_paths =
      CanonicalQueryPaths(query, options_.max_path_edges);
  // A connected query must embed inside one component, so a candidate
  // keeps only the components that hold every query path, and none left
  // drops the graph; a graph with one component needs no intersection. A
  // disconnected (or empty) query keeps every component (see
  // VerifyCandidate).
  const bool narrow = query.NumComponents() == 1;
  std::vector<GrapesCandidate> out;
  std::vector<uint32_t> both;
  const auto visit = [&](uint32_t gid,
                         std::span<const std::span<const uint32_t>> held) {
    const auto ncomp = static_cast<uint32_t>(components_[gid].size());
    GrapesCandidate c{gid, {}};
    if (narrow && ncomp > 1) {
      c.components.assign(held[0].begin(), held[0].end());
      for (size_t i = 1; i < held.size() && !c.components.empty(); ++i) {
        both.clear();
        std::set_intersection(c.components.begin(), c.components.end(),
                              held[i].begin(), held[i].end(),
                              std::back_inserter(both));
        c.components.swap(both);
      }
      if (c.components.empty()) return;
    } else {
      c.components.resize(ncomp);
      std::iota(c.components.begin(), c.components.end(), 0u);
    }
    out.push_back(std::move(c));
  };
  // Ranges in order keep the candidates gid-ascending.
  for (size_t si = 0; si < shard_tries_.size(); ++si) {
    ForEachCoveringGraph(shard_tries_[si], shard_ranges_[si], query_paths,
                         visit);
  }
  filter_stats_.NoteQuery(dataset_->size(), dataset_->size() - out.size());
  return out;
}

MatchResult GrapesIndex::VerifyCandidate(const Graph& query,
                                         const GrapesCandidate& candidate,
                                         const MatchOptions& opts) const {
  MatchOptions mo = opts;
  mo.max_embeddings = 1;  // decision problem: first match wins

  const auto start = std::chrono::steady_clock::now();
  // Disconnected queries span components, and an empty one embeds (once,
  // emptily) even in a stored graph without components: both fall back to
  // whole-graph VF2 (rare path, no per-whole-graph index is kept).
  if (query.NumComponents() != 1) {
    MatchResult r = Vf2Match(query, dataset_->graph(candidate.graph_id), mo);
    kernel_stats_.Note(r.stats, false);
    return r;
  }

  const uint32_t threads =
      std::max<uint32_t>(1, std::min<uint32_t>(
                                options_.num_threads,
                                candidate.components.empty()
                                    ? 1
                                    : candidate.components.size()));
  MatchResult total;
  if (threads == 1) {
    total.complete = true;
    for (uint32_t comp : candidate.components) {
      MatchResult r =
          Vf2Match(query, components_[candidate.graph_id][comp], mo,
                   component_index(candidate.graph_id, comp));
      total.stats.Add(r.stats);
      if (r.found()) {
        total.embedding_count = 1;
        total.complete = true;
        total.timed_out = false;
        total.cancelled = false;
        break;
      }
      if (!r.complete) {
        // Killed or cancelled: the decision for this graph is unknown.
        total.complete = false;
        total.timed_out = r.timed_out;
        total.cancelled = r.cancelled;
        break;
      }
    }
  } else {
    // Grapes/N: components fan out across workers; any match wins, a
    // shared token stops the rest. Workers also listen to the caller's
    // token (e.g. the Ψ racer) through the secondary slot.
    StopToken inner_stop;
    std::atomic<bool> found{false};
    std::atomic<bool> timed_out{false};
    std::vector<std::thread> workers;
    std::vector<MatchStats> worker_stats(threads);
    std::atomic<uint32_t> next{0};
    for (uint32_t t = 0; t < threads; ++t) {
      workers.emplace_back([&, t] {
        for (;;) {
          const uint32_t i = next.fetch_add(1);
          if (i >= candidate.components.size()) return;
          if (inner_stop.stop_requested()) return;
          MatchOptions local = mo;
          local.stop = opts.stop;
          local.stop2 = &inner_stop;
          MatchResult r = Vf2Match(
              query,
              components_[candidate.graph_id][candidate.components[i]],
              local,
              component_index(candidate.graph_id, candidate.components[i]));
          worker_stats[t].Add(r.stats);
          if (r.found()) {
            found.store(true);
            inner_stop.RequestStop();
            return;
          }
          if (r.timed_out) {
            timed_out.store(true);
            return;
          }
          if (r.cancelled) return;
        }
      });
    }
    for (auto& w : workers) w.join();
    for (const MatchStats& ws : worker_stats) total.stats.Add(ws);
    total.embedding_count = found.load() ? 1 : 0;
    if (found.load()) {
      total.complete = true;
    } else if (timed_out.load()) {
      total.timed_out = true;
    } else if (opts.stop != nullptr && opts.stop->stop_requested()) {
      total.cancelled = true;
    } else {
      total.complete = true;  // every component exhausted, no match
    }
  }
  total.elapsed = std::chrono::steady_clock::now() - start;
  kernel_stats_.Note(total.stats, !component_indexes_.empty());
  return total;
}

}  // namespace psi
