#include "rewrite/rewrite_cache.hpp"

#include <utility>

#include "core/fnv.hpp"
#include "fault/failpoint.hpp"

namespace psi {

uint64_t QueryFingerprint(const Graph& query) {
  uint64_t h = kFnv1aOffset;
  Fnv1aMix(query.num_vertices(), &h);
  Fnv1aMix(query.num_edges(), &h);
  for (VertexId v = 0; v < query.num_vertices(); ++v) {
    Fnv1aMix(query.label(v), &h);
    const auto neigh = query.neighbors(v);
    const auto elabels = query.edge_labels(v);
    for (size_t i = 0; i < neigh.size(); ++i) {
      Fnv1aMix(neigh[i], &h);
      Fnv1aMix(elabels[i], &h);
    }
  }
  return h;
}

bool RewriteCache::StatsDependent(Rewriting r) {
  switch (r) {
    case Rewriting::kIlf:
    case Rewriting::kIlfInd:
    case Rewriting::kIlfDnd:
      return true;
    case Rewriting::kOriginal:
    case Rewriting::kInd:
    case Rewriting::kDnd:
    case Rewriting::kRandom:
      return false;
  }
  return true;  // unknown: be conservative, key per stats identity
}

std::shared_ptr<const RewrittenQuery> RewriteCache::Get(
    const Graph& query, Rewriting r, const LabelStats& stats,
    uint64_t random_seed) {
  return GetWithFingerprint(QueryFingerprint(query), query, r, stats,
                            random_seed);
}

std::shared_ptr<const RewrittenQuery> RewriteCache::GetWithFingerprint(
    uint64_t query_fp, const Graph& query, Rewriting r,
    const LabelStats& stats, uint64_t random_seed) {
  Key key;
  key.query_fp = query_fp;
  key.stats_id = StatsDependent(r) ? stats.identity() : 0;
  key.seed = r == Rewriting::kRandom ? random_seed : 0;
  key.rewriting = r;
  // Failpoint: treat the lookup as a miss and recompute. Rewriting is a
  // pure function of the key, so a forced miss can only cost time — the
  // recompute installs (or re-finds) the identical entry.
  const bool forced_miss =
      PSI_FAULT_POINT("rewrite.lookup") == FaultKind::kMiss;
  // A dropped generation is destroyed here, after the lock is released:
  // freeing 2,048 rewritten graphs must not stall other lookups.
  Map evicted;
  if (!forced_miss) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (auto hit = FindLocked(key, query, &evicted)) {
      ++hits_;
      return hit;
    }
  }
  // Compute outside the lock: rewriting is pure, and a duplicate compute
  // under contention is cheaper than serializing every rewrite.
  auto rq = RewriteQuery(query, r, stats, random_seed);
  std::shared_ptr<const RewrittenQuery> rewritten;
  if (rq.ok()) {
    rewritten =
        std::make_shared<const RewrittenQuery>(std::move(rq).value());
  } else {
    // Same defensive fallback as RunPortfolio: race the original.
    auto fallback = std::make_shared<RewrittenQuery>();
    fallback->graph = query;
    fallback->rewriting = Rewriting::kOriginal;
    rewritten = std::move(fallback);
  }
  std::lock_guard<std::mutex> lock(mutex_);
  ++misses_;
  // A concurrent thread's entry that passed the dims guard (same key,
  // same dims: our query) wins, so every caller shares one instance.
  if (auto found = FindLocked(key, query, &evicted)) return found;
  // Empty slot, or a fingerprint-colliding entry for a *different* query
  // (caught by the dims guard): install our freshly computed rewrite so
  // the colliding queries thrash instead of one of them racing the
  // other's graph.
  InsertLocked(key, Entry{rewritten, query.num_vertices(), query.num_edges()},
               &evicted);
  return rewritten;
}

std::shared_ptr<const RewrittenQuery> RewriteCache::FindLocked(
    const Key& key, const Graph& query, Map* evicted) {
  auto fits = [&](const Entry& e) {
    return e.num_vertices == query.num_vertices() &&
           e.num_edges == query.num_edges();
  };
  if (auto it = young_.find(key); it != young_.end()) {
    return fits(it->second) ? it->second.rewritten : nullptr;
  }
  // An old entry moves back to the young generation; a colliding one is
  // dropped here.
  auto it = old_.find(key);
  if (it == old_.end()) return nullptr;
  Entry e = std::move(it->second);
  old_.erase(it);
  if (!fits(e)) return nullptr;
  auto rewritten = e.rewritten;
  InsertLocked(key, std::move(e), evicted);
  return rewritten;
}

void RewriteCache::InsertLocked(const Key& key, Entry entry, Map* evicted) {
  if (!young_.contains(key) && young_.size() >= kCapacity / 2) {
    evictions_ += old_.size();
    *evicted = std::exchange(old_, std::exchange(young_, Map()));
  }
  young_.insert_or_assign(key, std::move(entry));
}

std::vector<std::shared_ptr<const RewrittenQuery>> RewriteCache::GetInstances(
    const Graph& query, std::span<const Rewriting> rewritings,
    const LabelStats& stats) {
  const uint64_t fp = QueryFingerprint(query);
  std::vector<std::shared_ptr<const RewrittenQuery>> out;
  out.reserve(rewritings.size());
  for (Rewriting r : rewritings) {
    out.push_back(GetWithFingerprint(fp, query, r, stats, /*random_seed=*/0));
  }
  return out;
}

RewriteCache::Stats RewriteCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  Stats s;
  s.hits = hits_;
  s.misses = misses_;
  s.evictions = evictions_;
  return s;
}

size_t RewriteCache::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return young_.size() + old_.size();
}

void RewriteCache::Clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  young_.clear();
  old_.clear();
}

}  // namespace psi
