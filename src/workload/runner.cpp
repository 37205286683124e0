#include "workload/runner.hpp"

#include <algorithm>
#include <chrono>
#include <functional>
#include <thread>
#include <utility>

#include "core/env.hpp"
#include "fault/failpoint.hpp"

namespace psi {

namespace {

std::chrono::nanoseconds BudgetOf(const RunnerOptions& options) {
  if (options.cap_ms <= 0.0) return std::chrono::nanoseconds(0);
  return std::chrono::nanoseconds(
      static_cast<int64_t>(options.cap_ms * 1e6));
}

QueryRecord ToRecord(const MatchResult& r, const RunnerOptions& options) {
  QueryRecord rec;
  rec.killed = !r.complete;
  // Killed tests are charged the cap, as in the paper's speedup*
  // computations ("for queries killed at the 10' limit we use this time").
  rec.ms = rec.killed && options.cap_ms > 0.0 ? options.cap_ms
                                              : r.elapsed_ms();
  rec.matched = r.found();
  rec.embeddings = r.embedding_count;
  rec.status = rec.killed ? Status::Code::kAborted : Status::Code::kOk;
  return rec;
}

// Maps a race outcome to the record's typed status. Mirrors the engine's
// RaceFailure classification (src/psi/engine.cpp): watchdog teardown
// outranks everything, admission refusal only counts as overload when
// nothing actually ran, and any other no-answer outcome is a cap kill.
Status::Code RaceStatusCode(const RaceResult& race) {
  if (race.completed()) return Status::Code::kOk;
  if (race.watchdog_fired) return Status::Code::kDeadlineExceeded;
  if (race.mode == RaceMode::kPool && race.overloaded()) {
    bool any_ran = false;
    for (const auto& w : race.workers) {
      if (VariantStarted(w.result)) {
        any_ran = true;
        break;
      }
    }
    if (!any_ran) return Status::Code::kOverloaded;
  }
  return Status::Code::kAborted;
}

// Runs `run` under the bounded-retry + crash-absorption policy shared by
// the NFV and FTV runners:
//   * Transient overload — admission control refused the whole race and
//     nothing started — is retried up to PSI_RETRY_MAX times with
//     exponential backoff and deterministic jitter. Retry attempts fail
//     fast on overload so the backoff, not an immediate inline run, is
//     what absorbs a pressure spike; the final attempt reverts to
//     `base.on_overload` (the runners' default kFallbackSequential), so
//     the query is still answered if the pool never frees up.
//   * A race that ends answer-less with variant crashes or a watchdog
//     teardown is re-run once, sequentially on this thread with fault
//     injection suppressed — a single recovery step absorbs any injected
//     fault schedule.
RaceResult RaceWithRetry(
    const RaceOptions& base,
    const std::function<RaceResult(const RaceOptions&)>& run) {
  const int64_t retry_max = RetryMax();
  RaceResult race;
  for (int64_t attempt = 0;; ++attempt) {
    RaceOptions opts = base;
    if (attempt < retry_max) opts.on_overload = OverloadResponse::kFail;
    race = run(opts);
    if (attempt >= retry_max ||
        RaceStatusCode(race) != Status::Code::kOverloaded) {
      break;
    }
    FaultStats::Instance().NoteRetry();
    // Exponential backoff, per-sleep capped at 1s so a large
    // PSI_RETRY_MAX bounds total latency, plus deterministic jitter (a
    // golden-ratio mix of the attempt number) so synchronized clients
    // de-correlate without consuming entropy.
    const int64_t base_ms = RetryBaseMillis();
    const int shift = attempt < 20 ? static_cast<int>(attempt) : 20;
    int64_t sleep_ms = base_ms << shift;
    if (sleep_ms <= 0 || sleep_ms > 1000) sleep_ms = 1000;
    const uint64_t mix =
        (static_cast<uint64_t>(attempt) + 1) * 0x9e3779b97f4a7c15ULL;
    sleep_ms += static_cast<int64_t>(mix % static_cast<uint64_t>(base_ms));
    std::this_thread::sleep_for(std::chrono::milliseconds(sleep_ms));
  }
  if (!race.completed() &&
      (race.variant_crashes > 0 || race.watchdog_fired)) {
    FaultSuppressionScope suppress;
    RaceOptions seq = base;
    seq.mode = RaceMode::kSequential;
    race = run(seq);
  }
  return race;
}

}  // namespace

QueryRecord RunOne(const Matcher& matcher, const Graph& query,
                   const RunnerOptions& options) {
  MatchOptions mo;
  mo.max_embeddings = options.max_embeddings;
  const auto budget = BudgetOf(options);
  if (budget.count() > 0) mo.deadline = Deadline::After(budget);
  return ToRecord(matcher.Match(query, mo), options);
}

std::vector<QueryRecord> RunWorkload(const Matcher& matcher,
                                     std::span<const gen::Query> workload,
                                     const RunnerOptions& options) {
  std::vector<QueryRecord> out;
  out.reserve(workload.size());
  for (const gen::Query& q : workload) {
    out.push_back(RunOne(matcher, q.graph, options));
  }
  return out;
}

QueryRecord RunOnePsi(const Portfolio& portfolio, const Graph& query,
                      const LabelStats& stats, const RunnerOptions& options,
                      RaceMode mode, Executor* executor,
                      QueryPlanner* planner, RewriteCache* rewrite_cache) {
  RaceOptions base;
  base.budget = BudgetOf(options);
  base.max_embeddings = options.max_embeddings;
  base.mode = mode;
  base.executor = executor;
  // The plan is fixed once per query — retry attempts and the recovery
  // re-run execute the same plan, so the answer cannot drift across them.
  const bool planned = planner != nullptr && planner->configured();
  QueryPlan plan;
  if (planned) plan = planner->Plan(query);
  const RaceResult race = RaceWithRetry(
      base, [&](const RaceOptions& ro) -> RaceResult {
        if (planned) {
          PlanResult pr = ExecutePortfolioPlan(plan, portfolio, query, stats,
                                               ro, rewrite_cache);
          if (pr.race.completed()) {
            planner->Observe(plan.features,
                             static_cast<size_t>(pr.race.winner));
          }
          return std::move(pr.race);
        }
        return RunPortfolio(portfolio, query, stats, ro, rewrite_cache);
      });
  QueryRecord rec;
  rec.killed = !race.completed();
  rec.ms = rec.killed && options.cap_ms > 0.0
               ? options.cap_ms
               : std::chrono::duration<double, std::milli>(race.wall).count();
  rec.matched = race.completed() && race.result.found();
  rec.embeddings = race.completed() ? race.result.embedding_count : 0;
  rec.status = RaceStatusCode(race);
  return rec;
}

std::vector<QueryRecord> RunWorkloadPsi(const Portfolio& portfolio,
                                        std::span<const gen::Query> workload,
                                        const LabelStats& stats,
                                        const RunnerOptions& options,
                                        RaceMode mode, Executor* executor,
                                        QueryPlanner* planner,
                                        RewriteCache* rewrite_cache) {
  std::vector<QueryRecord> out;
  out.reserve(workload.size());
  for (const gen::Query& q : workload) {
    out.push_back(RunOnePsi(portfolio, q.graph, stats, options, mode,
                            executor, planner, rewrite_cache));
  }
  return out;
}

std::vector<QueryRecord> RunWorkloadPsiParallel(
    const Portfolio& portfolio, std::span<const gen::Query> workload,
    const LabelStats& stats, const RunnerOptions& options, RaceMode mode,
    Executor* executor, QueryPlanner* planner, RewriteCache* rewrite_cache) {
  Executor& exec = executor != nullptr ? *executor : Executor::Shared();
  std::vector<QueryRecord> out(workload.size());
  // Queries a bounded pool refused (rejected at Spawn or shed while
  // queued); they re-run inline below so every record is always present.
  std::vector<uint8_t> displaced(workload.size(), 0);
  {
    TaskGroup group(exec);
    for (size_t i = 0; i < workload.size(); ++i) {
      const Admission admission =
          group.Spawn([&, i](TaskStart start) {
            if (start != TaskStart::kRun) {
              // kShed, or kCancelled at group teardown: either way the
              // query never ran here, so mark it displaced — the inline
              // pass below always produces its record. (Visible to the
              // waiter by Wait().)
              displaced[i] = 1;
              return;
            }
            out[i] = RunOnePsi(portfolio, workload[i].graph, stats, options,
                               mode, &exec, planner, rewrite_cache);
          });
      if (admission == Admission::kRejected) displaced[i] = 1;
    }
    group.Wait();
  }
  // Backpressure path: displaced queries run on the caller thread, which
  // also throttles a flooding client to the pool's actual capacity. This
  // is the recovery step, so injection is suppressed on this thread —
  // displaced work converges instead of being re-displaced forever.
  FaultSuppressionScope suppress_recovery;
  for (size_t i = 0; i < workload.size(); ++i) {
    if (displaced[i] != 0) {
      out[i] = RunOnePsi(portfolio, workload[i].graph, stats, options, mode,
                         &exec, planner, rewrite_cache);
    }
  }
  return out;
}

std::vector<FtvPairRecord> RunFtvWorkload(
    const GrapesIndex& index, std::span<const gen::Query> workload,
    const RunnerOptions& options) {
  std::vector<FtvPairRecord> out;
  const auto budget = BudgetOf(options);
  for (uint32_t qi = 0; qi < workload.size(); ++qi) {
    const Graph& query = workload[qi].graph;
    for (const GrapesCandidate& cand : index.Filter(query)) {
      MatchOptions mo;
      mo.max_embeddings = 1;
      if (budget.count() > 0) mo.deadline = Deadline::After(budget);
      const MatchResult r = index.VerifyCandidate(query, cand, mo);
      FtvPairRecord rec;
      rec.query_index = qi;
      rec.graph_id = cand.graph_id;
      rec.killed = !r.complete;
      rec.ms = rec.killed && options.cap_ms > 0.0 ? options.cap_ms
                                                  : r.elapsed_ms();
      rec.matched = r.found();
      rec.status = rec.killed ? Status::Code::kAborted : Status::Code::kOk;
      out.push_back(rec);
    }
  }
  return out;
}

std::vector<FtvPairRecord> RunFtvWorkload(
    const GgsxIndex& index, std::span<const gen::Query> workload,
    const RunnerOptions& options) {
  std::vector<FtvPairRecord> out;
  const auto budget = BudgetOf(options);
  for (uint32_t qi = 0; qi < workload.size(); ++qi) {
    const Graph& query = workload[qi].graph;
    for (uint32_t gid : index.Filter(query)) {
      MatchOptions mo;
      mo.max_embeddings = 1;
      if (budget.count() > 0) mo.deadline = Deadline::After(budget);
      const MatchResult r = index.VerifyCandidate(query, gid, mo);
      FtvPairRecord rec;
      rec.query_index = qi;
      rec.graph_id = gid;
      rec.killed = !r.complete;
      rec.ms = rec.killed && options.cap_ms > 0.0 ? options.cap_ms
                                                  : r.elapsed_ms();
      rec.matched = r.found();
      rec.status = rec.killed ? Status::Code::kAborted : Status::Code::kOk;
      out.push_back(rec);
    }
  }
  return out;
}

Portfolio MakeFtvVerificationPortfolio(
    std::span<const Rewriting> rewritings) {
  Portfolio p;
  p.name = "Psi-FTV(";
  for (size_t i = 0; i < rewritings.size(); ++i) {
    if (i > 0) p.name += "/";
    p.name += ToString(rewritings[i]);
    p.entries.push_back({nullptr, rewritings[i], 0});
  }
  p.name += ")";
  return p;
}

QueryPlan FtvPairPlan(size_t num_rewritings, const RunnerOptions& options,
                      RaceMode mode) {
  QueryPlan plan = FullRacePlan(num_rewritings);
  const auto budget = BudgetOf(options);
  if (mode != RaceMode::kPool || budget.count() <= 0 || num_rewritings < 2) {
    return plan;
  }
  const size_t first = 0;
  plan.stages.insert(
      plan.stages.begin(),
      ProbeStage(std::span(&first, 1), 1,
                 static_cast<double>(PlanProbePercent()) / 100.0, budget));
  plan.name = "staged(top1->full)";
  plan.escalation = EscalationPolicy::kOnMiss;
  return plan;
}

namespace {

/// What every (query, candidate) verification of one Ψ FTV runner call
/// shares.
struct FtvRun {
  const GrapesIndex& index;
  std::span<const Rewriting> rewritings;
  const LabelStats& stats;
  /// Rewritten instances, fetched once per query that has a candidate and
  /// shared by all its pairs (the stats-independent ones are shared
  /// across stats identities too).
  RewriteCache& cache;
  const RunnerOptions& options;
  RaceMode mode;
  Executor* executor;
  /// Plans each query and learns from its completed races; nullptr when
  /// the caller gave no configured planner.
  QueryPlanner* planner;
  /// The plan of every pair when `planner` is nullptr (FtvPairPlan).
  QueryPlan pair_plan;
};

FtvRun MakeFtvRun(const GrapesIndex& index,
                  std::span<const Rewriting> rewritings,
                  const LabelStats& stats, RewriteCache& cache,
                  const RunnerOptions& options, RaceMode mode,
                  Executor* executor, QueryPlanner* planner) {
  const bool planned = planner != nullptr && planner->configured();
  return FtvRun{index,    rewritings, stats,
                cache,    options,    mode,
                executor, planned ? planner : nullptr,
                FtvPairPlan(rewritings.size(), options, mode)};
}

using Instances = std::vector<std::shared_ptr<const RewrittenQuery>>;

/// Races one (query, candidate) verification of the query's rewritten
/// `instances` under `plan` and fills the record fields common to both Ψ
/// FTV runners.
FtvPairRecord RaceFtvPair(const FtvRun& run, const Instances& instances,
                          const GrapesCandidate& cand, uint32_t query_index,
                          const QueryPlan& plan) {
  std::vector<RaceVariant> universe;
  universe.reserve(instances.size());
  for (size_t i = 0; i < instances.size(); ++i) {
    universe.push_back(RaceVariant{
        std::string(ToString(run.rewritings[i])),
        [&index = run.index, inst = instances[i],
         &cand](const MatchOptions& mo) {
          return index.VerifyCandidate(inst->graph, cand, mo);
        }});
  }
  RaceOptions base;
  base.budget = BudgetOf(run.options);
  base.max_embeddings = 1;
  base.mode = run.mode;
  base.executor = run.executor;
  const RaceResult race = RaceWithRetry(
      base, [&](const RaceOptions& ro) -> RaceResult {
        PlanResult pr = ExecutePlan(plan, universe, ro);
        if (run.planner != nullptr && pr.race.completed()) {
          run.planner->Observe(plan.features,
                               static_cast<size_t>(pr.race.winner));
        }
        return std::move(pr.race);
      });
  FtvPairRecord rec;
  rec.query_index = query_index;
  rec.graph_id = cand.graph_id;
  rec.killed = !race.completed();
  rec.ms = rec.killed && run.options.cap_ms > 0.0
               ? run.options.cap_ms
               : std::chrono::duration<double, std::milli>(race.wall).count();
  rec.matched = race.completed() && race.result.found();
  rec.status = RaceStatusCode(race);
  return rec;
}

/// One query of both Ψ FTV runners, all on the calling thread: plan it,
/// filter it, fetch its rewritten instances once if a candidate survives,
/// then race its candidates in ascending graph id.
void RunFtvQuery(const FtvRun& run, const Graph& query, uint32_t query_index,
                 std::vector<FtvPairRecord>* out) {
  QueryPlan planned;
  if (run.planner != nullptr) planned = run.planner->Plan(query);
  const QueryPlan& plan = run.planner != nullptr ? planned : run.pair_plan;
  const std::vector<GrapesCandidate> candidates = run.index.Filter(query);
  if (candidates.empty()) return;
  const Instances instances =
      run.cache.GetInstances(query, run.rewritings, run.stats);
  for (const GrapesCandidate& cand : candidates) {
    out->push_back(RaceFtvPair(run, instances, cand, query_index, plan));
  }
}

}  // namespace

std::vector<FtvPairRecord> RunFtvWorkloadPsi(
    const GrapesIndex& index, std::span<const gen::Query> workload,
    std::span<const Rewriting> rewritings, const LabelStats& stats,
    const RunnerOptions& options, RaceMode mode, Executor* executor,
    QueryPlanner* planner, RewriteCache* rewrite_cache) {
  RewriteCache local_cache;
  const FtvRun run = MakeFtvRun(
      index, rewritings, stats,
      rewrite_cache != nullptr ? *rewrite_cache : local_cache, options, mode,
      executor, planner);
  std::vector<FtvPairRecord> out;
  for (uint32_t qi = 0; qi < workload.size(); ++qi) {
    RunFtvQuery(run, workload[qi].graph, qi, &out);
  }
  return out;
}

std::vector<FtvPairRecord> RunFtvWorkloadPsiParallel(
    const GrapesIndex& index, std::span<const gen::Query> workload,
    std::span<const Rewriting> rewritings, const LabelStats& stats,
    const RunnerOptions& options, RaceMode mode, Executor* executor,
    QueryPlanner* planner, RewriteCache* rewrite_cache) {
  Executor& exec = executor != nullptr ? *executor : Executor::Shared();
  RewriteCache local_cache;
  const FtvRun run = MakeFtvRun(
      index, rewritings, stats,
      rewrite_cache != nullptr ? *rewrite_cache : local_cache, options, mode,
      &exec, planner);
  // The caller and its helpers take whole queries from one cursor; each
  // query's records go to its own slot, so the output order is the serial
  // runner's whoever ran the query, under any queue capacity.
  std::vector<std::vector<FtvPairRecord>> per_query(workload.size());
  DrainIndices(exec, workload.size(),
               std::min(exec.num_threads(),
                        workload.empty() ? size_t{0} : workload.size() - 1),
               [&] {
                 return [&](size_t qi) {
                   RunFtvQuery(run, workload[qi].graph,
                               static_cast<uint32_t>(qi), &per_query[qi]);
                 };
               });
  std::vector<FtvPairRecord> out;
  for (auto& records : per_query) {
    out.insert(out.end(), records.begin(), records.end());
  }
  return out;
}

std::vector<double> TimesOf(std::span<const QueryRecord> records) {
  std::vector<double> out;
  out.reserve(records.size());
  for (const auto& r : records) out.push_back(r.ms);
  return out;
}

std::vector<uint8_t> KilledOf(std::span<const QueryRecord> records) {
  std::vector<uint8_t> out;
  out.reserve(records.size());
  for (const auto& r : records) out.push_back(r.killed ? 1 : 0);
  return out;
}

std::vector<double> TimesOf(std::span<const FtvPairRecord> records) {
  std::vector<double> out;
  out.reserve(records.size());
  for (const auto& r : records) out.push_back(r.ms);
  return out;
}

std::vector<uint8_t> KilledOf(std::span<const FtvPairRecord> records) {
  std::vector<uint8_t> out;
  out.reserve(records.size());
  for (const auto& r : records) out.push_back(r.killed ? 1 : 0);
  return out;
}

}  // namespace psi
