#include "psi/engine.hpp"

#include <algorithm>
#include <utility>

#include "fault/failpoint.hpp"
#include "match/candidate_index.hpp"

namespace psi {

void PsiEngine::AddMatcher(std::unique_ptr<Matcher> matcher) {
  matchers_.push_back(std::move(matcher));
}

Executor& PsiEngine::executor() const {
  return options_.executor != nullptr ? *options_.executor
                                      : Executor::Shared();
}

PoolGauges PsiEngine::pool_gauges() const {
  PoolGauges g = executor().gauges();
  for (const auto& m : matchers_) m->kernel_stats().AddTo(&g);
  FaultStats::Instance().AddTo(&g);
  return g;
}

Status PsiEngine::Prepare(const Graph& data) {
  return Prepare(data, /*stop=*/nullptr);
}

Status PsiEngine::Prepare(const Graph& data, const StopToken* stop) {
  if (matchers_.empty()) {
    return Status::InvalidArgument("no matchers registered");
  }
  // Failpoint: the index build "fails" (disk, allocation, corrupt input —
  // whatever a deployment's build step can hit). The engine stays
  // unprepared; every query entry point then returns InvalidArgument
  // until a later Prepare succeeds.
  if (PSI_FAULT_POINT("engine.prepare") == FaultKind::kError) {
    data_ = nullptr;
    return Status::IOError("injected prepare failure");
  }
  const auto cancelled = [&] {
    return stop != nullptr && stop->stop_requested();
  };
  // Cancellation polls bracket the heavy steps; a trip anywhere leaves
  // the engine unprepared (data_ == nullptr) but reusable.
  data_ = nullptr;
  if (cancelled()) return Status::Aborted("prepare cancelled");
  // One candidate index serves every matcher (and every race over them):
  // the kernel structures depend only on the stored graph, so building it
  // per matcher would be pure duplication.
  candidate_index_ =
      MatchIndexEnabled() ? CandidateIndex::Build(data) : nullptr;
  for (auto& m : matchers_) {
    if (cancelled()) return Status::Aborted("prepare cancelled");
    m->set_candidate_index(candidate_index_);
    // Index builds that fan out (sPath's signatures) use the engine's
    // pool, which is otherwise idle until the first query.
    m->set_executor(&executor());
    PSI_RETURN_NOT_OK(m->Prepare(data));
  }
  if (cancelled()) return Status::Aborted("prepare cancelled");
  data_ = &data;
  stats_ = LabelStats::FromGraph(data);
  portfolio_.name = "Psi";
  portfolio_.entries.clear();
  for (const auto& m : matchers_) {
    for (Rewriting r : options_.rewritings) {
      portfolio_.entries.push_back({m.get(), r, 0});
    }
  }
  QueryPlannerOptions po;
  po.budget = options_.budget;
  po.staged = options_.staged;
  po.probe_fraction = options_.probe_fraction;
  po.portfolio_limit = options_.portfolio_limit;
  po.min_samples = options_.plan_min_samples;
  planner_.Configure(&portfolio_, &stats_, po);
  rewrite_cache_.Clear();
  return Status::OK();
}

RaceOptions PsiEngine::BaseRaceOptions(uint64_t max_embeddings) const {
  RaceOptions ro;
  ro.budget = options_.budget;
  ro.max_embeddings = max_embeddings;
  ro.mode = options_.mode;
  ro.executor = options_.executor;
  ro.guard_period = options_.guard_period;
  ro.on_overload = options_.fail_fast_on_overload
                       ? OverloadResponse::kFail
                       : OverloadResponse::kFallbackSequential;
  return ro;
}

QueryPlan PsiEngine::ExplainPlan(const Graph& query) const {
  if (!planner_.configured()) return QueryPlan{};
  return planner_.Plan(query);
}

RaceResult PsiEngine::Run(const Graph& query, uint64_t max_embeddings) {
  if (data_ == nullptr) {
    RaceResult empty;
    empty.mode = options_.mode;
    return empty;
  }
  // Failpoint: the whole run "fails" before racing anything — the
  // all-killed result maps to Status::Aborted in the typed entry points.
  if (PSI_FAULT_POINT("engine.run") == FaultKind::kError) {
    RaceResult failed;
    failed.mode = options_.mode;
    return failed;
  }
  const QueryPlan plan = planner_.Plan(query);
  PlanResult pr =
      ExecutePortfolioPlan(plan, portfolio_, query, stats_,
                           BaseRaceOptions(max_embeddings), &rewrite_cache_);
  if (options_.learn && pr.race.completed()) {
    // The plan executor reports winners as full-portfolio indices, so
    // learned preferences stay stable however the plan narrowed or
    // staged this particular race.
    planner_.Observe(plan.features, static_cast<size_t>(pr.race.winner));
  }
  return std::move(pr.race);
}

namespace {

Status RaceFailure(const RaceResult& r) {
  // Watchdog teardown outranks the other classifications: the race was
  // forcibly ended past its deadline + grace, so the query ran out of
  // time in the strictest sense — whatever else admission control did.
  if (r.watchdog_fired) {
    return Status::DeadlineExceeded("watchdog tore down the race");
  }
  // A race that pool admission control displaced and that did not fall
  // back to sequential execution (mode still kPool) is overload, not a
  // cap kill — but only when *nothing* actually ran; a variant that
  // started and hit the cap makes this an Aborted like any other kill.
  if (r.mode == RaceMode::kPool && r.overloaded()) {
    bool any_ran = false;
    for (const auto& w : r.workers) {
      if (VariantStarted(w.result)) {
        any_ran = true;
        break;
      }
    }
    if (!any_ran) {
      return Status::Overloaded("executor queue rejected the race");
    }
  }
  return Status::Aborted("all contenders hit the cap");
}

}  // namespace

Result<bool> PsiEngine::Contains(const Graph& query) {
  if (data_ == nullptr) return Status::InvalidArgument("not prepared");
  RaceResult r = Run(query, /*max_embeddings=*/1);
  if (!r.completed()) return RaceFailure(r);
  return r.result.found();
}

Result<uint64_t> PsiEngine::CountEmbeddings(const Graph& query) {
  if (data_ == nullptr) return Status::InvalidArgument("not prepared");
  RaceResult r = Run(query, options_.max_embeddings);
  if (!r.completed()) return RaceFailure(r);
  return r.result.embedding_count;
}

}  // namespace psi
