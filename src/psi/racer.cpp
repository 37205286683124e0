#include "psi/racer.hpp"

#include <algorithm>
#include <atomic>
#include <thread>

#include "core/env.hpp"
#include "fault/failpoint.hpp"

namespace psi {

namespace {

/// Race state shared by the threads and pool backends and the
/// one-contender caller run; they differ only in how they put variants
/// on threads.
struct RaceShared {
  RaceResult out;
  std::atomic<int> winner{-1};
  std::atomic<int64_t> winner_ns{0};
  std::atomic<size_t> crashes{0};
  std::chrono::steady_clock::time_point start;

  explicit RaceShared(std::span<const RaceVariant> variants) {
    out.workers.resize(variants.size());
    for (size_t i = 0; i < variants.size(); ++i) {
      out.workers[i].name = variants[i].name;
    }
    start = std::chrono::steady_clock::now();
  }
};

Deadline SharedDeadline(const RaceOptions& options) {
  return options.budget.count() > 0 ? Deadline::After(options.budget)
                                    : Deadline();
}

/// Variant i's own kill budget: its RaceOptions::variant_budgets override
/// when set, the shared budget otherwise.
std::chrono::nanoseconds VariantBudget(const RaceOptions& options, size_t i) {
  if (i < options.variant_budgets.size() &&
      options.variant_budgets[i].count() > 0) {
    return options.variant_budgets[i];
  }
  return options.budget;
}

Deadline EarlierOf(Deadline a, Deadline b) {
  if (!a.enabled()) return b;
  if (!b.enabled()) return a;
  return a.at() <= b.at() ? a : b;
}

/// The deadline variant i races under in the concurrent modes: the shared
/// race deadline, tightened by the variant's own budget when one is set
/// (both measured from the race's start, not the variant's — a queued
/// pool variant does not stop its clock).
Deadline VariantDeadline(const RaceOptions& options, size_t i,
                         Deadline shared) {
  if (i < options.variant_budgets.size() &&
      options.variant_budgets[i].count() > 0) {
    return EarlierOf(shared, Deadline::After(options.variant_budgets[i]));
  }
  return shared;
}

/// Variant i's requested split width: the variant_splits entry when set
/// and the variant exposes a split entry point, 1 (serial) otherwise.
uint32_t VariantSplit(std::span<const RaceVariant> variants,
                      const RaceOptions& options, size_t i) {
  if (i < options.variant_splits.size() && options.variant_splits[i] > 1 &&
      variants[i].run_split) {
    return options.variant_splits[i];
  }
  return 1;
}

/// Dispatches to the variant's split entry point when a width > 1 was
/// requested, to its plain run otherwise.
MatchResult RunBody(const RaceVariant& variant, uint32_t split,
                    const MatchOptions& mo) {
  if (split > 1 && variant.run_split) return variant.run_split(mo, split);
  return variant.run(mo);
}

/// RunBody with crash isolation: a variant body that throws — a real
/// matcher bug or the race.variant failpoint — is absorbed as a killed
/// variant (cancelled, started, elapsed > 0 so admission-decided
/// classification stays truthful) instead of unwinding through the race.
/// The race then degrades to the survivors; an all-crashed race simply
/// has no winner and surfaces as Status::Aborted upstream.
MatchResult RunBodyIsolated(const RaceVariant& variant, uint32_t split,
                            const MatchOptions& mo, bool* crashed) {
  const auto t0 = std::chrono::steady_clock::now();
  try {
    if (PSI_FAULT_POINT("race.variant") == FaultKind::kThrow) {
      throw FaultInjectedError("race.variant");
    }
    return RunBody(variant, split, mo);
  } catch (...) {
    *crashed = true;
    FaultStats::Instance().NoteCrash();
    MatchResult r;
    r.cancelled = true;
    r.elapsed = std::max(std::chrono::steady_clock::now() - t0,
                         std::chrono::steady_clock::duration(1));
    return r;
  }
}

/// The watchdog grace of a kPool race: the explicit option, else
/// PSI_WATCHDOG_GRACE_MS. The watchdog is armed when this is positive and
/// the race has a budget to measure the grace from.
std::chrono::nanoseconds WatchdogGrace(const RaceOptions& options) {
  if (options.watchdog_grace.count() > 0) return options.watchdog_grace;
  return std::chrono::milliseconds(WatchdogGraceMillis());
}

/// Runs variant `i` under the race's shared deadline/token, records its
/// outcome, and — on the race's first completion — claims the win and
/// trips `stop` to call off the rest of the race.
void RunVariant(const RaceVariant& variant, size_t i, uint32_t split,
                const RaceOptions& options, Deadline deadline,
                StopToken& stop, RaceShared& s) {
  MatchOptions mo;
  mo.max_embeddings = options.max_embeddings;
  mo.deadline = deadline;
  mo.stop = &stop;
  mo.guard_period = options.guard_period;
  bool crashed = false;
  MatchResult r = RunBodyIsolated(variant, split, mo, &crashed);
  if (crashed) s.crashes.fetch_add(1, std::memory_order_relaxed);
  s.out.workers[i].result = r;
  if (r.complete) {
    int expected = -1;
    if (s.winner.compare_exchange_strong(expected, static_cast<int>(i))) {
      s.winner_ns.store(std::chrono::duration_cast<std::chrono::nanoseconds>(
                            std::chrono::steady_clock::now() - s.start)
                            .count());
      stop.RequestStop();
    }
  }
}

RaceResult FinishRace(RaceShared& s) {
  s.out.winner = s.winner.load();
  s.out.variant_crashes = s.crashes.load(std::memory_order_relaxed);
  if (s.out.winner >= 0) {
    s.out.result = s.out.workers[s.out.winner].result;
    s.out.wall = std::chrono::nanoseconds(s.winner_ns.load());
  } else {
    // Everybody was killed at the cap.
    s.out.wall = std::chrono::steady_clock::now() - s.start;
  }
  return std::move(s.out);
}

/// A kPool race with one contender has nothing to race against, so the
/// pool would only add a hand-off: the contender runs on the calling
/// thread, crash-isolated and under the race deadline, as a pool worker
/// would run it. The pool keeps the race when a watchdog must be able to
/// abandon a wedged body or the caller asked for admission control's
/// verdict (OverloadResponse::kFail).
bool RunsOnCaller(std::span<const RaceVariant> variants,
                  const RaceOptions& options) {
  if (variants.size() != 1 ||
      options.on_overload == OverloadResponse::kFail) {
    return false;
  }
  const bool watchdog_armed =
      WatchdogGrace(options).count() > 0 && options.budget.count() > 0;
  return !watchdog_armed;
}

RaceResult RaceOnCaller(std::span<const RaceVariant> variants,
                        const RaceOptions& options) {
  RaceShared s(variants);
  StopToken stop;
  RunVariant(variants[0], 0, VariantSplit(variants, options, 0), options,
             VariantDeadline(options, 0, SharedDeadline(options)), stop, s);
  return FinishRace(s);
}

RaceResult RaceThreads(std::span<const RaceVariant> variants,
                       const RaceOptions& options) {
  RaceShared s(variants);
  StopToken stop;
  const Deadline deadline = SharedDeadline(options);
  std::vector<std::thread> threads;
  threads.reserve(variants.size());
  for (size_t i = 0; i < variants.size(); ++i) {
    const Deadline vd = VariantDeadline(options, i, deadline);
    const uint32_t split = VariantSplit(variants, options, i);
    threads.emplace_back([&, i, vd, split] {
      RunVariant(variants[i], i, split, options, vd, stop, s);
    });
  }
  for (auto& t : threads) t.join();
  return FinishRace(s);
}

RaceResult RacePool(std::span<const RaceVariant> variants,
                    const RaceOptions& options) {
  Executor& exec =
      options.executor != nullptr ? *options.executor : Executor::Shared();
  RaceShared s(variants);
  size_t rejected = 0;
  // Variants evicted from the queue by other tenants' admissions; they
  // count as displaced alongside rejections so the overload fallback
  // fires whenever admission control (not the cap) decided the race.
  std::atomic<size_t> shed{0};
  {
    TaskGroup group(exec, SharedDeadline(options));
    for (size_t i = 0; i < variants.size(); ++i) {
      // A variant with its own (tighter) budget also *queues* under it:
      // the per-task EDF deadline makes a staged plan's probe overtake
      // queued full-budget work instead of sorting by the race cap.
      const Deadline vd = VariantDeadline(options, i, group.deadline());
      const uint32_t split = VariantSplit(variants, options, i);
      const Admission admission =
          group.Spawn(
              [&, i, vd, split](TaskStart start) {
                if (start != TaskStart::kRun) {
                  // Fast-cancel (the winner finished while this variant
                  // was still queued) or shed from a full queue; either
                  // way it never ran at all.
                  if (start == TaskStart::kShed) {
                    shed.fetch_add(1, std::memory_order_relaxed);
                  }
                  s.out.workers[i].result.cancelled = true;
                  return;
                }
                // A split variant fans its range tasks into the same
                // pool from inside this task; the helping Wait() keeps
                // the nesting deadlock-free.
                RunVariant(variants[i], i, split, options, vd, group.token(),
                           s);
              },
              vd);
      if (admission == Admission::kRejected) {
        // The closure never runs for a rejected spawn; the race proceeds
        // with the admitted subset (any completed variant is a correct
        // answer — losing contenders only cost potential speed).
        s.out.workers[i].result.cancelled = true;
        ++rejected;
      }
    }
    // Like the threads mode, wait for every member before returning:
    // stragglers abandon quickly once the group token is tripped, and the
    // outcome vector lives on this stack frame. With a watchdog armed
    // (explicit option, else PSI_WATCHDOG_GRACE_MS) and a budget set, the
    // wait is bounded at deadline + grace: past that the race is presumed
    // wedged — cancel everyone, note the firing, and drain. The final
    // unbounded Wait() is safe because cancelled queued members
    // fast-cancel and running members either poll their CostGuards or are
    // past the point of mattering; it cannot outwait a cooperative body.
    const std::chrono::nanoseconds grace = WatchdogGrace(options);
    if (grace.count() > 0 && group.deadline().enabled()) {
      if (!group.WaitUntil(group.deadline().at() + grace)) {
        s.out.watchdog_fired = true;
        FaultStats::Instance().NoteWatchdog();
        group.RequestStop();
        group.Wait();
      }
    } else {
      group.Wait();
    }
  }
  RaceResult out = FinishRace(s);
  out.rejected_variants = rejected + shed.load(std::memory_order_relaxed);
  return out;
}

RaceResult RaceSequential(std::span<const RaceVariant> variants,
                          const RaceOptions& options) {
  RaceResult out;
  out.workers.resize(variants.size());
  std::chrono::nanoseconds best{0};
  for (size_t i = 0; i < variants.size(); ++i) {
    MatchOptions mo;
    mo.max_embeddings = options.max_embeddings;
    // Each variant gets its own full cap (or its per-variant override),
    // measured from its own start — exactly the standalone execution the
    // paper's speedup* needs.
    if (const auto vb = VariantBudget(options, i); vb.count() > 0) {
      mo.deadline = Deadline::After(vb);
    }
    mo.guard_period = options.guard_period;
    bool crashed = false;
    MatchResult r = RunBodyIsolated(
        variants[i], VariantSplit(variants, options, i), mo, &crashed);
    if (crashed) ++out.variant_crashes;
    out.workers[i].name = variants[i].name;
    out.workers[i].result = r;
    if (r.complete && (out.winner < 0 || r.elapsed < best)) {
      out.winner = static_cast<int>(i);
      best = r.elapsed;
    }
  }
  if (out.winner >= 0) {
    out.result = out.workers[out.winner].result;
    out.wall = best;
  } else if (options.budget.count() > 0) {
    // All killed: the idealized race still costs the cap.
    out.wall = options.budget;
  } else {
    // Uncapped all-killed can only come from external cancellation; charge
    // the longest attempt.
    for (const auto& w : out.workers) {
      out.wall = std::max(out.wall, w.result.elapsed);
    }
  }
  return out;
}

}  // namespace

std::string_view ToString(RaceMode mode) {
  switch (mode) {
    case RaceMode::kThreads: return "threads";
    case RaceMode::kSequential: return "sequential";
    case RaceMode::kPool: return "pool";
  }
  return "?";
}

RaceResult Race(std::span<const RaceVariant> variants,
                const RaceOptions& options) {
  if (variants.empty()) {
    RaceResult empty;
    empty.mode = options.mode;
    return empty;
  }
  // Single-variant races still report the requested mode, so mode-tagged
  // metrics stay truthful. A one-contender kPool race runs on the calling
  // thread (RunsOnCaller) under the same deadline and crash isolation a
  // pool worker would give it.
  RaceResult out;
  switch (options.mode) {
    case RaceMode::kSequential:
      out = RaceSequential(variants, options);
      break;
    case RaceMode::kPool:
      out = RunsOnCaller(variants, options) ? RaceOnCaller(variants, options)
                                            : RacePool(variants, options);
      break;
    case RaceMode::kThreads:
      out = RaceThreads(variants, options);
      break;
  }
  out.mode = options.mode;
  if (options.mode == RaceMode::kPool &&
      out.rejected_variants == variants.size()) {
    // The bounded pool admitted nothing. Either run the whole race on the
    // calling thread (backpressure: an overloaded pool pushes work back
    // onto its clients) or report the overload for the caller to handle.
    if (options.on_overload == OverloadResponse::kFallbackSequential) {
      const size_t rejected = out.rejected_variants;
      out = RaceSequential(variants, options);
      out.mode = RaceMode::kSequential;  // truthful: that's how it ran
      out.rejected_variants = rejected;
    }
    // kFail: out already carries winner == -1 + rejected_variants == N.
  }
  return out;
}

}  // namespace psi
