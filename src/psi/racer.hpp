// The Ψ-framework racing executor (paper §8).
//
// A race runs N variants of the same sub-iso test — each variant an
// (algorithm, query-rewriting) pair — and returns as soon as the first
// variant *completes* (exhausts its search or reaches the embedding cap;
// "no match" is as valid a completion as "found"). The remaining variants
// are cancelled through a shared StopToken, which their CostGuards poll
// every few hundred search steps; no thread is ever forcibly killed.
//
// Three execution modes:
//  * kThreads    — real std::thread racing, first-finisher-wins, one fresh
//                  thread per variant. Faithful to the paper's §8 setup;
//                  on a machine with >= N cores the query latency equals
//                  the fastest variant's time plus a small cancellation
//                  overhead, but every race pays thread create/join cost.
//  * kPool       — the deployment mode: variants are submitted as one
//                  cancellation TaskGroup to a persistent Executor
//                  (src/exec/). No per-race thread churn, races from many
//                  client threads share one pool, and losing variants that
//                  are still queued when the winner finishes are discarded
//                  without ever starting. A race with one contender runs
//                  it on the calling thread instead (it has nobody to
//                  race), unless a watchdog is armed or on_overload is
//                  kFail; it still reports kPool.
//  * kSequential — runs every variant to its own cap, one after another,
//                  and reports the idealized race outcome (winner = the
//                  fastest completed variant). This mode measures the full
//                  per-variant time vector, which the paper's speedup*
//                  analyses (§5-§7) need, and keeps results meaningful on
//                  machines with fewer cores than variants.

#ifndef PSI_PSI_RACER_HPP_
#define PSI_PSI_RACER_HPP_

#include <chrono>
#include <functional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/stop_token.hpp"
#include "exec/executor.hpp"
#include "match/matcher.hpp"

namespace psi {

/// One racing contender. `run` must honour the MatchOptions it is given
/// (deadline + stop token) — all library matchers do.
struct RaceVariant {
  std::string name;
  std::function<MatchResult(const MatchOptions&)> run;
  /// Optional split-enumeration entry point (match/parallel.hpp): run the
  /// same search with its root frontier split across `workers` executor
  /// tasks. Used when RaceOptions::variant_splits requests a width > 1
  /// for this variant; a variant without one falls back to `run`. The
  /// answer stream must be identical either way (MatchParallel's
  /// contract), so a split only changes wall-clock, never race outcomes'
  /// correctness.
  std::function<MatchResult(const MatchOptions&, uint32_t workers)>
      run_split = nullptr;
};

enum class RaceMode {
  kThreads,
  kSequential,
  kPool,
};

std::string_view ToString(RaceMode mode);

/// What a kPool race does when the bounded executor queue rejects *every*
/// variant (see exec/executor.hpp Admission).
enum class OverloadResponse : uint8_t {
  /// Run the race sequentially on the calling thread — the natural
  /// backpressure: an overloaded pool pushes work back onto clients, and
  /// the answer is still produced. RaceResult::mode reports kSequential.
  kFallbackSequential,
  /// Return immediately with winner == -1 and rejected_variants == N so
  /// the caller can surface a typed overload status (Status::Overloaded
  /// in PsiEngine) or retry elsewhere.
  kFail,
};

struct RaceOptions {
  /// Per-test kill budget (the paper's 10-minute cap, scaled); zero means
  /// uncapped. Kept relative rather than absolute so that sequential mode
  /// can grant each variant its own full cap.
  std::chrono::nanoseconds budget{0};
  /// Optional per-variant budget overrides, indexed like the `variants`
  /// span passed to Race(); entry i > 0 caps variant i at that budget
  /// instead of `budget` (a tighter-than-shared entry makes the variant a
  /// short *probe* — the staged-plan building block). Missing / zero
  /// entries inherit `budget`. In kPool mode a variant with its own
  /// budget also queues under that deadline (per-task EDF priority).
  std::vector<std::chrono::nanoseconds> variant_budgets;
  /// Optional per-variant split widths, indexed like `variants`; entry
  /// i > 1 runs variant i through its `run_split` hook with that many
  /// workers (EscalationPolicy::kSplit plans use this to throw the pool
  /// at the predicted winner instead of widening the race). Missing / 0 /
  /// 1 entries — or variants without a run_split — run serially.
  std::vector<uint32_t> variant_splits;
  /// Embedding cap forwarded to every variant (1 = decision problem,
  /// 1000 = the paper's NFV matching cap).
  uint64_t max_embeddings = 1;
  RaceMode mode = RaceMode::kThreads;
  uint32_t guard_period = 256;
  /// Pool used by kPool races; nullptr means the process-wide
  /// Executor::Shared(). Ignored by the other modes.
  Executor* executor = nullptr;
  /// Degradation when a bounded pool rejects the whole race (kPool only).
  OverloadResponse on_overload = OverloadResponse::kFallbackSequential;
  /// Per-query watchdog grace (kPool only): when > 0 and the race has a
  /// budget, a race whose TaskGroup is still pending `grace` past the
  /// shared deadline is torn down (RequestStop + drain) and reports
  /// watchdog_fired — the caller maps a lost race to
  /// Status::DeadlineExceeded. Zero falls back to the
  /// PSI_WATCHDOG_GRACE_MS env knob (default off). Variants poll their
  /// CostGuards, so the watchdog only fires for genuinely wedged bodies
  /// (or ones stalled by injected delays), never healthy slow ones.
  std::chrono::nanoseconds watchdog_grace{0};
};

/// Per-variant outcome of a race.
struct WorkerOutcome {
  std::string name;
  MatchResult result;
};

struct RaceResult {
  /// Index of the winning variant, or -1 when every variant was killed.
  int winner = -1;
  /// The winner's MatchResult (default-constructed when winner == -1).
  MatchResult result;
  /// Wall-clock time until the winner completed (threads/pool mode) or
  /// the idealized min over completed variants (sequential mode). Equals
  /// the cap when all variants were killed.
  std::chrono::nanoseconds wall{0};
  /// The mode the race actually executed under. This is the requested
  /// mode (even for one-variant races, so mode-labelled metrics stay
  /// truthful) except in exactly one case: a kPool race whose every
  /// variant was rejected by a bounded queue and that fell back to
  /// kSequential (see rejected_variants / OverloadResponse).
  RaceMode mode = RaceMode::kThreads;
  /// Variants a bounded pool displaced (kPool only): refused at
  /// admission *or* shed from the queue before starting. Their
  /// WorkerOutcome records a cancelled, never-run result. rejected == N
  /// means admission control decided the whole race, which was then
  /// degraded per RaceOptions::on_overload.
  size_t rejected_variants = 0;
  /// Variants whose body threw (a real matcher bug or an injected crash):
  /// each is absorbed as killed — cancelled-but-started, elapsed > 0 — and
  /// the race degrades to the survivors instead of propagating.
  size_t variant_crashes = 0;
  /// The per-query watchdog tore this race down (see
  /// RaceOptions::watchdog_grace). A race can still complete with the
  /// flag set — the watchdog may fire on a wedged *loser* — so callers
  /// must check completed() first.
  bool watchdog_fired = false;
  /// All per-variant outcomes, in variant order.
  std::vector<WorkerOutcome> workers;

  bool completed() const { return winner >= 0; }
  /// True when pool admission control touched this race at all.
  bool overloaded() const { return rejected_variants > 0; }
  double wall_ms() const {
    return std::chrono::duration<double, std::milli>(wall).count();
  }
};

/// Runs the race. Variants must be independently executable and must share
/// no mutable state (library matchers share only immutable indexes).
///
/// Thread-safety: Race is re-entrant and may be called from any number of
/// threads concurrently (including from inside pool tasks — a nested
/// kPool race is one more TaskGroup, and the helping Wait() keeps that
/// deadlock-free). All race state lives on the caller's stack.
RaceResult Race(std::span<const RaceVariant> variants,
                const RaceOptions& options);

}  // namespace psi

#endif  // PSI_PSI_RACER_HPP_
