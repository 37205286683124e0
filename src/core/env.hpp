// Environment-variable knobs for the scaled experiment protocol (DESIGN.md
// §7): the per-test cap standing in for the paper's 10-minute limit, the
// workload scale multiplier, and the racing thread budget.

#ifndef PSI_CORE_ENV_HPP_
#define PSI_CORE_ENV_HPP_

#include <cstdint>
#include <string>

namespace psi {

/// Reads an integer environment variable, falling back to `def` when unset,
/// unparseable, or overflowing int64.
int64_t EnvInt(const char* name, int64_t def);

/// Hardened knob reader: unset returns `def`; garbage / trailing junk /
/// overflow falls back to `def`, and a parsed value outside [min_v, max_v]
/// clamps to the nearest bound — both with a one-line stderr warning
/// naming the variable, so a typo'd knob is visible instead of silently
/// steering the engine. `def` itself is clamped into the range.
int64_t EnvIntClamped(const char* name, int64_t def, int64_t min_v,
                      int64_t max_v);

/// Reads a string environment variable, falling back to `def` when unset
/// or empty.
std::string EnvString(const char* name, const char* def);

/// Per-sub-iso-test cap in milliseconds (PSI_CAP_MS, default 250).
/// Stands in for the paper's 600 s kill limit.
int64_t CapMillis();

/// Workload scale multiplier (PSI_SCALE, default 1). Benches multiply
/// query counts (and some dataset sizes) by this.
int64_t Scale();

/// Thread budget for racing / multithreaded stages (PSI_THREADS,
/// default: hardware concurrency).
int64_t ThreadBudget();

/// Worker count of the shared persistent executor pool (PSI_POOL_THREADS,
/// default: ThreadBudget()). Lets deployments size the serving pool
/// independently of the per-race thread budget.
int64_t PoolThreads();

/// Queue capacity of the shared executor pool (PSI_POOL_QUEUE_CAP).
/// <= 0 (the default) means unbounded — no admission control. A positive
/// value bounds the number of queued tasks; overflowing submissions are
/// rejected or shed per PoolOverloadPolicyName().
int64_t PoolQueueCap();

/// Load-shedding policy of the shared pool when its bounded queue is full
/// (PSI_POOL_OVERLOAD): "reject" (default) refuses new tasks, "shed"
/// evicts the queued task with the latest deadline. Any other value falls
/// back to "reject" with a one-line stderr warning.
std::string PoolOverloadPolicyName();

/// Aging window for deadline-less pool tasks in milliseconds
/// (PSI_POOL_AGING_MS, default 500). Under EDF a task with no deadline
/// sorts as if its deadline were enqueue-time + window, so sustained
/// deadlined load cannot starve fire-and-forget work. <= 0 disables
/// aging (deadline-less tasks sort after everything, the PR-2
/// behaviour).
int64_t PoolAgingMillis();

/// CostGuard poll period — search steps between stop/deadline checks
/// (PSI_GUARD_PERIOD, default 256). Feeds PsiEngineOptions::guard_period
/// and, through it, RaceOptions::guard_period.
int64_t GuardPeriod();

/// Staged racing default for query plans (PSI_PLAN_STAGED, default 0,
/// clamped to [0, 1]): 1 makes QueryPlanner emit probe-then-escalate
/// plans once the selector is warm. Feeds PsiEngineOptions::staged.
bool PlanStaged();

/// Probe-budget percentage of the full race budget for staged plans
/// (PSI_PLAN_PROBE_PCT, default 10, clamped to [1, 100]).
int64_t PlanProbePercent();

/// Race outcomes the online selector must have observed before plans
/// narrow or stage the portfolio (PSI_PLAN_MIN_SAMPLES, default 8).
int64_t PlanMinSamples();

/// Shared candidate-index matching kernel (PSI_MATCH_INDEX, default 1,
/// clamped to [0, 1]): 1 makes Matcher::Prepare (and the Grapes/GGSX
/// builds) construct the label-partitioned adjacency + NLF + hub-bitset
/// index of match/candidate_index.hpp; 0 restores the paper-faithful
/// unindexed searches. Never changes answers, only effort.
bool MatchIndexEnabled();

/// Hub-bitset degree threshold of the candidate index
/// (PSI_MATCH_BITSET_DEGREE, default 64): vertices at or above it get a
/// dense adjacency bitset for O(1) backward-edge checks; <= 0 disables
/// the bitsets while keeping slices and NLF prefilters.
int64_t MatchBitsetDegree();

/// Intra-query split width (PSI_MATCH_SPLIT, default 0 = off): when > 1,
/// heavy Match() calls may partition their root candidate frontier into
/// up to this many executor tasks (match/parallel.hpp). Feeds
/// QueryPlannerOptions::split_workers, making staged plans escalate a
/// probe miss to a split run of the predicted winner
/// (EscalationPolicy::kSplit). Never changes answers, only wall-clock.
int64_t MatchSplit();

/// Minimum root-frontier candidates per split task
/// (PSI_MATCH_SPLIT_MIN_SLICE, default 8): searches whose estimated root
/// frontier is smaller than split * this run serially, or with a reduced
/// width — per-task candidate-building overhead is not worth amortizing
/// over tiny slices.
int64_t MatchSplitMinSlice();

/// Bounded retry budget for transient Overloaded races in the workload
/// runners (PSI_RETRY_MAX, default 0 = off, clamped to [0, 100]): each
/// admission-decided rejection sleeps an exponentially growing backoff
/// and re-races before the final attempt falls back to sequential.
int64_t RetryMax();

/// Base backoff in milliseconds for the retry ladder (PSI_RETRY_BASE_MS,
/// default 1, clamped to [1, 10000]); attempt k sleeps base * 2^k plus
/// deterministic jitter in [0, base).
int64_t RetryBaseMillis();

/// Per-query watchdog grace in milliseconds (PSI_WATCHDOG_GRACE_MS,
/// default 0 = off): a kPool race whose shared deadline passes by more
/// than this is torn down (RequestStop + drain) and reported as
/// Status::DeadlineExceeded instead of waiting on a wedged variant.
int64_t WatchdogGraceMillis();

}  // namespace psi

#endif  // PSI_CORE_ENV_HPP_
