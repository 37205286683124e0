// Persistent execution layer for the Ψ-framework (deployment side).
//
// The paper's measurement protocol races variants on freshly spawned
// threads (src/psi/racer.cpp, RaceMode::kThreads), which is faithful to
// §8 but pays thread-creation/join cost on every sub-iso test and cannot
// serve more concurrent queries than cores without oversubscription. This
// subsystem provides the production alternative:
//
//  * Executor  — a fixed-size worker pool created once per process (or per
//                component); tasks are closures pulled from a shared,
//                bounded, deadline-ordered queue.
//  * TaskGroup — a join scope over a set of tasks, wrapping the existing
//                StopToken/Deadline machinery from core/stop_token.hpp so
//                a whole group can be cancelled cooperatively. A race is
//                one group; a parallel workload is one group; cancelling
//                the group trips every member's CostGuard.
//  * DrainIndices — the caller-plus-helpers fan-out over [0, count) that
//                index builds (sPath signatures, FTV shard tries) and the
//                parallel FTV runner share.
//
// Three properties make the pool safe to share across the whole system:
//
//  1. Fast-cancel at dequeue: a task whose group was cancelled before it
//     started never runs its body (it is counted in `tasks_discarded`).
//     Racing on the pool therefore costs ~nothing for variants that lose
//     while still queued — the main reason RaceMode::kPool beats
//     kThreads on throughput.
//
//  2. Helping Wait(): TaskGroup::Wait() runs queued tasks of *its own
//     group* on the waiting thread instead of blocking while such work
//     is available. Nested parallelism (a pooled workload whose queries
//     run pooled races) cannot deadlock: every blocked waiter can always
//     execute its group's queued tasks itself, and by induction over the
//     nesting the leaves complete. Scoping the help to the waiter's own
//     group keeps the recursion bounded by the nesting depth (never by
//     the queue length) and means a short query's Wait() never adopts
//     another client's long-running task.
//
//  3. Deadline-aware admission (this layer's multi-tenant story): the
//     queue is ordered earliest-deadline-first (EDF, FIFO tiebreak) so a
//     worker coming free always picks the most urgent queued task — a
//     short decision query with a tight cap overtakes a backlog of long
//     matching races instead of starving behind it. The queue is also
//     bounded (`ExecutorOptions::queue_capacity`, env PSI_POOL_QUEUE_CAP):
//     when it is full, admission either rejects the new task or sheds the
//     queued task with the *latest* deadline (`OverloadPolicy`), and the
//     caller is told via `Admission` so it can degrade gracefully (run
//     inline, fall back to a sequential race, or surface a typed
//     overload status) instead of queuing unboundedly.
//
// Thread-safety: every public member of Executor and TaskGroup may be
// called from any thread, except that a TaskGroup must stay alive until
// its Wait() returned (the destructor enforces this by cancelling and
// waiting).

#ifndef PSI_EXEC_EXECUTOR_HPP_
#define PSI_EXEC_EXECUTOR_HPP_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <limits>
#include <mutex>
#include <string_view>
#include <thread>
#include <vector>

#include "core/stop_token.hpp"
#include "metrics/metrics.hpp"

namespace psi {

class TaskGroup;

/// Outcome of submitting a task to a bounded executor queue.
enum class Admission : uint8_t {
  /// Enqueued (possibly after shedding a later-deadline victim).
  kAdmitted,
  /// Queue full and the task lost the admission decision; its closure
  /// will never run. The caller owns the fallback (run inline, degrade
  /// to a sequential race, or surface an overload status).
  kRejected,
};

/// What a bounded queue does when a task arrives and the queue is full.
enum class OverloadPolicy : uint8_t {
  /// Refuse the newcomer; the queued backlog is left untouched. Gives
  /// strict arrival-order fairness and pushes backpressure to the caller
  /// immediately.
  kRejectNew,
  /// Evict the queued task with the latest deadline to make room, unless
  /// the newcomer's own deadline is latest (then the newcomer is
  /// rejected). Shed tasks complete through their group as cancelled
  /// (`TaskStart::kShed`), so joins never hang. Prefers urgent work under
  /// overload at the cost of occasionally abandoning patient work.
  /// Requires deadline information: under QueueDiscipline::kFifo every
  /// task sorts equal, so this policy behaves exactly like kRejectNew.
  kShedLatestDeadline,
};

/// Order in which workers drain the queue.
enum class QueueDiscipline : uint8_t {
  /// Strict arrival order; deadlines are ignored. PR-1 behaviour, kept
  /// for comparison benchmarks (bench_executor_scheduling) and workloads
  /// with uniform task sizes.
  kFifo,
  /// Earliest-deadline-first with FIFO tiebreak; tasks with no deadline
  /// sort by an aged effective deadline (enqueue time +
  /// ExecutorOptions::no_deadline_aging) so they cannot starve under
  /// sustained deadlined load. The serving default.
  kEdf,
};

/// How a task's closure was started; see TaskGroup::Spawn.
enum class TaskStart : uint8_t {
  /// Normal start: do the work.
  kRun,
  /// The group was cancelled while the task was queued (fast-cancel):
  /// record a cancelled outcome and return without doing the work.
  kCancelled,
  /// The task was shed from a full queue to admit more-urgent work:
  /// same contract as kCancelled, but the group itself is still live.
  kShed,
};

std::string_view ToString(Admission a);
std::string_view ToString(OverloadPolicy p);
std::string_view ToString(QueueDiscipline d);

/// Construction-time configuration of an Executor.
struct ExecutorOptions {
  /// Worker count; 0 uses the PSI_POOL_THREADS / PSI_THREADS budget
  /// (core/env.hpp), i.e. hardware concurrency by default.
  size_t num_threads = 0;
  /// Maximum number of queued (not yet started) tasks. `kUnboundedQueue`
  /// disables admission control entirely; 0 is legal and means nothing
  /// may ever wait — every Spawn/Submit that cannot start immediately is
  /// rejected. Tasks whose group was already cancelled are purged before
  /// the capacity check, so they never count against it.
  size_t queue_capacity = kUnboundedQueue;
  OverloadPolicy overload_policy = OverloadPolicy::kRejectNew;
  QueueDiscipline discipline = QueueDiscipline::kEdf;
  /// Aging window for tasks with no deadline under EDF: such a task sorts
  /// as if its deadline were enqueue-time + window, so a sustained stream
  /// of deadlined work (whose sort keys keep advancing with the clock)
  /// overtakes it for at most roughly the window before the aged task's
  /// fixed key wins. Zero or negative disables aging — deadline-less
  /// tasks then sort after every deadlined task, and fire-and-forget
  /// Submit work can starve indefinitely under deadlined floods. Ignored
  /// by kFifo. Also the shed-victim ordering: kShedLatestDeadline evicts
  /// by *effective* (aged) deadline.
  std::chrono::nanoseconds no_deadline_aging = std::chrono::milliseconds(500);

  static constexpr size_t kUnboundedQueue =
      std::numeric_limits<size_t>::max();

  /// The serving defaults from the environment: PSI_POOL_THREADS workers,
  /// PSI_POOL_QUEUE_CAP capacity (<= 0 = unbounded), PSI_POOL_OVERLOAD
  /// policy ("reject" | "shed"), PSI_POOL_AGING_MS aging window, EDF
  /// discipline.
  static ExecutorOptions FromEnv();
};

/// A fixed-size worker pool over a bounded, deadline-ordered task queue.
///
/// Thread-safety: all public members may be called concurrently from any
/// thread. Destruction must not race with Submit or with TaskGroups still
/// built on this pool.
class Executor {
 public:
  /// Convenience: `num_threads` workers (0 = env budget); queue capacity
  /// and overload policy come from the environment (ExecutorOptions::
  /// FromEnv() — unbounded EDF unless PSI_POOL_QUEUE_CAP is set).
  explicit Executor(size_t num_threads = 0);
  explicit Executor(const ExecutorOptions& options);

  /// Drains the queue (every admitted task still runs, cancelled groups'
  /// tasks via their fast-cancel path) and joins the workers. Do not
  /// destroy an Executor while a TaskGroup built on it is still alive.
  ~Executor();

  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  /// Enqueues a fire-and-forget task with no deadline (under EDF it sorts
  /// by the aged effective deadline — see ExecutorOptions::
  /// no_deadline_aging — so deadlined floods cannot starve it). Returns
  /// kRejected — and never runs
  /// `task` — when the bounded queue refused it. Under
  /// OverloadPolicy::kShedLatestDeadline an *admitted* task may still be
  /// evicted later and silently never run; use TaskGroup::Spawn (whose
  /// closure observes TaskStart::kShed) when that must be detected.
  Admission Submit(std::function<void()> task);

  /// Runs the earliest-deadline queued task on the calling thread, if
  /// any is waiting. Returns false when the queue was empty.
  bool TryRunOne();

  size_t num_threads() const { return workers_.size(); }
  size_t queue_capacity() const { return options_.queue_capacity; }
  OverloadPolicy overload_policy() const { return options_.overload_policy; }
  QueueDiscipline discipline() const { return options_.discipline; }

  /// Consistent-enough snapshot of the pool counters (individual fields
  /// are exact; cross-field invariants may lag by in-flight tasks).
  PoolGauges gauges() const;

  /// The process-wide pool, created on first use from
  /// ExecutorOptions::FromEnv() and intentionally never destroyed (tasks
  /// may still be draining at exit).
  static Executor& Shared();

 private:
  friend class TaskGroup;

  /// A queued closure tagged with its owning group (nullptr for plain
  /// Submit), its EDF sort key, arrival sequence (FIFO tiebreak) and
  /// enqueue time (queue-wait histogram).
  struct QueuedTask {
    const TaskGroup* group = nullptr;
    std::function<void(TaskStart)> fn;
    Deadline::Clock::time_point deadline_key{};
    uint64_t seq = 0;
    Deadline::Clock::time_point enqueued_at{};
  };

  /// Admission decision + sorted insert. `deadline` is the task's EDF
  /// key — the spawning group's deadline, or a per-task override from
  /// TaskGroup::Spawn(fn, task_deadline) (ignored under kFifo).
  Admission Enqueue(const TaskGroup* group, Deadline deadline,
                    std::function<void(TaskStart)> fn);
  /// Runs the earliest queued task belonging to `group` on the calling
  /// thread; returns false when none is queued. The helping primitive
  /// TaskGroup::Wait() is built on.
  bool TryRunOneFromGroup(const TaskGroup* group);
  void RunNow(QueuedTask task);
  void WorkerLoop();
  void NoteDiscarded() { discarded_.fetch_add(1, std::memory_order_relaxed); }
  void RecordQueueWait(const QueuedTask& task);
  /// Removes queued tasks whose group was already cancelled (they free
  /// capacity for live work); returns them for fast-cancel completion
  /// outside the lock. Requires mutex_ held.
  std::vector<QueuedTask> PurgeCancelledLocked();

  ExecutorOptions options_;
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<QueuedTask> queue_;  // guarded by mutex_; sorted (key, seq)
  uint64_t next_seq_ = 0;         // guarded by mutex_
  uint64_t peak_queue_ = 0;       // guarded by mutex_
  bool shutdown_ = false;         // guarded by mutex_
  std::vector<std::thread> workers_;

  std::atomic<uint64_t> submitted_{0};
  std::atomic<uint64_t> executed_{0};
  std::atomic<uint64_t> discarded_{0};
  std::atomic<uint64_t> rejected_{0};
  std::atomic<uint64_t> shed_{0};
  std::atomic<uint64_t> busy_{0};
  std::atomic<uint64_t> wait_hist_[PoolGauges::kWaitBuckets] = {};
  std::atomic<uint64_t> wait_total_ns_{0};
  std::atomic<uint64_t> wait_count_{0};
};

/// A cancellable join scope over tasks submitted to one Executor.
///
/// Thread-safety: Spawn/Wait/RequestStop/pending may be called from any
/// thread; the group must stay alive until Wait() returned (the
/// destructor cancels and waits).
class TaskGroup {
 public:
  /// `deadline` plays two roles: members consult it for their own caps
  /// (the racer forwards it into MatchOptions), and under
  /// QueueDiscipline::kEdf it is the group's queue priority — earlier
  /// deadlines are drained first, no deadline sorts last. The group
  /// itself never enforces it.
  explicit TaskGroup(Executor& executor, Deadline deadline = Deadline());

  /// Cancels and waits for stragglers so no task outlives the group.
  ~TaskGroup();

  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  /// Schedules `fn` on the pool. `fn` receives how it was started (see
  /// TaskStart): on kCancelled/kShed the body must record a cancelled
  /// outcome and return immediately without doing its work. Returns
  /// kRejected when the bounded queue refused the task — then `fn` never
  /// runs at all and the task does not count as pending.
  Admission Spawn(std::function<void(TaskStart)> fn);

  /// Spawn with a *per-task* deadline: the task sorts in the EDF queue
  /// (and stands in shed-victim selection) by `task_deadline` instead of
  /// the group's deadline. A staged plan's probe task queues by its own
  /// short probe deadline rather than the race group's full budget; the
  /// group deadline still governs cancellation and Wait(). A disabled
  /// `task_deadline` falls back to the group deadline.
  Admission Spawn(std::function<void(TaskStart)> fn, Deadline task_deadline);

  /// Back-compat convenience: `fn(pre_cancelled)` where pre_cancelled
  /// covers both fast-cancel and shed starts.
  Admission Spawn(std::function<void(bool pre_cancelled)> fn);

  /// Blocks until every spawned task finished, running this group's
  /// queued tasks on the waiting thread meanwhile (see header comment).
  void Wait();

  /// Wait() bounded by an absolute deadline: returns false once `until`
  /// passes with tasks still pending — without cancelling anything.
  /// Unlike Wait() it never help-runs members: helping could pull a
  /// wedged body onto the waiting thread and hold it past the bound,
  /// which is exactly what a bounded wait exists to prevent. The
  /// watchdog primitive: the racer calls WaitUntil(budget + grace), and
  /// on false tears the group down itself (RequestStop() + Wait()).
  /// Returns true when the group drained.
  bool WaitUntil(Deadline::Clock::time_point until);

  /// Requests cooperative cancellation of all members: running tasks see
  /// it through their CostGuard, queued tasks are fast-cancelled.
  /// (Out of line so the `group.cancel` failpoint can perturb
  /// cancellation timing in chaos runs.)
  void RequestStop();

  const StopToken& stop() const { return stop_; }
  /// The token members should poll (e.g. via MatchOptions::stop).
  const StopToken* stop_token() const { return &stop_; }
  /// Mutable token access, for members that trip the group themselves
  /// (first-success-wins patterns like the Ψ racer).
  StopToken& token() { return stop_; }
  Deadline deadline() const { return deadline_; }

  /// Tasks spawned but not yet finished (racy by nature; exact only when
  /// no Spawn can run concurrently).
  size_t pending() const;

 private:
  void FinishOne();

  Executor* executor_;
  StopToken stop_;
  Deadline deadline_;
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  size_t pending_ = 0;  // guarded by mutex_
};

/// The one caller-plus-helpers fan-out for index-parallel work (index
/// builds and the parallel FTV runner): runs `body(i)` exactly once for
/// every i in [0, count) on the calling thread plus `helpers` tasks
/// spawned on `executor`. Every participant claims indices from one
/// atomic cursor. A helper the bounded queue rejects or sheds, or that a
/// fault displaces, claims nothing, and the caller's own drain finishes
/// the rest, so the work done is the same under any pool width, queue
/// capacity or fault schedule. A participant calls `make_body()` once, on
/// its first claimed index, and runs every index it claims through the
/// returned callable: per-participant scratch lives there, and a helper
/// that claims nothing allocates none. An exception a helper's body
/// throws is rethrown on the caller after the join.
template <typename MakeBody>
void DrainIndices(Executor& executor, size_t count, size_t helpers,
                  MakeBody&& make_body) {
  std::atomic<size_t> cursor{0};
  const auto participate = [&] {
    size_t i = cursor.fetch_add(1);
    if (i >= count) return;
    auto body = make_body();
    for (; i < count; i = cursor.fetch_add(1)) body(i);
  };
  std::mutex failure_mutex;
  std::exception_ptr failure;
  {
    TaskGroup group(executor);
    for (size_t h = 0; h < helpers; ++h) {
      group.Spawn([&](TaskStart start) {
        if (start != TaskStart::kRun) return;
        try {
          participate();
        } catch (...) {
          std::lock_guard<std::mutex> lock(failure_mutex);
          if (!failure) failure = std::current_exception();
        }
      });
    }
    participate();
    group.Wait();
  }
  if (failure) std::rethrow_exception(failure);
}

}  // namespace psi

#endif  // PSI_EXEC_EXECUTOR_HPP_
