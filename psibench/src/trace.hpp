// Spans and the arithmetic the traced run reports from them.
//
// The traced run records one span around every call it makes into a layer
// of the library (plan, observe, rewrite, race, variant body, FTV filter),
// all under one root span per request. Spans live in memory per request;
// the self time of each layer is computed once the request has returned.

#ifndef PSIBENCH_TRACE_HPP_
#define PSIBENCH_TRACE_HPP_

#include <array>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <span>
#include <vector>

namespace psibench {

/// What a span was recorded around.
enum class Op : uint8_t {
  kRequest,  ///< the whole request (root span)
  kPlan,     ///< QueryPlanner::Plan
  kObserve,  ///< QueryPlanner::Observe
  kRewrite,  ///< RewriteCache::Get / GetInstances
  kRace,     ///< ExecutePlan (one race, or one staged plan)
  kVariant,  ///< one variant body: Matcher::Match / VerifyCandidate
  kFilter,   ///< GrapesIndex::FilterSharded
  kQueue,    ///< a task of the request waiting in the executor's queue
  kFanOut,   ///< the request's tasks on the executor, first spawn to join
};
const char* OpName(Op op);

/// The layers self time is reported for, named after the library modules.
/// kRequest holds the time no layer call was in progress.
enum class Layer : uint8_t {
  kRequest,
  kPlan,
  kRewrite,
  kExec,
  kPsi,
  kMatch,
  kFtv
};
inline constexpr size_t kNumLayers = 7;
inline constexpr size_t kNumOps = 9;
const char* LayerName(Layer layer);
Layer LayerOf(Op op);

struct Span {
  Op op = Op::kRequest;
  /// Index of the parent span in the same request; -1 for the root.
  int32_t parent = -1;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  /// kVariant: the variant's universe index. kRace: the winner's universe
  /// index (-1 when every variant was killed). Otherwise -1.
  int32_t variant = -1;
};

/// Monotonic clock in nanoseconds (std::chrono::steady_clock).
int64_t NowNs();

/// The spans of one request. Begin and End may be called from any thread;
/// a span's parent must have begun before it.
class RequestTrace {
 public:
  int32_t Begin(Op op, int32_t parent, int32_t variant = -1);
  void End(int32_t id);
  /// Ends a kRace span and records the winning variant.
  void EndRace(int32_t id, int32_t winner);
  /// Every span recorded so far; read once the request has returned.
  const std::vector<Span>& spans() const { return spans_; }
  void Clear() { spans_.clear(); }

 private:
  std::mutex mutex_;
  std::vector<Span> spans_;  // guarded by mutex_ while the request runs
};

/// Self time of each layer over one request's spans, in nanoseconds.
///
/// Each span is first clipped to its parent's interval. Every instant is
/// then shared equally among the spans active at that instant that have no
/// active child. Concurrent sibling spans of one layer (the variants of a
/// race) therefore count an instant once, not once per sibling, and the
/// per-layer values sum exactly to the time covered by root spans.
std::array<double, kNumLayers> SelfTimesNs(std::span<const Span> spans);

/// The highest of the percentiles 0, 50, 90 and 99 that leaves at least 10
/// of `n` samples beyond it. A fixed ladder keeps runs with similar sample
/// counts on the same percentile. It stops at p99: on a 4-core host the
/// p99.9 of the sub-millisecond workloads swung by a factor of 6 between
/// runs, too wide to gate a change on.
double TailPercentileFor(size_t n);

}  // namespace psibench

#endif  // PSIBENCH_TRACE_HPP_
