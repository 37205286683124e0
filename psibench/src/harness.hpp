// The Ψ benchmark harness: generates a workload from a seed, computes its
// reference answers, serves it through the library's public API in a
// closed loop, checks every answer and reports end-to-end or per-layer
// metrics. psibench/README.md describes the workloads and metrics.

#ifndef PSIBENCH_HARNESS_HPP_
#define PSIBENCH_HARNESS_HPP_

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

namespace psibench {

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  /// Length of the measured window (and of the traced window).
  double seconds = 10.0;
  /// Report the per-layer metrics of a traced run instead of the
  /// end-to-end metrics.
  bool trace = false;
  /// Shrinks datasets and request pools so that a run takes about a
  /// second; for the harness self-tests.
  bool tiny = false;
  /// Self-test hook: client 0 flips the answer of its n-th measured
  /// request before checking it. -1 leaves every answer alone.
  int64_t flip_answer = -1;
  /// When not empty, the spans of the first traced requests are written
  /// to this file as tab-separated text.
  std::string trace_out;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunReport {
  /// Every answer matched the reference and, for a traced run, the
  /// per-layer self times accounted for the traced latency.
  bool correct = false;
  uint64_t attempted = 0;
  /// Requests not answered correctly: typed errors, cap kills and answers
  /// that differ from the reference.
  uint64_t failed = 0;
  std::vector<Metric> metrics;
};

const std::vector<std::string>& WorkloadNames();

/// CPUs this process may run on (what `nproc` prints): the executor's
/// width, and the cap on client threads.
size_t Nproc();

/// Runs one workload. Progress and human-readable results go to `log`.
/// Throws std::runtime_error when the inputs cannot be built.
RunReport RunWorkload(const RunConfig& config, std::ostream& log);

/// QueryFingerprint of the first `n` requests of client 0's stream.
std::vector<uint64_t> RequestStreamFingerprints(const std::string& workload,
                                                uint64_t seed, size_t n,
                                                bool tiny);

}  // namespace psibench

#endif  // PSIBENCH_HARNESS_HPP_
