// psibench: one run of one Ψ benchmark workload.
//
//   psibench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//            [--source-id <text>] [--trace-out <file>]
//
// Prints a machine fingerprint, progress, every metric with its unit, and
// as its last line one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Normally started through psibench/run.py, which builds it first.

#include <cstdio>
#include <cstring>
#include <exception>
#include <iostream>
#include <string>

#include "fault/failpoint.hpp"
#include "harness.hpp"
#include "match/intersect.hpp"

extern char** environ;

namespace {

int Usage(const char* msg) {
  std::fprintf(stderr,
               "psibench: %s\nusage: psibench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--source-id <text>] "
               "[--trace-out <file>]\n",
               msg);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  // The library reads PSI_* variables when options, executors and
  // failpoints are constructed; a stray one silently measures a different
  // program.
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "PSI_", 4) == 0) {
      std::fprintf(stderr,
                   "psibench: refusing to run with %s set; unset every "
                   "PSI_* variable\n",
                   *e);
      return 2;
    }
  }

  psibench::RunConfig cfg;
  std::string source_id = "unknown";
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        cfg.workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        cfg.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        cfg.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") return Usage("--trace takes 0 or 1");
        cfg.trace = value == "1";
      } else if (flag == "--source-id") {
        source_id = value;
      } else if (flag == "--trace-out") {
        cfg.trace_out = value;
      } else {
        return Usage(("unknown flag " + flag).c_str());
      }
    } catch (const std::exception&) {
      return Usage(("bad value for " + flag).c_str());
    }
  }
  if (!have_workload) return Usage("--workload is required");
  if (!(cfg.seconds > 0.0)) return Usage("--seconds must be positive");

  std::cout << "fingerprint: nproc=" << psibench::Nproc() << " simd=" << psi::ToString(psi::ActiveSimdLevel())
            << " faults=" << (psi::FaultsCompiledIn() ? "on" : "off")
            << " build=" << PSIBENCH_BUILD_TYPE << " source=" << source_id
            << "\n";
  std::cout << "run: workload=" << cfg.workload << " seed=" << cfg.seed
            << " seconds=" << cfg.seconds << " trace=" << cfg.trace << "\n";

  psibench::RunReport report;
  try {
    report = psibench::RunWorkload(cfg, std::cout);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "psibench: %s\n", e.what());
    return 1;
  }

  std::string json = "{\"correct\": ";
  json += report.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(report.attempted);
  json += ", \"failed\": " + std::to_string(report.failed);
  json += ", \"metrics\": {";
  char buf[64];
  for (size_t i = 0; i < report.metrics.size(); ++i) {
    const psibench::Metric& m = report.metrics[i];
    std::snprintf(buf, sizeof(buf), "%.17g", m.value);
    std::cout << "metric " << m.name << " = " << buf << " " << m.unit << "\n";
    if (i > 0) json += ", ";
    json += "\"" + m.name + "\": {\"value\": " + buf + ", \"unit\": \"" +
            m.unit + "\"}";
  }
  json += "}}";
  std::cout << json << std::endl;
  return 0;
}
