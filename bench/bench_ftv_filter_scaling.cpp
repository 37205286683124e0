// FTV index scaling: the serial single-trie build vs range-sharded builds
// (ftv/filter_shards.hpp) on executor pools of growing width.
//
// Three quantities, all for Grapes-style (locations) indexes:
//  * index build time — a sharded build runs one trie task per graph-id
//    range on the pool, one range per pool worker (filter_shards = 0);
//    best of three builds per row;
//  * filter throughput — queries/second over a repeated workload,
//    filtering only (no verification), with `Filter` on each index; best
//    and worst of five windows of at least 200 ms each per row, taken
//    round-robin across the rows so every row sees the same host load;
//  * index size — postings over the index's range tries
//    (GrapesIndex::num_postings), one per (canonical label path, graph)
//    pair, so every row of one collection reads the same count.
//
// `Filter` walks an index's range tries serially with one merge-join
// kernel (ForEachCoveringGraph in ftv/filter_shards.hpp), so the ranges
// pay off only in the build; the filter rows show what walking several
// tries instead of one costs. SHAPE asserts byte-identical candidate sets
// and a >= 1.5x faster build at pool width 4. `--json out.json` archives
// every metric (see bench_util.hpp JsonOut).

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.hpp"
#include "exec/executor.hpp"
#include "grapes/grapes.hpp"

namespace psi {
namespace {

using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0)
      .count();
}

/// The bench collection: enough small stored graphs that the filter
/// stage, not the generator, dominates.
GraphDataset Collection() {
  gen::GraphGenLikeOptions o;
  o.num_graphs = static_cast<uint32_t>(240 * Scale());
  o.avg_nodes = 90;
  o.density = 0.05;
  o.num_labels = 12;
  o.seed = 20260730;
  return gen::GraphGenLike(o);
}

struct BuildRun {
  double best_ms = 0.0;
  double worst_ms = 0.0;
};

/// Builds a fresh index with `options` kBuilds times and keeps the last
/// one; nullptr when a build fails.
constexpr int kBuilds = 3;
std::unique_ptr<GrapesIndex> TimeBuilds(const GrapesOptions& options,
                                        const GraphDataset& ds,
                                        BuildRun* run) {
  std::unique_ptr<GrapesIndex> index;
  for (int i = 0; i < kBuilds; ++i) {
    index = std::make_unique<GrapesIndex>(options);
    const auto t0 = Clock::now();
    if (!index->Build(ds).ok()) return nullptr;
    const double ms = MsSince(t0);
    run->best_ms = i == 0 ? ms : std::min(run->best_ms, ms);
    run->worst_ms = std::max(run->worst_ms, ms);
  }
  return index;
}

struct FilterRun {
  double best_qps = 0.0;
  double worst_qps = 0.0;
  size_t candidates = 0;
};

/// One unmeasured warm-up pass per index, then kWindows rounds. A round
/// times one window of every index in turn, so window w of every row is
/// taken before window w+1 of any row and the rows' ratios compare
/// windows taken under the same stretch of host load. Each window repeats
/// whole passes of Filter over the workload until it has run for
/// kWindowMs, so a row's rate does not hang on a few milliseconds of
/// timing.
constexpr int kWindows = 5;
constexpr double kWindowMs = 200.0;
std::vector<FilterRun> MeasureFilters(
    std::span<const GrapesIndex* const> indexes,
    std::span<const gen::Query> workload) {
  for (const GrapesIndex* index : indexes) {
    for (const gen::Query& q : workload) index->Filter(q.graph);
  }
  std::vector<FilterRun> runs(indexes.size());
  for (int w = 0; w < kWindows; ++w) {
    for (size_t i = 0; i < indexes.size(); ++i) {
      FilterRun& run = runs[i];
      size_t queries = 0;
      double ms = 0.0;
      const auto t0 = Clock::now();
      do {
        run.candidates = 0;
        for (const gen::Query& q : workload) {
          run.candidates += indexes[i]->Filter(q.graph).size();
        }
        queries += workload.size();
        ms = MsSince(t0);
      } while (ms < kWindowMs);
      const double qps = 1000.0 * static_cast<double>(queries) / ms;
      run.best_qps = w == 0 ? qps : std::max(run.best_qps, qps);
      run.worst_qps = w == 0 ? qps : std::min(run.worst_qps, qps);
    }
  }
  return runs;
}

}  // namespace
}  // namespace psi

int main(int argc, char** argv) {
  using namespace psi;
  bench::JsonOut json("bench_ftv_filter_scaling", argc, argv);
  bench::Banner("bench_ftv_filter_scaling",
                "the ROADMAP filter-stage bottleneck (beyond the paper)");

  const GraphDataset ds = Collection();
  const auto workload =
      bench::FtvWorkload(ds, {4, 8}, bench::QueriesPerSize(12), 20260731);
  std::printf("collection: %zu graphs, workload: %zu queries\n\n",
              ds.size(), workload.size());
  json.Metric("hardware_concurrency",
              static_cast<double>(std::thread::hardware_concurrency()));

  // Every index is built first, then all rows' filter windows are taken
  // round-robin (MeasureFilters).
  // Serial baseline: the single-trie index, built inline.
  BuildRun serial_build;
  const auto serial = TimeBuilds(GrapesOptions{}, ds, &serial_build);
  if (serial == nullptr) return 1;
  const size_t widths[] = {1, 2, 4};
  std::vector<std::unique_ptr<Executor>> pools;
  std::vector<std::unique_ptr<GrapesIndex>> sharded;
  std::vector<BuildRun> builds(std::size(widths));
  for (size_t row = 0; row < std::size(widths); ++row) {
    ExecutorOptions eo;
    eo.num_threads = widths[row];
    pools.push_back(std::make_unique<Executor>(eo));
    GrapesOptions go;
    go.filter_shards = 0;  // one range per pool worker
    go.executor = pools.back().get();
    sharded.push_back(TimeBuilds(go, ds, &builds[row]));
    if (sharded.back() == nullptr) return 1;
  }
  std::vector<const GrapesIndex*> rows = {serial.get()};
  for (const auto& index : sharded) rows.push_back(index.get());
  const std::vector<FilterRun> filters = MeasureFilters(rows, workload);

  const FilterRun& base = filters[0];
  std::printf("%-20s build=%7.1fms (worst %7.1fms)  filter=%8.1f q/s "
              "(worst %8.1f)  candidates=%zu  postings=%zu\n",
              "serial/single-trie", serial_build.best_ms,
              serial_build.worst_ms, base.best_qps, base.worst_qps,
              base.candidates, serial->num_postings());
  json.Metric("serial_build_ms", serial_build.best_ms);
  json.Metric("serial_filter_qps", base.best_qps);
  json.Metric("serial_filter_qps_worst", base.worst_qps);
  json.Metric("serial_postings", static_cast<double>(serial->num_postings()));

  bool identical = true;
  double width4_build_ms = 0.0;
  for (size_t row = 0; row < std::size(widths); ++row) {
    const size_t width = widths[row];
    const GrapesIndex& index = *sharded[row];
    const BuildRun& build = builds[row];
    const FilterRun& run = filters[row + 1];
    // Candidate-set identity spot check (the differential harness in
    // tests/ftv_parallel_filter_test.cpp is the exhaustive version).
    for (const gen::Query& q : workload) {
      if (serial->Filter(q.graph) != index.Filter(q.graph)) {
        identical = false;
        break;
      }
    }
    char label[64];
    std::snprintf(label, sizeof(label), "width=%zu/ranges=%zu", width,
                  index.num_filter_shards());
    const double build_speedup =
        build.best_ms > 0.0 ? serial_build.best_ms / build.best_ms : 0.0;
    std::printf("%-20s build=%7.1fms (worst %7.1fms)  filter=%8.1f q/s "
                "(worst %8.1f)  build speedup=%.2fx  filter=%.2fx serial  "
                "postings=%zu\n",
                label, build.best_ms, build.worst_ms, run.best_qps,
                run.worst_qps, build_speedup,
                base.best_qps > 0.0 ? run.best_qps / base.best_qps : 0.0,
                index.num_postings());
    const std::string key = "width" + std::to_string(width);
    json.Metric(key + "_build_ms", build.best_ms);
    json.Metric(key + "_build_speedup", build_speedup);
    json.Metric(key + "_filter_qps", run.best_qps);
    json.Metric(key + "_filter_qps_worst", run.worst_qps);
    json.Metric(key + "_postings", static_cast<double>(index.num_postings()));
    if (width == 4) width4_build_ms = build.best_ms;

    PoolGauges g = pools[row]->gauges();
    index.filter_stats().AddTo(&g);
    std::printf("  %s\n  %s\n", FormatPoolGauges(g).c_str(),
                FormatFilterGauges(g).c_str());
  }

  std::printf("\n");
  bench::Shape(identical,
               "sharded candidate sets identical to the serial filter");
  bench::Shape(width4_build_ms > 0.0 &&
                   serial_build.best_ms >= 1.5 * width4_build_ms,
               "width-4 build >= 1.5x faster than the serial build");
  return 0;
}
