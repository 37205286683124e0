#include "metrics/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace psi {

SummaryStats Summarize(std::span<const double> values) {
  SummaryStats s;
  s.count = values.size();
  if (values.empty()) return s;
  std::vector<double> sorted(values.begin(), values.end());
  std::sort(sorted.begin(), sorted.end());
  s.min = sorted.front();
  s.max = sorted.back();
  const size_t n = sorted.size();
  s.median = (n % 2 == 1) ? sorted[n / 2]
                          : 0.5 * (sorted[n / 2 - 1] + sorted[n / 2]);
  double sum = 0.0;
  for (double v : sorted) sum += v;
  s.mean = sum / static_cast<double>(n);
  double acc = 0.0;
  for (double v : sorted) acc += (v - s.mean) * (v - s.mean);
  s.std_dev = std::sqrt(acc / static_cast<double>(n));
  return s;
}

double Percentile(std::span<const double> values, double p) {
  // Drop non-finite samples before sorting: NaNs poison std::sort's strict
  // weak ordering, and one stray inf would leak into every high percentile
  // a bench writes to JSON.
  std::vector<double> sorted;
  sorted.reserve(values.size());
  for (double v : values) {
    if (std::isfinite(v)) sorted.push_back(v);
  }
  if (sorted.empty()) return 0.0;
  std::sort(sorted.begin(), sorted.end());
  // A NaN p compares false against everything — normalize it to 0 rather
  // than letting it ride through the rank arithmetic.
  if (!(p >= 0.0)) p = 0.0;
  if (p >= 100.0) return sorted.back();
  const double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

double WlaRatio(std::span<const double> base, std::span<const double> alt) {
  if (base.empty() || alt.empty()) return 0.0;
  double sb = 0.0, sa = 0.0;
  for (double v : base) sb += v;
  for (double v : alt) sa += v;
  if (sa == 0.0) return 0.0;
  // avg(base)/avg(alt) == (sb/nb)/(sa/na).
  return (sb / static_cast<double>(base.size())) /
         (sa / static_cast<double>(alt.size()));
}

std::vector<double> PerQueryRatios(std::span<const double> base,
                                   std::span<const double> alt) {
  std::vector<double> out;
  const size_t n = std::min(base.size(), alt.size());
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    out.push_back(alt[i] > 0.0 ? base[i] / alt[i] : 0.0);
  }
  return out;
}

double QlaRatio(std::span<const double> base, std::span<const double> alt) {
  auto ratios = PerQueryRatios(base, alt);
  if (ratios.empty()) return 0.0;
  double sum = 0.0;
  for (double r : ratios) sum += r;
  return sum / static_cast<double>(ratios.size());
}

std::vector<double> MaxMinRatios(
    std::span<const std::vector<double>> per_query_instance_times) {
  std::vector<double> out;
  out.reserve(per_query_instance_times.size());
  for (const auto& row : per_query_instance_times) {
    if (row.empty()) continue;
    const auto [lo, hi] = std::minmax_element(row.begin(), row.end());
    out.push_back(*lo > 0.0 ? *hi / *lo : 0.0);
  }
  return out;
}

std::vector<double> BestOf(
    std::span<const std::vector<double>> per_query_alternative_times) {
  std::vector<double> out;
  out.reserve(per_query_alternative_times.size());
  for (const auto& row : per_query_alternative_times) {
    if (row.empty()) {
      out.push_back(0.0);
      continue;
    }
    out.push_back(*std::min_element(row.begin(), row.end()));
  }
  return out;
}

std::string_view ToString(Bucket b) {
  switch (b) {
    case Bucket::kEasy: return "easy";
    case Bucket::kMid: return "2\"-600\"";
    case Bucket::kHard: return "hard";
  }
  return "?";
}

double PoolGauges::utilization() const {
  if (num_threads == 0) return 0.0;
  const size_t busy = std::min(busy_workers, num_threads);
  return static_cast<double>(busy) / static_cast<double>(num_threads);
}

double PoolGauges::discard_rate() const {
  if (tasks_executed == 0) return 0.0;
  return static_cast<double>(tasks_discarded) /
         static_cast<double>(tasks_executed);
}

const double PoolGauges::kWaitBucketUpperMs[PoolGauges::kWaitBuckets - 1] = {
    0.1, 1.0, 10.0, 100.0, 1000.0};

size_t PoolGauges::WaitBucketFor(double ms) {
  for (size_t i = 0; i + 1 < kWaitBuckets; ++i) {
    if (ms < kWaitBucketUpperMs[i]) return i;
  }
  return kWaitBuckets - 1;
}

double PoolGauges::mean_queue_wait_ms() const {
  if (queue_wait_count == 0) return 0.0;
  return queue_wait_total_ms / static_cast<double>(queue_wait_count);
}

double PoolGauges::filter_prune_rate() const {
  if (filter_candidates_in == 0) return 0.0;
  return static_cast<double>(filter_candidates_pruned) /
         static_cast<double>(filter_candidates_in);
}

std::string FormatPoolGauges(const PoolGauges& g) {
  std::string out = "pool[threads=" + std::to_string(g.num_threads);
  out += " busy=" + std::to_string(g.busy_workers);
  out += " queue=" + std::to_string(g.queue_depth);
  out += " peak_queue=" + std::to_string(g.peak_queue_depth);
  out += " submitted=" + std::to_string(g.tasks_submitted);
  out += " executed=" + std::to_string(g.tasks_executed);
  out += " discarded=" + std::to_string(g.tasks_discarded);
  if (g.tasks_rejected > 0) {
    out += " rejected=" + std::to_string(g.tasks_rejected);
  }
  if (g.tasks_shed > 0) out += " shed=" + std::to_string(g.tasks_shed);
  char buf[48];
  if (g.queue_wait_count > 0) {
    std::snprintf(buf, sizeof(buf), " avg_wait=%.2fms",
                  g.mean_queue_wait_ms());
    out += buf;
  }
  std::snprintf(buf, sizeof(buf), " util=%.0f%%", 100.0 * g.utilization());
  out += buf;
  out += "]";
  return out;
}

std::string FormatQueueWaitHistogram(const PoolGauges& g) {
  std::string out;
  char buf[64];
  for (size_t i = 0; i < PoolGauges::kWaitBuckets; ++i) {
    if (i + 1 < PoolGauges::kWaitBuckets) {
      std::snprintf(buf, sizeof(buf), "  <%gms\t%llu\n",
                    PoolGauges::kWaitBucketUpperMs[i],
                    static_cast<unsigned long long>(g.queue_wait_hist[i]));
    } else {
      std::snprintf(buf, sizeof(buf), "  >=%gms\t%llu\n",
                    PoolGauges::kWaitBucketUpperMs[i - 1],
                    static_cast<unsigned long long>(g.queue_wait_hist[i]));
    }
    out += buf;
  }
  return out;
}

std::string FormatFilterGauges(const PoolGauges& g) {
  if (g.filter_queries == 0) return "";
  std::string out = "filter[queries=" + std::to_string(g.filter_queries);
  out += " considered=" + std::to_string(g.filter_candidates_in);
  out += " pruned=" + std::to_string(g.filter_candidates_pruned);
  char buf[48];
  std::snprintf(buf, sizeof(buf), " prune=%.0f%%]",
                100.0 * g.filter_prune_rate());
  return out + buf;
}

std::string FormatKernelGauges(const PoolGauges& g) {
  if (g.kernel_matches == 0) return "";
  std::string out = "kernel[matches=" + std::to_string(g.kernel_matches);
  out += " indexed=" + std::to_string(g.kernel_indexed_matches);
  out += " tried=" + std::to_string(g.kernel_candidates_tried);
  out += " nlf_rejects=" + std::to_string(g.kernel_nlf_rejects);
  out += " bitset_checks=" + std::to_string(g.kernel_bitset_checks);
  out += " slice_cands=" + std::to_string(g.kernel_slice_candidates);
  if (g.kernel_multiway_intersections > 0 ||
      g.kernel_intersection_shortcuts > 0) {
    out += " multiway=" + std::to_string(g.kernel_multiway_intersections);
    out += " shortcuts=" + std::to_string(g.kernel_intersection_shortcuts);
  }
  if (g.kernel_split_matches > 0) {
    out += " split=" + std::to_string(g.kernel_split_matches);
    out += " split_tasks=" + std::to_string(g.kernel_split_tasks);
    out += " split_inline=" + std::to_string(g.kernel_split_tasks_inline);
    out += " split_budget_stops=" +
           std::to_string(g.kernel_split_budget_stops);
  }
  out += "]";
  return out;
}

std::string FormatFaultGauges(const PoolGauges& g) {
  if (g.fault_injected == 0 && g.fault_variant_crashes == 0 &&
      g.fault_retries == 0 && g.fault_watchdog_fires == 0) {
    return "";
  }
  std::string out = "fault[injected=" + std::to_string(g.fault_injected);
  out += " variant_crashes=" + std::to_string(g.fault_variant_crashes);
  out += " retries=" + std::to_string(g.fault_retries);
  out += " watchdog_fires=" + std::to_string(g.fault_watchdog_fires);
  out += "]";
  return out;
}

Bucket Classify(double ms, bool killed, const BucketThresholds& t) {
  if (killed || (t.cap_ms > 0.0 && ms >= t.cap_ms)) return Bucket::kHard;
  if (ms < t.easy_ms) return Bucket::kEasy;
  return Bucket::kMid;
}

double BucketBreakdown::PercentEasy() const {
  return total() == 0 ? 0.0 : 100.0 * easy_count / total();
}
double BucketBreakdown::PercentMid() const {
  return total() == 0 ? 0.0 : 100.0 * mid_count / total();
}
double BucketBreakdown::PercentHard() const {
  return total() == 0 ? 0.0 : 100.0 * hard_count / total();
}

BucketBreakdown BreakdownWorkload(std::span<const double> times_ms,
                                  std::span<const uint8_t> killed,
                                  const BucketThresholds& t) {
  BucketBreakdown b;
  double easy_sum = 0.0, mid_sum = 0.0;
  for (size_t i = 0; i < times_ms.size(); ++i) {
    const bool k = i < killed.size() && killed[i] != 0;
    switch (Classify(times_ms[i], k, t)) {
      case Bucket::kEasy:
        ++b.easy_count;
        easy_sum += times_ms[i];
        break;
      case Bucket::kMid:
        ++b.mid_count;
        mid_sum += times_ms[i];
        break;
      case Bucket::kHard:
        ++b.hard_count;
        break;
    }
  }
  if (b.easy_count > 0) b.easy_avg_ms = easy_sum / b.easy_count;
  if (b.mid_count > 0) b.mid_avg_ms = mid_sum / b.mid_count;
  const size_t completed = b.easy_count + b.mid_count;
  if (completed > 0) b.completed_avg_ms = (easy_sum + mid_sum) / completed;
  return b;
}

}  // namespace psi
