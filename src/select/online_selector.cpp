#include "select/online_selector.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace psi {

void OnlineSelector::Featurize(const QueryFeatures& f, double out[6]) {
  // Log-ish scaling keeps heavy-tailed features (frequencies) comparable
  // with bounded ones (fractions).
  out[0] = std::log2(1.0 + f.num_vertices);
  out[1] = std::log2(1.0 + f.num_edges);
  out[2] = f.avg_degree;
  out[3] = f.path_fraction * 8.0;  // weight the shape signal up
  out[4] = std::log2(1.0 + static_cast<double>(f.min_label_freq));
  out[5] = std::log2(1.0 + f.avg_label_freq);
}

void OnlineSelector::Observe(const QueryFeatures& f, size_t winner_variant) {
  Sample s;
  Featurize(f, s.x);
  s.winner = winner_variant;
  if (samples_.size() < max_samples_) {
    samples_.push_back(s);
  } else if (!samples_.empty()) {
    samples_[oldest_] = s;
    oldest_ = (oldest_ + 1) % samples_.size();
  }
}

void OnlineSelector::set_max_samples(size_t n) {
  // Back to oldest-first storage, then drop the oldest beyond the new cap.
  std::rotate(samples_.begin(),
              samples_.begin() + static_cast<std::ptrdiff_t>(oldest_),
              samples_.end());
  oldest_ = 0;
  if (samples_.size() > n) {
    samples_.erase(samples_.begin(),
                   samples_.end() - static_cast<std::ptrdiff_t>(n));
  }
  max_samples_ = n;
}

std::vector<double> OnlineSelector::VoteScores(const QueryFeatures& f,
                                               size_t num_variants) const {
  std::vector<double> scores(num_variants, 0.0);
  if (samples_.empty() || num_variants == 0) return scores;
  double q[6];
  Featurize(f, q);
  // Distances to all samples, oldest first, so (distance, age) breaks
  // ties among equidistant samples; take the k nearest.
  std::vector<std::pair<double, size_t>> dist;
  dist.reserve(samples_.size());
  for (size_t i = 0, slot = oldest_; i < samples_.size(); ++i) {
    const Sample& s = samples_[slot];
    if (++slot == samples_.size()) slot = 0;
    double d2 = 0.0;
    for (int j = 0; j < 6; ++j) {
      const double d = q[j] - s.x[j];
      d2 += d * d;
    }
    dist.emplace_back(d2, i);
  }
  const size_t k = std::min(k_, dist.size());
  std::partial_sort(dist.begin(), dist.begin() + k, dist.end());
  for (size_t r = 0; r < k; ++r) {
    const Sample& s = SampleAt(dist[r].second);
    if (s.winner < num_variants) {
      scores[s.winner] += 1.0 / (1.0 + dist[r].first);
    }
  }
  return scores;
}

size_t OnlineSelector::Predict(const QueryFeatures& f,
                               size_t num_variants) const {
  const auto scores = VoteScores(f, num_variants);
  const auto it = std::max_element(scores.begin(), scores.end());
  if (it == scores.end() || *it <= 0.0) return kNoPrediction;
  return static_cast<size_t>(it - scores.begin());
}

std::vector<size_t> OnlineSelector::Rank(const QueryFeatures& f,
                                         size_t num_variants) const {
  const auto scores = VoteScores(f, num_variants);
  std::vector<size_t> order(num_variants);
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return scores[a] > scores[b];
  });
  return order;
}

}  // namespace psi
