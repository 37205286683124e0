// Online variant prediction — the learning half of the paper's §9 future
// work ("using machine learning models to predict which version of our
// framework (algorithms, rewritings) to employ per query").
//
// A tiny instance-based learner: every completed race contributes one
// (query features -> winning variant) sample; prediction is a distance-
// weighted vote among the k nearest stored samples in normalized feature
// space. No training phase, no external dependencies, thread-compatible
// with an external lock (QueryPlanner, which owns the serving-path
// instance, serializes access under its mutex).

#ifndef PSI_SELECT_ONLINE_SELECTOR_HPP_
#define PSI_SELECT_ONLINE_SELECTOR_HPP_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "select/selector.hpp"

namespace psi {

class OnlineSelector {
 public:
  /// `k` = neighbourhood size for prediction.
  explicit OnlineSelector(size_t k = 5) : k_(k) {}

  /// Records that `winner_variant` won the race for a query with these
  /// features.
  void Observe(const QueryFeatures& f, size_t winner_variant);

  /// Predicts the most promising variant for `f` among
  /// [0, num_variants). With no (or irrelevant) history returns
  /// kNoPrediction.
  static constexpr size_t kNoPrediction = static_cast<size_t>(-1);
  size_t Predict(const QueryFeatures& f, size_t num_variants) const;

  /// Ranks all `num_variants` variants, most promising first; variants
  /// without any supporting samples keep their original relative order at
  /// the tail. Always returns a full permutation.
  std::vector<size_t> Rank(const QueryFeatures& f,
                           size_t num_variants) const;

  size_t sample_count() const { return samples_.size(); }
  /// Caps memory: oldest samples are dropped beyond this (default 4096).
  void set_max_samples(size_t n);

 private:
  struct Sample {
    double x[6];
    size_t winner;
  };
  static void Featurize(const QueryFeatures& f, double out[6]);
  std::vector<double> VoteScores(const QueryFeatures& f,
                                 size_t num_variants) const;
  /// The i-th oldest held sample.
  const Sample& SampleAt(size_t i) const {
    return samples_[(oldest_ + i) % samples_.size()];
  }

  size_t k_;
  size_t max_samples_ = 4096;
  /// A ring buffer once full: a new sample overwrites the oldest, at
  /// `oldest_`, so Observe never moves the others.
  std::vector<Sample> samples_;
  size_t oldest_ = 0;
};

}  // namespace psi

#endif  // PSI_SELECT_ONLINE_SELECTOR_HPP_
