// Moment statistics and histograms.
//
// The paper's Figures 8 and 11 report cell-volume / density-contrast
// histograms annotated with bin width, range, skewness, and kurtosis; this
// header provides exactly those quantities.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace tess::util {

/// Streaming central moments up to fourth order (Welford/Pebay update),
/// yielding mean, variance, skewness, and (non-excess) kurtosis.
class Moments {
 public:
  void add(double x);
  /// Merge another accumulator (used to combine per-block statistics).
  void merge(const Moments& other);

  [[nodiscard]] std::size_t count() const { return n_; }
  [[nodiscard]] double mean() const { return mean_; }
  /// Population variance (divides by n).
  [[nodiscard]] double variance() const;
  [[nodiscard]] double stddev() const;
  /// g1 = m3 / m2^(3/2). Zero when fewer than 2 samples or zero variance.
  [[nodiscard]] double skewness() const;
  /// Pearson kurtosis m4 / m2^2 (normal distribution -> 3).
  [[nodiscard]] double kurtosis() const;
  [[nodiscard]] double min() const { return min_; }
  [[nodiscard]] double max() const { return max_; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0, m2_ = 0.0, m3_ = 0.0, m4_ = 0.0;
  double min_ = 0.0, max_ = 0.0;
};

/// Fixed-range equal-width histogram with moment annotations, matching the
/// presentation of the paper's Figures 8 and 11.
class Histogram {
 public:
  /// `lo`/`hi` bound the binned range; samples outside are counted in
  /// underflow/overflow but still contribute to the moments. Throws
  /// std::invalid_argument when `bins` is 0.
  Histogram(double lo, double hi, std::size_t bins);

  void add(double x);
  void merge(const Histogram& other);

  [[nodiscard]] double lo() const { return lo_; }
  [[nodiscard]] double hi() const { return hi_; }
  [[nodiscard]] std::size_t bins() const { return counts_.size(); }
  [[nodiscard]] double bin_width() const;
  [[nodiscard]] std::size_t count(std::size_t bin) const { return counts_[bin]; }
  [[nodiscard]] const std::vector<std::size_t>& counts() const { return counts_; }
  [[nodiscard]] std::size_t underflow() const { return underflow_; }
  [[nodiscard]] std::size_t overflow() const { return overflow_; }
  [[nodiscard]] std::size_t total() const;
  [[nodiscard]] const Moments& moments() const { return moments_; }

  /// Fraction of binned samples falling in the lowest `fraction` of the
  /// range (e.g. the paper's "75% of the cells are in the smallest 10% of
  /// the volume range").
  [[nodiscard]] double fraction_below(double fraction) const;

  /// Multi-line ASCII rendering with the same annotations as the paper's
  /// figures (bins, range, bin width, skewness, kurtosis).
  [[nodiscard]] std::string render(std::size_t width = 60) const;

  /// Reassemble a histogram from transported state (used by the in situ
  /// cross-rank reduction in analysis/insitu_stats.hpp).
  static Histogram from_state(double lo, double hi, std::vector<std::size_t> counts,
                              std::size_t underflow, std::size_t overflow,
                              const Moments& moments);

 private:
  double lo_, hi_;
  std::vector<std::size_t> counts_;
  std::size_t underflow_ = 0, overflow_ = 0;
  Moments moments_;
};

}  // namespace tess::util
