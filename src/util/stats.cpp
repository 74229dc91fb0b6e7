#include "util/stats.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

namespace tess::util {

void Moments::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  // One-pass update of central moments (Pebay 2008).
  const double n1 = static_cast<double>(n_);
  ++n_;
  const double n = static_cast<double>(n_);
  const double delta = x - mean_;
  const double delta_n = delta / n;
  const double delta_n2 = delta_n * delta_n;
  const double term1 = delta * delta_n * n1;
  mean_ += delta_n;
  m4_ += term1 * delta_n2 * (n * n - 3.0 * n + 3.0) + 6.0 * delta_n2 * m2_ -
         4.0 * delta_n * m3_;
  m3_ += term1 * delta_n * (n - 2.0) - 3.0 * delta_n * m2_;
  m2_ += term1;
}

void Moments::merge(const Moments& o) {
  if (o.n_ == 0) return;
  if (n_ == 0) {
    *this = o;
    return;
  }
  const double na = static_cast<double>(n_);
  const double nb = static_cast<double>(o.n_);
  const double n = na + nb;
  const double delta = o.mean_ - mean_;
  const double delta2 = delta * delta;
  const double delta3 = delta2 * delta;
  const double delta4 = delta2 * delta2;

  const double m2 = m2_ + o.m2_ + delta2 * na * nb / n;
  const double m3 = m3_ + o.m3_ + delta3 * na * nb * (na - nb) / (n * n) +
                    3.0 * delta * (na * o.m2_ - nb * m2_) / n;
  const double m4 =
      m4_ + o.m4_ +
      delta4 * na * nb * (na * na - na * nb + nb * nb) / (n * n * n) +
      6.0 * delta2 * (na * na * o.m2_ + nb * nb * m2_) / (n * n) +
      4.0 * delta * (na * o.m3_ - nb * m3_) / n;

  mean_ = (na * mean_ + nb * o.mean_) / n;
  m2_ = m2;
  m3_ = m3;
  m4_ = m4;
  n_ += o.n_;
  min_ = std::min(min_, o.min_);
  max_ = std::max(max_, o.max_);
}

double Moments::variance() const {
  return n_ > 0 ? m2_ / static_cast<double>(n_) : 0.0;
}

double Moments::stddev() const { return std::sqrt(variance()); }

double Moments::skewness() const {
  if (n_ < 2 || m2_ <= 0.0) return 0.0;
  const double n = static_cast<double>(n_);
  return std::sqrt(n) * m3_ / std::pow(m2_, 1.5);
}

double Moments::kurtosis() const {
  if (n_ < 2 || m2_ <= 0.0) return 0.0;
  const double n = static_cast<double>(n_);
  return n * m4_ / (m2_ * m2_);
}

Histogram::Histogram(double lo, double hi, std::size_t bins)
    : lo_(lo), hi_(hi), counts_(bins, 0) {
  if (bins == 0) throw std::invalid_argument("Histogram: bins must be positive");
}

double Histogram::bin_width() const {
  return (hi_ - lo_) / static_cast<double>(counts_.size());
}

void Histogram::add(double x) {
  moments_.add(x);
  if (x < lo_) {
    ++underflow_;
    return;
  }
  if (x >= hi_) {
    // The top edge is inclusive so the max sample lands in the last bin.
    if (x == hi_) {
      ++counts_.back();
    } else {
      ++overflow_;
    }
    return;
  }
  // Compared as a double before the conversion, so a NaN sample (which
  // fails both range tests above) lands in the last bin without UB.
  const double t = (x - lo_) / bin_width();
  const std::size_t last = counts_.size() - 1;
  ++counts_[t < static_cast<double>(last) ? static_cast<std::size_t>(t) : last];
}

void Histogram::merge(const Histogram& o) {
  for (std::size_t i = 0; i < counts_.size() && i < o.counts_.size(); ++i)
    counts_[i] += o.counts_[i];
  underflow_ += o.underflow_;
  overflow_ += o.overflow_;
  moments_.merge(o.moments_);
}

std::size_t Histogram::total() const {
  std::size_t t = underflow_ + overflow_;
  for (auto c : counts_) t += c;
  return t;
}

double Histogram::fraction_below(double fraction) const {
  std::size_t binned = 0;
  for (auto c : counts_) binned += c;
  if (binned == 0) return 0.0;
  const auto cutoff =
      static_cast<std::size_t>(fraction * static_cast<double>(counts_.size()));
  std::size_t below = 0;
  for (std::size_t i = 0; i < cutoff && i < counts_.size(); ++i)
    below += counts_[i];
  return static_cast<double>(below) / static_cast<double>(binned);
}

Histogram Histogram::from_state(double lo, double hi,
                                std::vector<std::size_t> counts,
                                std::size_t underflow, std::size_t overflow,
                                const Moments& moments) {
  Histogram h(lo, hi, counts.size());
  h.counts_ = std::move(counts);
  h.underflow_ = underflow;
  h.overflow_ = overflow;
  h.moments_ = moments;
  return h;
}

std::string Histogram::render(std::size_t width) const {
  std::ostringstream os;
  std::size_t peak = 1;
  for (auto c : counts_) peak = std::max(peak, c);
  os << "bins " << counts_.size() << "  range [" << lo_ << ", " << hi_
     << "]  bin width " << bin_width() << "\n";
  os << "n " << moments_.count() << "  mean " << moments_.mean() << "  skewness "
     << moments_.skewness() << "  kurtosis " << moments_.kurtosis() << "\n";
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    const double x0 = lo_ + static_cast<double>(i) * bin_width();
    const auto bar = static_cast<std::size_t>(
        static_cast<double>(counts_[i]) / static_cast<double>(peak) *
        static_cast<double>(width));
    os << x0 << "\t" << counts_[i] << "\t" << std::string(bar, '#') << "\n";
  }
  return os.str();
}

}  // namespace tess::util
