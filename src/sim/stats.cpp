#include "sim/stats.hpp"

#include <algorithm>
#include <cmath>

namespace rdmamon::sim {

void OnlineStats::add(double x) {
  ++n_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

double OnlineStats::variance() const {
  return n_ ? m2_ / static_cast<double>(n_) : 0.0;
}

double OnlineStats::stddev() const { return std::sqrt(variance()); }

void OnlineStats::merge(const OnlineStats& o) {
  if (o.n_ == 0) return;
  if (n_ == 0) {
    *this = o;
    return;
  }
  const double na = static_cast<double>(n_);
  const double nb = static_cast<double>(o.n_);
  const double delta = o.mean_ - mean_;
  const double nt = na + nb;
  mean_ += delta * nb / nt;
  m2_ += o.m2_ + delta * delta * na * nb / nt;
  n_ += o.n_;
  sum_ += o.sum_;
  min_ = std::min(min_, o.min_);
  max_ = std::max(max_, o.max_);
}

int Histogram::bucket_of(double v) {
  if (!(v >= 1.0)) return 0;  // [0, 1), negative values and NaN
  if (std::isinf(v)) return kBuckets - 1;
  const double l = std::log2(v);
  int b = static_cast<int>(l * kSubBuckets);
  return std::clamp(b, 0, kBuckets - 1);
}

void Histogram::hold(std::size_t n) {
  if (n <= buckets_.size()) return;
  n = (n + kSubBuckets - 1) / kSubBuckets * kSubBuckets;
  buckets_.reserve(n);  // exactly n: resize alone may double the block
  buckets_.resize(n, 0);
}

void Histogram::add(double v) {
  if (v < 0.0) v = 0.0;
  const auto b = static_cast<std::size_t>(bucket_of(v));
  hold(b + 1);
  ++buckets_[b];
  ++n_;
  stats_.add(v);
}

double Histogram::percentile(double q) const {
  if (n_ == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const auto target = static_cast<std::uint64_t>(
      q * static_cast<double>(n_ - 1));
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b < buckets_.size(); ++b) {
    seen += buckets_[b];
    if (seen > target) {
      // Representative value: geometric midpoint of the bucket.
      const double lo = std::exp2(static_cast<double>(b) / kSubBuckets);
      const double hi = std::exp2(static_cast<double>(b + 1) / kSubBuckets);
      const double mid = b == 0 ? 0.5 : std::sqrt(lo * hi);
      return std::clamp(mid, stats_.min(), stats_.max());
    }
  }
  return stats_.max();
}

void Histogram::merge(const Histogram& o) {
  hold(o.buckets_.size());
  for (std::size_t b = 0; b < o.buckets_.size(); ++b)
    buckets_[b] += o.buckets_[b];
  n_ += o.n_;
  stats_.merge(o.stats_);
}

void Histogram::reset() {
  buckets_.clear();
  n_ = 0;
  stats_ = OnlineStats{};
}

}  // namespace rdmamon::sim
