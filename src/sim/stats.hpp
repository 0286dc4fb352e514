// Measurement plumbing: online moments and latency histograms with
// percentiles. Everything the benches report flows through these.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "sim/time.hpp"

namespace rdmamon::sim {

/// Welford online mean/variance plus min/max. O(1) memory.
class OnlineStats {
 public:
  void add(double x);

  std::uint64_t count() const { return n_; }
  double mean() const { return n_ ? mean_ : 0.0; }
  double variance() const;  ///< population variance
  double stddev() const;
  double min() const { return n_ ? min_ : 0.0; }
  double max() const { return n_ ? max_ : 0.0; }
  double sum() const { return sum_; }

  /// Merges another accumulator into this one (parallel reduction).
  void merge(const OnlineStats& o);

 private:
  std::uint64_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Log-bucketed histogram for nonnegative values (latencies in ns, queue
/// lengths, ...). 8 buckets per power of two, 512 in all: value v lands in
/// bucket floor(log2(v) * kSubBuckets). Percentile error < ~1.6%.
///
/// Memory is paid per use: only the buckets from 0 up to the highest
/// octave seen so far are held, grown one whole octave (8 buckets) at a
/// time when a value lands above them. An empty histogram allocates
/// nothing, and an add inside the held octaves allocates nothing.
/// Buckets past the held ones are zero, so every percentile, min, max
/// and mean equals the full 512-bucket layout's.
class Histogram {
 public:
  void add(double v);
  void add(Duration d) { add(static_cast<double>(d.ns)); }

  std::uint64_t count() const { return n_; }
  double min() const { return stats_.min(); }
  double max() const { return stats_.max(); }
  double mean() const { return stats_.mean(); }

  /// Value at quantile q in [0, 1]; 0 when empty.
  double percentile(double q) const;

  /// Merges another histogram (same layout by construction).
  void merge(const Histogram& o);

  /// Clears all samples; the held buckets' memory is kept for reuse.
  void reset();

 private:
  static constexpr int kSubBuckets = 8;  // per power of two
  static constexpr int kBuckets = 64 * kSubBuckets;
  static int bucket_of(double v);
  /// Holds at least `n` buckets, rounded up to whole octaves.
  void hold(std::size_t n);

  std::vector<std::uint64_t> buckets_;  ///< buckets 0 .. held octaves
  std::uint64_t n_ = 0;
  OnlineStats stats_;
};

}  // namespace rdmamon::sim
