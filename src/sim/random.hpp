// Deterministic random-number machinery: a fast engine plus the
// distributions the workloads need (exponential inter-arrivals, Zipf
// popularity, Pareto document sizes, ...). Only seeded engines, never
// std::random_device, so every experiment replays exactly.
#pragma once

#include <cstdint>
#include <vector>

namespace rdmamon::sim {

/// SplitMix64: used to expand a single user seed into engine state.
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();

 private:
  std::uint64_t state_;
};

/// Xoshiro256++ engine. Satisfies UniformRandomBitGenerator so it can be
/// plugged into <random> distributions, though we ship our own below.
class Xoshiro256 {
 public:
  using result_type = std::uint64_t;

  explicit Xoshiro256(std::uint64_t seed = 0x9E3779B97F4A7C15ull);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~0ull; }
  result_type operator()() { return next(); }

  std::uint64_t next();

  /// Derives an independent stream (for giving each model component its
  /// own engine without correlated sequences).
  Xoshiro256 split();

 private:
  std::uint64_t s_[4];
};

/// Random helpers bound to one engine. Cheap to copy.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : eng_(seed) {}
  explicit Rng(Xoshiro256 eng) : eng_(eng) {}

  /// Uniform double in [0, 1).
  double uniform();

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Exponential variate with the given mean (> 0).
  double exponential(double mean);

  /// Normal variate (Box-Muller, one value per call).
  double normal(double mean, double stddev);

  /// Bounded Pareto variate in [lo, hi] with shape alpha (> 0) — used for
  /// heavy-tailed web-document sizes.
  double bounded_pareto(double alpha, double lo, double hi);

  /// True with probability p.
  bool chance(double p) { return uniform() < p; }

  /// Derives an independent child Rng.
  Rng split() { return Rng(eng_.split()); }

  Xoshiro256& engine() { return eng_; }

 private:
  Xoshiro256 eng_;
};

/// Zipf(alpha) over ranks 1..n: P(rank i) proportional to 1/i^alpha.
/// The paper sweeps alpha in [0.25, 0.9].
///
/// Sampling inverts against the precomputed CDF, accelerated by a guide
/// table that narrows "first cdf_[i] >= u" to a handful of entries —
/// O(1) expected, and bit-for-bit the same rank per uniform draw as the
/// original binary search, so every figure driven by ZipfTrace replays
/// exactly. Each sample consumes exactly one uniform().
class ZipfDistribution {
 public:
  ZipfDistribution(std::size_t n, double alpha);

  /// Samples a rank in [1, n].
  std::size_t sample(Rng& rng) const;

  /// Probability mass of rank i (1-based).
  double pmf(std::size_t rank) const;

  std::size_t size() const { return cdf_.size(); }
  double alpha() const { return alpha_; }

  /// The internal CDF (cdf()[i] = P(rank <= i+1)). Exposed so tests can
  /// pin sample() to the exact "first cdf entry >= u" contract.
  const std::vector<double>& cdf() const { return cdf_; }

 private:
  void build_guide();

  double alpha_;
  std::vector<double> cdf_;      // cdf_[i] = P(rank <= i+1)
  std::vector<std::uint32_t> guide_;  // guide_[k] = first i: cdf_[i] >= k/G
};

}  // namespace rdmamon::sim
