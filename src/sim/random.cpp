#include "sim/random.hpp"

#include <cassert>
#include <cmath>

namespace rdmamon::sim {

std::uint64_t SplitMix64::next() {
  std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

namespace {
inline std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}
}  // namespace

Xoshiro256::Xoshiro256(std::uint64_t seed) {
  SplitMix64 sm(seed);
  for (auto& s : s_) s = sm.next();
}

std::uint64_t Xoshiro256::next() {
  const std::uint64_t result = rotl(s_[0] + s_[3], 23) + s_[0];
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

Xoshiro256 Xoshiro256::split() {
  // Seed a child engine from our own stream; adequate decorrelation for
  // simulation purposes.
  return Xoshiro256(next() ^ 0xD2B74407B1CE6E93ull);
}

double Rng::uniform() {
  // 53-bit mantissa trick for a uniform double in [0, 1).
  return static_cast<double>(eng_.next() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) {
  return lo + (hi - lo) * uniform();
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  assert(lo <= hi);
  const std::uint64_t range = static_cast<std::uint64_t>(hi - lo) + 1;
  if (range == 0) return static_cast<std::int64_t>(eng_.next());
  // Modulo bias is negligible for our ranges (<< 2^64), accepted here.
  return lo + static_cast<std::int64_t>(eng_.next() % range);
}

double Rng::exponential(double mean) {
  assert(mean > 0.0);
  double u;
  do {
    u = uniform();
  } while (u <= 0.0);
  return -mean * std::log(u);
}

double Rng::normal(double mean, double stddev) {
  double u1;
  do {
    u1 = uniform();
  } while (u1 <= 0.0);
  const double u2 = uniform();
  const double z = std::sqrt(-2.0 * std::log(u1)) *
                   std::cos(2.0 * 3.14159265358979323846 * u2);
  return mean + stddev * z;
}

double Rng::bounded_pareto(double alpha, double lo, double hi) {
  assert(alpha > 0.0 && lo > 0.0 && hi > lo);
  const double u = uniform();
  const double la = std::pow(lo, alpha);
  const double ha = std::pow(hi, alpha);
  return std::pow(-(u * ha - u * la - ha) / (ha * la), -1.0 / alpha);
}

ZipfDistribution::ZipfDistribution(std::size_t n, double alpha)
    : alpha_(alpha), cdf_(n) {
  assert(n > 0);
  double sum = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    sum += 1.0 / std::pow(static_cast<double>(i + 1), alpha);
    cdf_[i] = sum;
  }
  for (auto& c : cdf_) c /= sum;
  cdf_.back() = 1.0;  // guard against rounding
  build_guide();
}

void ZipfDistribution::build_guide() {
  // guide_[k] = first index whose cdf reaches k/G. For u in
  // [k/G, (k+1)/G) the answer lies in [guide_[k], guide_[k+1]], an O(1)
  // expected window, found by the same first-cdf->=u scan the original
  // binary search implemented — identical result for identical u.
  const std::size_t g = cdf_.size();
  guide_.resize(g + 1);
  std::size_t i = 0;
  for (std::size_t k = 0; k <= g; ++k) {
    const double threshold = static_cast<double>(k) / static_cast<double>(g);
    while (i < cdf_.size() - 1 && cdf_[i] < threshold) ++i;
    guide_[k] = static_cast<std::uint32_t>(i);
  }
}

std::size_t ZipfDistribution::sample(Rng& rng) const {
  const double u = rng.uniform();
  // Guide-table-narrowed scan for the first cdf_[i] >= u: same contract
  // (and same returned rank) as the original full binary search.
  const std::size_t g = guide_.size() - 1;
  std::size_t k = static_cast<std::size_t>(u * static_cast<double>(g));
  if (k >= g) k = g - 1;
  std::size_t i = guide_[k];
  while (cdf_[i] < u) ++i;
  return i + 1;
}

double ZipfDistribution::pmf(std::size_t rank) const {
  assert(rank >= 1 && rank <= cdf_.size());
  const double hi = cdf_[rank - 1];
  const double lo = rank >= 2 ? cdf_[rank - 2] : 0.0;
  return hi - lo;
}

}  // namespace rdmamon::sim
