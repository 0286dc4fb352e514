#include "workload/zipf.hpp"

namespace rdmamon::workload {

namespace {

/// Server-side cache: documents are cached in popularity order until this
/// budget is exhausted. The default corpus (~250 MB) is several times the
/// cache so the hit ratio actually depends on alpha.
constexpr std::uint64_t kCacheBytes = 64ull << 20;
/// Bounded-Pareto document sizes.
constexpr double kSizeShape = 1.2;
constexpr double kMinBytes = 2'048;
constexpr double kMaxBytes = 2'097'152;  // 2 MiB
/// Request parse + header cost.
constexpr sim::Duration kBaseCpu = sim::usec(200);
/// Serving from memory: per-byte copy cost.
constexpr double kMemNsPerByte = 0.05;
/// Serving from disk: per-byte transfer after the kDiskSeek seek.
constexpr double kDiskNsPerByte = 25.0;  // ~40 MB/s 2006-era disk

}  // namespace

ZipfTrace::ZipfTrace(ZipfTraceConfig cfg, std::uint64_t seed)
    : cfg_(cfg), zipf_(cfg.documents, cfg.alpha) {
  sim::Rng rng(seed);
  sizes_.reserve(cfg_.documents);
  for (std::size_t i = 0; i < cfg_.documents; ++i) {
    sizes_.push_back(static_cast<std::uint32_t>(
        rng.bounded_pareto(kSizeShape, kMinBytes, kMaxBytes)));
  }
  // Cache the most popular documents until the budget runs out.
  cached_.assign(cfg_.documents, false);
  std::uint64_t used = 0;
  for (std::size_t i = 0; i < cfg_.documents; ++i) {
    if (used + sizes_[i] > kCacheBytes) break;
    used += sizes_[i];
    cached_[i] = true;
  }
}

StaticRequest ZipfTrace::sample(sim::Rng& rng) const {
  StaticRequest r;
  r.doc_rank = zipf_.sample(rng);
  const std::size_t idx = r.doc_rank - 1;
  r.bytes = sizes_[idx];
  r.cached = cached_[idx];
  const double b = static_cast<double>(r.bytes);
  if (r.cached) {
    r.cpu_demand =
        kBaseCpu + sim::nsec(static_cast<std::int64_t>(b * kMemNsPerByte));
    r.io_wait = {};
  } else {
    r.cpu_demand = kBaseCpu;
    r.io_wait =
        kDiskSeek + sim::nsec(static_cast<std::int64_t>(b * kDiskNsPerByte));
  }
  return r;
}

double ZipfTrace::cached_request_fraction() const {
  double mass = 0.0;
  for (std::size_t i = 0; i < cached_.size(); ++i) {
    if (cached_[i]) mass += zipf_.pmf(i + 1);
  }
  return mass;
}

}  // namespace rdmamon::workload
