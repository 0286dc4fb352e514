// Zipf-popularity static-content trace (the paper's second co-hosted web
// service, Section 5.2.1). Popularity follows Zipf(alpha); document sizes
// are heavy-tailed; the most popular documents fit the in-memory cache.
// Low alpha spreads requests across uncached documents, making per-request
// cost divergent — exactly the regime where fine-grained monitoring pays.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/random.hpp"
#include "sim/time.hpp"

namespace rdmamon::workload {

/// Serving an uncached document: a disk seek of this long plus the
/// transfer, both I/O wait (no CPU).
inline constexpr sim::Duration kDiskSeek = sim::msec(5);

struct ZipfTraceConfig {
  std::size_t documents = 20'000;
  double alpha = 0.5;
};

/// One sampled static request with its resolved service demands.
struct StaticRequest {
  std::size_t doc_rank = 0;  ///< 1-based popularity rank
  std::size_t bytes = 0;
  bool cached = false;
  sim::Duration cpu_demand{};  ///< CPU burst at the server
  sim::Duration io_wait{};     ///< disk wait (no CPU)
};

class ZipfTrace {
 public:
  /// Builds the document set deterministically from `seed`.
  ZipfTrace(ZipfTraceConfig cfg, std::uint64_t seed);

  /// Samples one request.
  StaticRequest sample(sim::Rng& rng) const;

  /// Fraction of *requests* (probability mass) served from cache.
  double cached_request_fraction() const;

  std::size_t documents() const { return sizes_.size(); }
  double alpha() const { return cfg_.alpha; }
  const ZipfTraceConfig& config() const { return cfg_; }

 private:
  ZipfTraceConfig cfg_;
  sim::ZipfDistribution zipf_;
  std::vector<std::uint32_t> sizes_;  // by popularity rank (1-based -> idx 0)
  std::vector<bool> cached_;
};

}  // namespace rdmamon::workload
