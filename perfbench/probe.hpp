// Host-side measurement helpers of the benchmark: process CPU time, peak
// resident set, the allocation counter fed by the replacement operator
// new (alloc_hook.cpp), and exact percentiles over recorded samples.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Process CPU time (user + system) in seconds.
double cpu_seconds();

/// Peak resident set of this process in MB (2^20 bytes).
double peak_rss_mb();

/// State of the counting operator new. The benchmark process is
/// single-threaded, so plain globals suffice.
struct AllocState {
  /// Allocations made outside BenchScope since process start.
  std::uint64_t counted = 0;
  /// > 0 while the benchmark's own bookkeeping runs (not counted).
  int bench_depth = 0;
  /// When set, called on every `sample_every`-th counted allocation
  /// after the `sample_base`-th.
  void (*on_sample)() = nullptr;
  std::uint64_t sample_every = 0;
  std::uint64_t sample_base = 0;
  bool in_sample = false;
};
extern AllocState g_alloc;

/// Called by every replacement operator new before it allocates.
inline void note_alloc() {
  if (g_alloc.bench_depth > 0) return;
  ++g_alloc.counted;
  if (g_alloc.on_sample != nullptr && !g_alloc.in_sample &&
      (g_alloc.counted - g_alloc.sample_base) % g_alloc.sample_every == 0) {
    g_alloc.in_sample = true;
    g_alloc.on_sample();
    g_alloc.in_sample = false;
  }
}

/// Marks the benchmark's own bookkeeping: allocations inside it are not
/// charged to the program.
class BenchScope {
 public:
  BenchScope() { ++g_alloc.bench_depth; }
  ~BenchScope() { --g_alloc.bench_depth; }
  BenchScope(const BenchScope&) = delete;
  BenchScope& operator=(const BenchScope&) = delete;
};

/// One percentile of a sample set, with the number of samples it was
/// taken from.
struct Quantile {
  double value = 0.0;
  std::size_t samples = 0;
};

/// Nearest-rank percentile (q in (0, 1]) of `v`, which is sorted in place.
/// The value is always one of the samples; an empty set gives 0.
Quantile percentile(std::vector<double>& v, double q);

/// "name = value unit (n=samples)", the report line for a percentile.
std::string describe(const std::string& name, const Quantile& q,
                     const std::string& unit);

}  // namespace perfbench
