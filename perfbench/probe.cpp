#include "probe.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ctime>

namespace perfbench {

AllocState g_alloc;

double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

double peak_rss_mb() {
  // VmHWM is this address space's high-water mark. getrusage's ru_maxrss
  // would also count the image the parent had before exec.
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  long kb = 0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %ld kB", &kb) == 1) break;
  }
  std::fclose(f);
  return static_cast<double>(kb) / 1024.0;
}

Quantile percentile(std::vector<double>& v, double q) {
  if (v.empty()) return {};
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const std::size_t idx =
      rank < 1.0 ? 0 : std::min(v.size(), static_cast<std::size_t>(rank)) - 1;
  return {v[idx], v.size()};
}

std::string describe(const std::string& name, const Quantile& q,
                     const std::string& unit) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6g", q.value);
  return name + " = " + buf + " " + unit + " (n=" + std::to_string(q.samples) +
         ")";
}

}  // namespace perfbench
