// Machine-readable bench reports: every bench binary emits a
// BENCH_<name>.json next to its stdout tables, so CI (and humans
// diffing runs) can parse results without scraping ASCII tables.
//
// Layout (per result row, fields as each bench fills them):
//   { "name": "...", "quick": true, "seed": 42,
//     "results": [ {"scheme": "...", "n": 8, "mean_us": ..,
//                   "p50_us": .., "p99_us": ..}, ... ],
//     ... bench-specific extras ... }
#pragma once

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <utility>

#include "util/json.hpp"

namespace rdmamon::bench {

/// The process's start, taken during static initialisation (before
/// main), so wall_ms covers the whole run however late a bench builds its
/// report.
inline const std::chrono::steady_clock::time_point kProcessStart =
    std::chrono::steady_clock::now();

/// Builder + writer for one bench's BENCH_<name>.json. The document root
/// is an insertion-ordered JSON object; `results` is the conventional
/// per-configuration array. write() targets the current directory unless
/// RDMAMON_BENCH_DIR is set.
class JsonReport {
 public:
  /// Bump when the report layout changes shape (new top-level metadata,
  /// renamed conventional fields) so trajectory tooling can dispatch.
  static constexpr int kSchemaVersion = 2;

  explicit JsonReport(std::string name) : name_(std::move(name)) {
    root_ = util::JsonValue::object();
    root_["name"] = name_;
    root_["schema_version"] = kSchemaVersion;
    root_["results"] = util::JsonValue::array();
  }

  /// Run provenance (every bench calls this right after parse_args):
  /// which mode and seed produced these numbers — without it the perf
  /// trajectory across PRs is guesswork.
  void stamp(bool quick, std::uint64_t seed) {
    root_["quick"] = quick;
    root_["seed"] = seed;
  }

  util::JsonValue& root() { return root_; }

  /// Sets a top-level field (insertion-ordered).
  void set(const std::string& key, util::JsonValue v) {
    root_[key] = std::move(v);
  }

  /// Appends and returns a fresh row of the `results` array.
  util::JsonValue& add_result() {
    return root_["results"].push_back(util::JsonValue::object());
  }

  std::string filename() const {
    const char* dir = std::getenv("RDMAMON_BENCH_DIR");
    const std::string base = "BENCH_" + name_ + ".json";
    return dir != nullptr && dir[0] != '\0' ? std::string(dir) + "/" + base
                                            : base;
  }

  /// Writes the document; prints where it went (or why it could not).
  /// Adds the wall-clock metadata at the last moment so it covers the
  /// whole run (golden-trace checks treat these keys as volatile).
  bool write() {
    using namespace std::chrono;
    root_["wall_ms"] = static_cast<double>(
        duration_cast<microseconds>(steady_clock::now() - kProcessStart)
            .count()) /
        1000.0;
    root_["generated_unix_ms"] = static_cast<std::int64_t>(
        duration_cast<milliseconds>(system_clock::now().time_since_epoch())
            .count());
    const std::string path = filename();
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::cerr << "warning: cannot write " << path << "\n";
      return false;
    }
    const std::string text = root_.dump(2) + "\n";
    std::fwrite(text.data(), 1, text.size(), f);
    std::fclose(f);
    std::cout << "\n[report] wrote " << path << "\n";
    return true;
  }

 private:
  std::string name_;
  util::JsonValue root_;
};

}  // namespace rdmamon::bench
