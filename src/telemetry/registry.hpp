// The telemetry plane's metrics registry: labelled counters, gauges and
// log-bucketed histograms (reusing sim::Histogram / sim::OnlineStats),
// plus the flight recorder, bound to one simulation run.
//
// Design constraints, in order:
//
//  1. ZERO perturbation of the modelled system. Instruments never charge
//     simulated CPU or touch the event queue — recording a metric is a
//     wall-clock-only cost, so figure shapes (Figs 3-6) cannot move.
//  2. Zero-cost when disabled. Components cache instrument POINTERS at
//     wiring time; when no registry is installed the pointers stay null
//     and the inline record helpers below reduce to one branch — and when
//     the library is compiled with RDMAMON_TELEMETRY_ENABLED=0 they are
//     `if constexpr`-eliminated entirely (compile-time-checkable fast
//     path; see telemetry::kEnabled).
//  3. Lock-cheap. The simulator is single-threaded by construction, so
//     "lock-cheap" here is "lock-free": instruments are plain fields.
//  4. Deterministic export. Snapshots iterate a sorted instrument map, so
//     two runs with the same seed produce byte-identical dumps.
//
// Usage:
//   sim::Simulation simu;
//   telemetry::Registry reg;
//   reg.install(simu);                   // BEFORE wiring fabric/monitors
//   ... build and run the system ...
//   telemetry::Snapshot snap = reg.snapshot();
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/simulation.hpp"
#include "sim/stats.hpp"
#include "sim/time.hpp"
#include "telemetry/recorder.hpp"

#ifndef RDMAMON_TELEMETRY_ENABLED
#define RDMAMON_TELEMETRY_ENABLED 1
#endif

namespace rdmamon::telemetry {

class SloEngine;

/// Compile-time master switch. Building with
/// -DRDMAMON_TELEMETRY_ENABLED=0 turns every record helper into a
/// provable no-op (static_assert-checkable: `if constexpr` on this).
inline constexpr bool kEnabled = RDMAMON_TELEMETRY_ENABLED != 0;

/// Instrument labels: sorted key=value pairs. Construction sorts, so
/// {a=1,b=2} and {b=2,a=1} name the same instrument.
class Labels {
 public:
  Labels() = default;
  Labels(std::initializer_list<std::pair<std::string, std::string>> kv);

  Labels& add(std::string key, std::string value);

  const std::vector<std::pair<std::string, std::string>>& pairs() const {
    return kv_;
  }
  bool empty() const { return kv_.empty(); }

  /// Canonical `k1=v1,k2=v2` rendering (registry key + export format).
  std::string canonical() const;

 private:
  std::vector<std::pair<std::string, std::string>> kv_;
};

/// Monotonic event count.
class Counter {
 public:
  void inc(std::uint64_t n = 1) { v_ += n; }
  std::uint64_t value() const { return v_; }

 private:
  std::uint64_t v_ = 0;
};

/// Last-write-wins numeric level.
class Gauge {
 public:
  void set(double v) { v_ = v; }
  void add(double d) { v_ += d; }
  double value() const { return v_; }

 private:
  double v_ = 0.0;
};

/// Log-bucketed distribution (sim::Histogram layout: percentile error
/// under ~1.6%).
class HistogramMetric {
 public:
  void observe(double v) { h_.add(v); }
  void observe(sim::Duration d) { h_.add(d); }
  const sim::Histogram& histogram() const { return h_; }

 private:
  sim::Histogram h_;
};

/// Flattened percentile summary of one histogram at snapshot time.
struct HistogramSummary {
  std::uint64_t count = 0;
  double mean = 0.0, min = 0.0, max = 0.0;
  double p50 = 0.0, p90 = 0.0, p99 = 0.0;
};

/// One exported instrument value.
struct SnapshotEntry {
  enum class Kind { Counter, Gauge, Histogram };
  std::string name;
  std::string labels;  ///< canonical `k=v,...` ("" when unlabelled)
  Kind kind = Kind::Counter;
  double value = 0.0;       ///< counter / gauge
  HistogramSummary hist;    ///< histogram
};

/// A point-in-time, deterministic dump of every instrument.
struct Snapshot {
  sim::TimePoint at{};
  std::vector<SnapshotEntry> entries;

  /// First entry matching name (+ canonical labels, if non-empty);
  /// nullptr when absent. Linear scan — test/export convenience.
  const SnapshotEntry* find(std::string_view name,
                            std::string_view labels = "") const;
};

/// A Snapshot as a fixed-capacity, trivially copyable image: what a node
/// serves its own registry through, as a registered region whose DMA
/// hook rebuilds it from snapshot() at each READ. Names and labels live
/// in one text arena. Entries past either capacity are left out and
/// counted in `dropped`.
struct SnapshotImage {
  static constexpr std::size_t kMaxEntries = 256;
  static constexpr std::size_t kTextBytes = 16 * 1024;

  struct Entry {
    std::uint32_t name_at = 0;  ///< offsets into `text`
    std::uint32_t labels_at = 0;
    std::uint16_t name_len = 0;
    std::uint16_t labels_len = 0;
    SnapshotEntry::Kind kind = SnapshotEntry::Kind::Counter;
    double value = 0.0;
    HistogramSummary hist;
  };

  sim::TimePoint at{};
  std::uint32_t count = 0;    ///< entries in use
  std::uint32_t dropped = 0;  ///< snapshot entries that did not fit
  std::uint32_t text_used = 0;
  Entry entries[kMaxEntries];
  char text[kTextBytes] = {};

  SnapshotImage() = default;
  explicit SnapshotImage(const Snapshot& snap);
  /// The snapshot this image holds (minus the dropped entries).
  Snapshot snapshot() const;
};
static_assert(std::is_trivially_copyable_v<SnapshotImage>);

/// The metrics registry. One per simulation run; components resolve
/// instruments once at wiring time and record through the inline helpers.
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;
  ~Registry();

  /// Binds this registry to `simu`: instruments timestamp from its clock
  /// and components wired afterwards find it via Registry::of.
  void install(sim::Simulation& simu);

  /// The registry installed on `simu`, or nullptr (telemetry off).
  /// Compiled out (always nullptr) when kEnabled is false.
  static Registry* of(sim::Simulation& simu) {
    if constexpr (kEnabled) {
      return simu.telemetry();
    } else {
      (void)simu;
      return nullptr;
    }
  }

  /// Instrument lookup-or-create. Same (name, labels) -> same instrument.
  Counter& counter(std::string_view name, const Labels& labels = {});
  Gauge& gauge(std::string_view name, const Labels& labels = {});
  HistogramMetric& histogram(std::string_view name, const Labels& labels = {});

  /// Registers a collect hook run at the START of every snapshot();
  /// collectors typically publish gauges from component-owned counters
  /// (e.g. NIC packet counts) so hot paths need no double bookkeeping.
  /// The callback must outlive the registry or be removed with the
  /// returned id via remove_collector (component destructors do this).
  std::uint64_t add_collector(std::function<void(Registry&)> fn);
  void remove_collector(std::uint64_t id);

  /// The always-on flight recorder sharing this registry's clock.
  /// Components cache FlightRing pointers from it at wiring time.
  FlightRecorder& recorder() { return recorder_; }
  const FlightRecorder& recorder() const { return recorder_; }

  /// The SLO engine attached via SloEngine::install(), or nullptr (no
  /// SLOs declared). Components look up streams here and feed them.
  SloEngine* slo() { return slo_; }
  void set_slo(SloEngine* engine) { slo_ = engine; }

  /// Runs collectors, then flattens every instrument, sorted by
  /// (name, labels) — byte-deterministic for a deterministic run.
  Snapshot snapshot();

  std::size_t instrument_count() const { return instruments_.size(); }
  sim::TimePoint now() const { return simu_ ? simu_->now() : sim::TimePoint{}; }

 private:
  struct Instrument {
    SnapshotEntry::Kind kind;
    Counter counter;
    Gauge gauge;
    std::unique_ptr<HistogramMetric> hist;
  };

  Instrument& resolve(std::string_view name, const Labels& labels,
                      SnapshotEntry::Kind kind);

  sim::Simulation* simu_ = nullptr;
  // Keyed by (name, canonical labels): map iteration order IS the
  // deterministic export order.
  std::map<std::pair<std::string, std::string>, Instrument> instruments_;
  std::vector<std::pair<std::uint64_t, std::function<void(Registry&)>>>
      collectors_;
  std::uint64_t next_collector_id_ = 1;
  FlightRecorder recorder_;
  SloEngine* slo_ = nullptr;
};

/// RAII collector registration, safe under either destruction order:
/// removal is skipped when the registry already un-installed itself from
/// the simulation (Registry's destructor clears the hook).
class ScopedCollector {
 public:
  ScopedCollector() = default;
  ScopedCollector(const ScopedCollector&) = delete;
  ScopedCollector& operator=(const ScopedCollector&) = delete;
  ~ScopedCollector() { release(); }

  /// Registers `fn` on the registry installed on `simu` (no-op when
  /// telemetry is off). May be re-bound; the previous hook is released.
  void bind(sim::Simulation& simu, std::function<void(Registry&)> fn);
  void release();

  bool bound() const { return reg_ != nullptr; }

 private:
  sim::Simulation* simu_ = nullptr;
  Registry* reg_ = nullptr;
  std::uint64_t id_ = 0;
};

// --- hot-path record helpers -----------------------------------------------
// All tolerate null instrument pointers (telemetry off) and compile to
// nothing when kEnabled is false.

inline void add(Counter* c, std::uint64_t n = 1) noexcept {
  if constexpr (kEnabled) {
    if (c) c->inc(n);
  } else {
    (void)c;
    (void)n;
  }
}

inline void set(Gauge* g, double v) noexcept {
  if constexpr (kEnabled) {
    if (g) g->set(v);
  } else {
    (void)g;
    (void)v;
  }
}

inline void observe(HistogramMetric* h, double v) noexcept {
  if constexpr (kEnabled) {
    if (h) h->observe(v);
  } else {
    (void)h;
    (void)v;
  }
}

inline void observe(HistogramMetric* h, sim::Duration d) noexcept {
  observe(h, static_cast<double>(d.ns));
}

}  // namespace rdmamon::telemetry
