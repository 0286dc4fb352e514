// Always-on flight recorder: fixed-size per-subsystem event rings cheap
// enough to leave enabled in every run, dumped as one merged,
// time-ordered JSON post-mortem when something goes wrong (an SLO alarm
// fires, a FaultInjector crash lands, or a test asserts).
//
// Design constraints mirror the registry's:
//
//  1. ZERO perturbation: recording never charges simulated CPU or touches
//     the event queue.
//  2. Memory paid per use, and no allocation once a ring is full: a ring
//     allocates a small buffer of POD events on its first record and
//     doubles it as it fills, up to its capacity, so a ring that never
//     records (a NIC that is only a READ target) costs its header alone
//     and one that records a few hundred events holds no more than
//     twice that; once it wraps it never allocates again. `kind` is a
//     static string literal (callers pass compile-time constants), so
//     record() is a handful of stores. A one-sided op is one record, at
//     its completion.
//  3. Bounded: each ring overwrites its oldest event when full and counts
//     the overwrite, so a week-long run costs the same memory as a short
//     one and the dump says how much history it lost.
//  4. Deterministic: a global sequence number breaks same-instant ties,
//     so the merged dump of a seeded run is byte-identical across runs.
//
// Components cache a FlightRing* at wiring time (exactly like instrument
// pointers) and record through the null-tolerant fr_record helpers.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "sim/time.hpp"
#include "util/json.hpp"

#ifndef RDMAMON_TELEMETRY_ENABLED
#define RDMAMON_TELEMETRY_ENABLED 1
#endif

namespace rdmamon::sim {
class Simulation;
}  // namespace rdmamon::sim

namespace rdmamon::telemetry {

class FlightRecorder;

/// One recorded event. `a`, `b` and `x` are kind-specific scalars (node
/// ids, slot indices, byte counts, ages) — the dump labels them
/// generically and tools/flightdump.py knows the common kinds.
struct FlightEvent {
  sim::TimePoint at{};
  std::uint64_t seq = 0;    ///< global order tiebreak for same-instant events
  const char* kind = "";    ///< static string literal, e.g. "read.ok"
  std::int64_t a = 0;
  std::int64_t b = 0;
  double x = 0.0;
};

/// One subsystem's bounded ring. Obtained from FlightRecorder::ring() at
/// wiring time; its first record allocates a small buffer, which
/// doubles each time it fills until it holds capacity() events; from
/// then on the ring overwrites its oldest event and never allocates.
class FlightRing {
 public:
  /// Records at the recorder's bound clock instant.
  void record(const char* kind, std::int64_t a = 0, std::int64_t b = 0,
              double x = 0.0);
  /// Records with an explicit timestamp (completion paths that carry
  /// their own stamp).
  void record_at(sim::TimePoint at, const char* kind, std::int64_t a = 0,
                 std::int64_t b = 0, double x = 0.0);

  const std::string& name() const { return name_; }
  std::size_t capacity() const { return capacity_; }
  std::size_t size() const { return size_; }
  std::uint64_t recorded() const { return recorded_; }
  std::uint64_t dropped() const { return dropped_; }

  /// Events oldest-first (test/dump convenience; copies).
  std::vector<FlightEvent> events() const;

 private:
  friend class FlightRecorder;
  /// Events the first record's buffer holds.
  static constexpr std::size_t kFirstBuffer = 16;

  FlightRecorder* owner_ = nullptr;
  std::string name_;
  std::size_t capacity_ = 0;
  /// Empty until the first record; grows by doubling to capacity_.
  std::vector<FlightEvent> buf_;
  std::size_t head_ = 0;  ///< next write position
  std::size_t size_ = 0;
  std::uint64_t recorded_ = 0;
  std::uint64_t dropped_ = 0;
};

/// The per-run recorder: owns every subsystem ring, merges them into one
/// time-ordered post-mortem document. One lives inside each
/// telemetry::Registry (Registry::recorder()).
class FlightRecorder {
 public:
  FlightRecorder() = default;
  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// Clock source; bound by Registry::install. Unbound, records are
  /// stamped TimePoint{}.
  void bind_clock(const sim::Simulation* simu) { simu_ = simu; }

  /// Master switch. Disabled rings drop events (counted nowhere — the
  /// point is measuring the recorder's own overhead against zero).
  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  /// Lookup-or-create the ring for `subsystem`. `capacity` applies only
  /// on creation. Returned pointer is stable for the recorder's lifetime.
  FlightRing* ring(std::string_view subsystem, std::size_t capacity = 512);

  /// Rings in name order (deterministic).
  std::vector<const FlightRing*> rings() const;

  std::uint64_t total_recorded() const { return seq_; }

  /// Merged dump: every ring's surviving events, sorted by (time, seq),
  /// plus per-ring loss accounting. `reason` says why the dump happened.
  util::JsonValue dump(std::string_view reason) const;

  /// Where post-mortems land. Resolution order: this setter, then the
  /// RDMAMON_FLIGHT_DIR environment variable; empty -> post-mortems are
  /// skipped (the always-on default costs nothing on disk).
  void set_postmortem_dir(std::string dir) { dir_ = std::move(dir); }

  /// Writes dump(reason) to `<dir>/flight_<reason>_<n>.json` (reason
  /// sanitised, n = per-run dump counter so repeated triggers never
  /// clobber). Returns the path written, or "" when no directory is
  /// configured or the write failed.
  std::string postmortem(std::string_view reason);

 private:
  friend class FlightRing;
  sim::TimePoint now() const;

  const sim::Simulation* simu_ = nullptr;
  bool enabled_ = true;
  std::uint64_t seq_ = 0;
  // Sorted by name: ring listing and dump section order is deterministic.
  std::map<std::string, std::unique_ptr<FlightRing>, std::less<>> rings_;
  std::string dir_;
  std::uint64_t dumps_ = 0;
};

// --- hot-path record helpers (null-tolerant, compile-out capable) ----------

inline void fr_record(FlightRing* r, const char* kind, std::int64_t a = 0,
                      std::int64_t b = 0, double x = 0.0) noexcept {
#if RDMAMON_TELEMETRY_ENABLED
  if (r) r->record(kind, a, b, x);
#else
  (void)r; (void)kind; (void)a; (void)b; (void)x;
#endif
}

inline void fr_record_at(FlightRing* r, sim::TimePoint at, const char* kind,
                         std::int64_t a = 0, std::int64_t b = 0,
                         double x = 0.0) noexcept {
#if RDMAMON_TELEMETRY_ENABLED
  if (r) r->record_at(at, kind, a, b, x);
#else
  (void)r; (void)at; (void)kind; (void)a; (void)b; (void)x;
#endif
}

}  // namespace rdmamon::telemetry
