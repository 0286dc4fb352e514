// Staleness SLO engine (ROADMAP item 4's alarm path): declarative
// per-metric freshness targets with sliding-window error-budget
// accounting and edge-triggered Ok -> BreachWarn -> Breach alarms.
//
// Model: an SLO owns a *stream* of (instant, value) observations, e.g.
// view ages at dispatch. An observation VIOLATES when its value exceeds
// `target`. Over a sliding `window`, the violating fraction is compared
// against `error_budget`:
//
//   consumed = (violations / observations) / error_budget
//   consumed >= 1.0            -> Breach
//   consumed >= warn_fraction  -> BreachWarn
//   otherwise                  -> Ok
//
// With error_budget = 0.01 and target = 250ms this is exactly "p99 view
// age <= 250ms": the budget IS the quantile. The window slides on the
// simulated clock, so budgets refill deterministically and same-seed runs
// produce byte-identical alarm logs.
//
// Transitions are EDGE-triggered: one AlarmRecord (and one callback
// round, one flight-recorder event, one telemetry counter tick) per state
// change, never per evaluation. A Breach edge also triggers a flight
// recorder post-mortem — the dump exists by the time anyone reads the
// alarm.
//
// Streams are fed two ways: components push observations into streams
// they find by name (a stream the operator never declared is simply
// absent, and the component's lookup returns null), and gauge-style
// *probes* (e.g. "current worst view age") are polled at every
// evaluate(). Evaluation is explicit or timer-driven via arm_timer().
//
// Alarm state is summarised into an AlarmView, a flat image. Its owner
// registers one with Nic::register_mr and rebuilds it from view() in the
// region's DMA hook, so a peer's one-sided READ of "is that front end's
// view stale?" sees the engine's state at the DMA instant with zero
// target-CPU cost: the paper's RDMA-Sync scheme, aimed at the monitor.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "sim/simulation.hpp"
#include "sim/time.hpp"
#include "util/json.hpp"

namespace rdmamon::telemetry {

class Registry;
class FlightRing;

enum class AlarmState { Ok, BreachWarn, Breach };
const char* to_string(AlarmState s);

/// One declarative SLO.
struct SloSpec {
  std::string name;         ///< e.g. "lb.view_age" — stream lookup key
  std::string metric;       ///< human description of what is observed
  double target = 0.0;      ///< violation threshold on the observed value
  sim::Duration window = sim::msec(500);  ///< sliding evaluation window
  double error_budget = 0.01;  ///< allowed violating fraction in window
  double warn_fraction = 0.5;  ///< consumed fraction that arms BreachWarn
  std::size_t min_count = 8;   ///< observations required before judging
};

/// One alarm transition (the alarm log entry).
struct AlarmRecord {
  sim::TimePoint at{};
  std::string slo;
  AlarmState from = AlarmState::Ok;
  AlarmState to = AlarmState::Ok;
  double consumed = 0.0;  ///< budget consumed fraction at the edge
};

/// Flat alarm summary for a registered region: a fixed-capacity,
/// trivially copyable image, read whole.
struct AlarmEntry {
  static constexpr std::size_t kNameBytes = 48;
  char name[kNameBytes] = {};  ///< SloSpec::name, cut to fit, NUL-ended
  AlarmState state = AlarmState::Ok;
  double consumed = 0.0;
  sim::TimePoint since{};       ///< instant of the last transition
  std::uint64_t edges = 0;      ///< total transitions so far
};
struct AlarmView {
  static constexpr std::size_t kMaxEntries = 16;
  sim::TimePoint published_at{};  ///< the instant view() built it
  /// Worst state over every stream, those past kMaxEntries included.
  AlarmState worst = AlarmState::Ok;
  std::uint32_t count = 0;    ///< entries in use
  std::uint32_t dropped = 0;  ///< streams past kMaxEntries, left out
  AlarmEntry entries[kMaxEntries];  ///< spec order == registration order
};
static_assert(std::is_trivially_copyable_v<AlarmView>);

class SloEngine {
 public:
  /// One SLO's live accounting. Opaque to callers; obtained from add() /
  /// find() and passed to observe(). Pointers are stable for the
  /// engine's lifetime.
  struct Stream;

  SloEngine();  // out of line: members need the Stream definition
  SloEngine(const SloEngine&) = delete;
  SloEngine& operator=(const SloEngine&) = delete;
  ~SloEngine();

  /// Attaches this engine to `reg`: clock from the registry (an engine
  /// with none reads TimePoint{}; pass instants explicitly), alarm edges
  /// mirrored to the registry's flight recorder + an "slo.edges" counter,
  /// Breach edges trigger recorder post-mortems, and components wired
  /// afterwards find the engine via Registry::slo().
  void install(Registry& reg);

  Stream* add(SloSpec spec);
  Stream* find(std::string_view name);
  const SloSpec& spec(const Stream* s) const;

  /// Feeds one observation made at `at`.
  void observe(Stream* s, double value, sim::TimePoint at);

  /// Registers a gauge-style probe polled at every evaluate(); returns an
  /// id for remove_probe (component destructors MUST remove theirs).
  std::uint64_t add_probe(Stream* s, std::function<double()> fn);
  void remove_probe(std::uint64_t id);

  /// Polls probes, slides every window, applies edge transitions.
  void evaluate();
  void evaluate(sim::TimePoint at);

  /// Self-rescheduling periodic evaluate() on the simulation queue.
  /// The engine must outlive the simulation run (or call disarm_timer).
  void arm_timer(sim::Simulation& simu, sim::Duration period);
  void disarm_timer() { timer_armed_ = false; }

  AlarmState state(const Stream* s) const;
  double consumed(const Stream* s) const;

  /// The append-only alarm log (every edge, in order).
  const std::vector<AlarmRecord>& log() const { return log_; }
  /// Deterministic JSON rendering of the log (byte-identical across
  /// same-seed runs — determinism_test pins this).
  util::JsonValue log_json() const;

  /// Edge callbacks (fired once per transition, after the log append).
  void on_edge(std::function<void(const AlarmRecord&)> fn) {
    edge_cbs_.push_back(std::move(fn));
  }

  /// Builds the flat summary a registered region serves.
  AlarmView view() const;

 private:
  sim::TimePoint now() const;
  void slide(Stream& s, sim::TimePoint at);
  void transition(Stream& s, sim::TimePoint at);
  void tick(sim::Simulation& simu, sim::Duration period);

  Registry* reg_ = nullptr;
  FlightRing* fr_ = nullptr;
  std::vector<std::unique_ptr<Stream>> streams_;
  struct Probe {
    std::uint64_t id;
    Stream* stream;
    std::function<double()> fn;
  };
  std::vector<Probe> probes_;
  std::uint64_t next_probe_id_ = 1;
  std::vector<AlarmRecord> log_;
  std::vector<std::function<void(const AlarmRecord&)>> edge_cbs_;
  bool timer_armed_ = false;
};

}  // namespace rdmamon::telemetry
