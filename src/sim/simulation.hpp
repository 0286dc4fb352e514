// Simulation context: clock + event queue + run loop. Every model object
// holds a reference to one Simulation and schedules work through it.
#pragma once

#include <cstdint>
#include <stdexcept>

#include "sim/event_queue.hpp"
#include "sim/frame_pool.hpp"
#include "sim/time.hpp"

namespace rdmamon::telemetry {
class Registry;
}

namespace rdmamon::sim {

/// Top-level simulation driver.
///
/// Usage:
///   Simulation simu;
///   simu.after(msec(10), [&]{ ... });
///   simu.run_for(seconds(5));
class Simulation {
 public:
  /// Current simulated time.
  TimePoint now() const { return now_; }

  /// Schedules `fn` at absolute time `when`. Throws std::logic_error if
  /// `when` is in the past — a model bug we'd rather catch loudly.
  /// `fn` is a sim::InlineFn: captures up to 48 bytes are stored in
  /// place, so the steady-state hot path performs no heap allocation.
  EventHandle at(TimePoint when, EventQueue::Callback fn) {
    if (when < now_) {
      throw std::logic_error("Simulation::at: scheduling into the past");
    }
    return queue_.schedule(when, std::move(fn));
  }

  /// Schedules `fn` after a relative delay (>= 0).
  EventHandle after(Duration delay, EventQueue::Callback fn) {
    if (delay.ns < 0) {
      throw std::logic_error("Simulation::after: negative delay");
    }
    return queue_.schedule(now_ + delay, std::move(fn));
  }

  /// Runs until the queue drains or `stop()` is called.
  void run();

  /// Runs events with timestamp <= `deadline`, then sets now() = deadline
  /// (even if the queue drained earlier). Cleared `stop()` flag applies.
  void run_until(TimePoint deadline);

  /// Convenience: run_until(now() + d).
  void run_for(Duration d) { run_until(now_ + d); }

  /// Requests the current run()/run_until() to return after the in-flight
  /// event completes. Safe to call from inside an event callback.
  void stop() { stop_requested_ = true; }

  /// Number of events executed since construction. Cancelled events are
  /// "forgotten": they never execute and are excluded here — see
  /// events_cancelled() for how much scheduled work was abandoned.
  std::uint64_t events_executed() const { return queue_.executed(); }

  /// Number of live events currently scheduled.
  std::size_t events_pending() const { return queue_.size(); }

  /// Total events ever cancelled before firing.
  std::uint64_t events_cancelled() const { return queue_.cancelled_total(); }

  /// Cancelled events awaiting the queue's lazy sweep (tombstones still
  /// occupying pool slots). Exported as the `sim_events_tombstoned`
  /// telemetry gauge when a registry is installed.
  std::size_t events_tombstoned() const { return queue_.cancelled_pending(); }

  /// Telemetry hook: the installed metrics registry, or nullptr when the
  /// run is un-instrumented (the default — components must treat null as
  /// "telemetry off"). The pointer is opaque here: sim never dereferences
  /// it, so the sim layer carries no dependency on the telemetry library.
  /// Install via telemetry::Registry::install BEFORE wiring the system —
  /// components resolve their instruments at construction time.
  telemetry::Registry* telemetry() const { return telemetry_; }
  void set_telemetry(telemetry::Registry* reg) { telemetry_ = reg; }

  /// Where every os::Program frame of this simulation's threads lives.
  FramePool& frame_pool() { return frames_; }

 private:
  FramePool frames_;
  EventQueue queue_;
  TimePoint now_{};
  bool stop_requested_ = false;
  telemetry::Registry* telemetry_ = nullptr;
};

}  // namespace rdmamon::sim
