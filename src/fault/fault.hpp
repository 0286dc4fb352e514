// Deterministic fault injection for the simulated cluster.
//
// A FaultPlan is a declarative schedule of fault events — node crashes,
// kernel freezes (host hung, NIC still DMA-able: the regime where the
// paper's one-sided monitoring keeps working), access-link degradation,
// and the matching recoveries. A FaultInjector arms the plan against a
// net::Fabric on the simulation clock; the fabric's fault hooks
// (inject_crash & friends) do the actual damage. Everything is driven by
// seeded RNGs and the event queue's deterministic tie-breaking, so a run
// with the same seed and plan replays byte-for-byte.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "net/fabric.hpp"
#include "sim/random.hpp"
#include "sim/time.hpp"

namespace rdmamon::fault {

enum class FaultKind {
  NodeCrash,    ///< host + NIC die; packets to/from it vanish
  NodeRecover,  ///< crashed node answers again
  NodeFreeze,   ///< kernel hangs; NIC DMA engine keeps serving
  NodeUnfreeze, ///< hung kernel resumes (queued packets burst in)
  LinkDegrade,  ///< access link gains latency and a loss probability
  LinkRestore,  ///< access link back to nominal
  StormStart,   ///< tenant traffic storm begins (see workload::TenantStorm)
  StormStop,    ///< tenant traffic storm ends
};

const char* to_string(FaultKind k);

/// One scheduled fault. `extra_latency`/`loss` are meaningful only for
/// LinkDegrade; `storm` only for StormStart/StormStop (the id the
/// injector's storm hook dispatches on — see set_storm_hook).
struct FaultEvent {
  sim::TimePoint at{};
  FaultKind kind = FaultKind::NodeCrash;
  int node = -1;
  sim::Duration extra_latency{};
  double loss = 0.0;
  int storm = -1;
};

/// Builder for a schedule of fault events. Order of insertion breaks
/// same-instant ties (the event queue fires them in insertion order).
class FaultPlan {
 public:
  FaultPlan& crash(int node, sim::TimePoint at);
  FaultPlan& recover(int node, sim::TimePoint at);
  /// Crash at `at`, recover at `at + down_for`.
  FaultPlan& crash_for(int node, sim::TimePoint at, sim::Duration down_for);

  FaultPlan& freeze(int node, sim::TimePoint at);
  FaultPlan& unfreeze(int node, sim::TimePoint at);
  FaultPlan& freeze_for(int node, sim::TimePoint at, sim::Duration hung_for);

  FaultPlan& degrade_link(int node, sim::TimePoint at,
                          sim::Duration extra_latency, double loss);
  FaultPlan& restore_link(int node, sim::TimePoint at);
  FaultPlan& degrade_link_for(int node, sim::TimePoint at,
                              sim::Duration window,
                              sim::Duration extra_latency, double loss);

  /// Tenant traffic storms ride the same schedule, so noisy-neighbor
  /// pressure composes with crashes and lossy links in one plan. The
  /// `storm` id names a generator registered with the injector's storm
  /// hook (workload::drive_storms).
  FaultPlan& storm_start(int storm, sim::TimePoint at);
  FaultPlan& storm_stop(int storm, sim::TimePoint at);
  FaultPlan& storm_for(int storm, sim::TimePoint at, sim::Duration window);

  const std::vector<FaultEvent>& events() const { return events_; }
  bool empty() const { return events_.empty(); }
  std::size_t size() const { return events_.size(); }

  /// One line per event, for logs and golden-output determinism checks.
  std::string describe() const;

  /// Draws a reproducible random plan: `pairs` fault windows, each
  /// targeting a node in [0, num_nodes), starting inside the first 70% of
  /// `horizon` and recovering before 95% of it — so every injected fault
  /// also exercises the recovery path within the run.
  static FaultPlan random(sim::Rng& rng, int num_nodes,
                          sim::Duration horizon, int pairs = 6);

 private:
  FaultPlan& add(FaultEvent e);
  std::vector<FaultEvent> events_;
};

/// Replays FaultPlans against one fabric.
class FaultInjector {
 public:
  explicit FaultInjector(net::Fabric& fabric) : fabric_(&fabric) {}

  /// Schedules every event of `plan` on the fabric's simulation clock
  /// (events not in the future fire on the next queue pop). May be called
  /// several times; plans accumulate.
  void arm(const FaultPlan& plan);

  /// Applies one event immediately (test convenience).
  void apply(const FaultEvent& e);

  /// Installs the dispatcher for StormStart/StormStop events (the fault
  /// plane knows nothing of workload generators; workload::drive_storms
  /// installs a hook that routes by FaultEvent::storm). Storm events
  /// applied with no hook installed are counted but otherwise inert.
  void set_storm_hook(std::function<void(const FaultEvent&)> hook) {
    storm_hook_ = std::move(hook);
  }

  /// Events applied so far.
  std::uint64_t injected() const { return injected_; }

 private:
  net::Fabric* fabric_;
  std::uint64_t injected_ = 0;
  std::function<void(const FaultEvent&)> storm_hook_;
};

}  // namespace rdmamon::fault
