// Synthetic load generators: the "background computation and communication
// operations" of the paper's Fig 3 latency experiment, and the
// floating-point application of the Fig 4 granularity experiment.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "net/fabric.hpp"
#include "net/socket.hpp"
#include "os/node.hpp"
#include "sim/stats.hpp"
#include "sim/random.hpp"

namespace rdmamon::workload {

/// Background computation + communication threads on one node, each
/// ping-ponging message bursts with an echo peer on another node. The
/// echo replies keep the node's network receive path (IRQ + softirq) busy
/// while the compute slices keep its run queue populated.
struct BackgroundLoadConfig {
  int threads = 8;
  sim::Duration compute_slice = sim::msec(4);
  int burst = 8;                      ///< messages per exchange
  std::size_t message_bytes = 8192;
  sim::Duration think = sim::msec(1);
};

class BackgroundLoad {
 public:
  /// Spawns cfg.threads worker threads on `node`, each with a dedicated
  /// connection to an echo thread on `peer`.
  BackgroundLoad(net::Fabric& fabric, os::Node& node, os::Node& peer,
                 BackgroundLoadConfig cfg);

  /// Kills all generator and echo threads.
  void stop();

  int threads() const { return cfg_.threads; }

 private:
  BackgroundLoadConfig cfg_;
  std::vector<os::SimThread*> workers_;
  std::vector<os::SimThread*> echoes_;
  os::Node* node_;
  os::Node* peer_;
};

/// Shared-environment disturbances: at random intervals, a random target
/// node receives a burst of co-hosted activity (compute + network chatter
/// with a neighbour) for a bounded duration — backups, batch jobs, other
/// tenants. These are the transient hotspots the application-level
/// experiments (Table 1, Figs 7-9) need fine-grained monitoring to route
/// around; they also load the victim's receive path, which is what slows
/// socket-based monitoring of exactly the node whose state matters most.
struct DisturbanceConfig {
  sim::Duration mean_interval = sim::msec(1100);  ///< exp-distributed gap
  /// Lifetime of one disturbance, first stage to teardown.
  sim::Duration duration = sim::msec(900);
};

/// A disturbance ramps up in kDisturbanceStages stages, each adding one
/// kDisturbanceStage load of compute+communication threads a stage
/// interval after the last (batch jobs spin up gradually) — fresh
/// monitors can evacuate the victim before the ramp peaks, stale ones
/// cannot. The threads block on their own traffic frequently, so like
/// real 2.4-era interactive tasks they are never preemptable by woken web
/// workers or monitor threads: everything on the victim waits its FIFO
/// turn behind them (the Fig 3 mechanism, applied app-side).
inline constexpr int kDisturbanceStages = 5;
inline constexpr BackgroundLoadConfig kDisturbanceStage{
    .threads = 2,
    .compute_slice = sim::msec(4),
    .burst = 16,
    .message_bytes = 8192,
    .think = sim::msec(1),
};

class DisturbanceGenerator {
 public:
  /// Targets are disturbed one at a time; `echo_peer` is the remote end
  /// of each burst's traffic (e.g. a storage/backup node) — an otherwise
  /// idle node, so echo replies come back fast and concentrated, loading
  /// the victim's receive path the way Fig 3's background load does.
  DisturbanceGenerator(net::Fabric& fabric, std::vector<os::Node*> targets,
                       os::Node& echo_peer, DisturbanceConfig cfg,
                       sim::Rng rng);
  ~DisturbanceGenerator();

  std::uint64_t events() const { return events_; }

 private:
  void schedule_next();
  void fire();

  void stop_all();

  net::Fabric* fabric_;
  std::vector<os::Node*> targets_;
  os::Node* echo_peer_;
  DisturbanceConfig cfg_;
  sim::Rng rng_;
  std::vector<std::unique_ptr<BackgroundLoad>> active_;
  std::uint64_t generation_ = 0;  ///< guards stale stage/stop events
  std::uint64_t events_ = 0;
};

/// The Fig 4 application: runs fixed-size floating-point batches back to
/// back and measures how much longer each takes than the ideal, i.e. the
/// perturbation caused by whatever else runs on the node.
class FloatingPointApp {
 public:
  /// `batch` is the ideal per-batch compute time. `threads` <= 0 spawns
  /// one app thread per CPU (so monitoring activity anywhere on the node
  /// perturbs the measurement, as on the paper's dual-Xeon servers).
  FloatingPointApp(os::Node& node, sim::Duration batch, int threads = 0);

  /// Mean normalised delay: (measured - ideal) / ideal, over all batches
  /// completed so far. 0 means the app ran undisturbed.
  double normalized_delay() const;

  std::uint64_t batches() const { return delays_.count(); }
  void stop();

 private:
  os::Node* node_;
  sim::Duration batch_;
  sim::OnlineStats delays_;  // per-batch normalised delay samples
  std::vector<os::SimThread*> threads_;
};

}  // namespace rdmamon::workload
