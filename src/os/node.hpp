// A simulated cluster node: CPUs + scheduler + interrupt controller +
// kernel statistics + /proc. The network fabric attaches a NIC to it
// (src/net); applications spawn threads on it.
#pragma once

#include <memory>
#include <string>

#include "os/interrupts.hpp"
#include "os/kernel_stats.hpp"
#include "os/procfs.hpp"
#include "os/scheduler.hpp"
#include "os/types.hpp"
#include "sim/simulation.hpp"

namespace rdmamon::os {

class Node {
 public:
  /// Throws std::invalid_argument when cfg.cpus exceeds
  /// LoadSnapshot::kMaxCpus (a snapshot could not describe the node).
  Node(sim::Simulation& simu, NodeConfig cfg);

  /// Non-copyable/movable: components hold back-references.
  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  sim::Simulation& simu() { return simu_; }
  const NodeConfig& config() const { return cfg_; }
  const std::string& name() const { return cfg_.name; }

  Scheduler& sched() { return *sched_; }
  IrqController& irq() { return *irq_; }
  KernelStats& stats() { return stats_; }
  const KernelStats& stats() const { return stats_; }
  ProcFs& procfs() { return procfs_; }

  /// Convenience: spawn a thread on this node.
  SimThread* spawn(std::string name, Scheduler::ProgramFactory f,
                   SpawnOptions opts = {}) {
    return sched_->spawn(std::move(name), std::move(f), opts);
  }

  /// Cluster-assigned identifier (set by the fabric / testbed builder).
  int id = -1;

 private:
  void schedule_timer_tick();

  sim::Simulation& simu_;
  NodeConfig cfg_;
  KernelStats stats_;
  std::unique_ptr<Scheduler> sched_;
  std::unique_ptr<IrqController> irq_;
  ProcFs procfs_;
};

}  // namespace rdmamon::os
