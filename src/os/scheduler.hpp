// Preemptive multi-CPU scheduler for one simulated node.
//
// Model (a deliberately simplified Linux-2.4-era design, documented in
// DESIGN.md):
//  - static priority levels, FIFO round-robin with a fixed quantum inside
//    each level (FIFO also on wakeup — no head insertion — so cycling
//    interactive threads cannot starve another waiter, the minimal form of
//    the 2.4 epoch fairness guarantee);
//  - an "interactive" bit standing in for the counter/goodness sleeper
//    bonus: a thread that voluntarily blocked may, on wakeup, preempt a
//    running CPU hog (a thread last descheduled by quantum expiry), but
//    never another interactive thread;
//  - hardware IRQs steal the CPU from whatever runs, FIFO per CPU;
//  - optional per-thread CPU affinity (used by per-CPU ksoftirqd).
//
// These rules produce the paper's observable effects: a woken socket
// monitor thread waits its FIFO turn behind every runnable peer when the
// node is busy, and deferred network processing (ksoftirqd, never granted
// the interactive bonus) drains only at round-robin pace — so socket
// monitoring latency grows with the number of background threads (Fig 3)
// while one-sided RDMA reads never enter this machinery at all.
#pragma once

#include <array>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "os/kernel_stats.hpp"
#include "os/program.hpp"
#include "os/thread.hpp"
#include "os/types.hpp"
#include "sim/fifo.hpp"
#include "sim/inline_fn.hpp"
#include "sim/simulation.hpp"

namespace rdmamon::os {

class Node;

/// Options for Scheduler::spawn.
struct SpawnOptions {
  Priority priority = Priority::Normal;
  bool kernel_thread = false;  ///< excluded from user nr_running
  CpuId affinity = -1;         ///< pin to one CPU, or -1 for any
  bool interactive_allowed = true;  ///< see SimThread::interactive_allowed
};

class Scheduler {
 public:
  using ProgramFactory = std::function<Program(SimThread&)>;
  using IrqBody = sim::InlineFn;

  Scheduler(sim::Simulation& simu, Node& node, KernelStats& stats,
            const NodeConfig& cfg);
  ~Scheduler();

  /// Creates a thread running `factory(thread)` and makes it runnable.
  SimThread* spawn(std::string name, ProgramFactory factory,
                   SpawnOptions opts = {});

  /// Makes a Sleeping/Blocked thread runnable (wait-queue notify path).
  /// No-op if the thread is already runnable or finished.
  void wake(SimThread* t);

  /// Terminates a thread wherever it is (test/teardown helper).
  void kill(SimThread* t);

  /// Steals `cost` of CPU time on `cpu` for a hardware interrupt, then
  /// runs `body` in handler context. Nested requests queue FIFO — the
  /// order IrqController, the only caller, keeps its handler bodies in.
  void request_irq(CpuId cpu, sim::Duration cost, IrqBody body);

  // --- introspection -------------------------------------------------------
  bool cpu_idle(CpuId cpu) const;
  bool cpu_in_irq(CpuId cpu) const;
  SimThread* running_on(CpuId cpu) const;
  int ready_count() const;
  int num_cpus() const { return static_cast<int>(cpus_.size()); }
  const NodeConfig& config() const { return cfg_; }
  Node& node() { return node_; }
  sim::Simulation& simu() { return simu_; }
  KernelStats& stats() { return stats_; }

  /// Total context switches performed (micro-benchmark metric).
  std::uint64_t context_switches() const { return ctx_switches_; }

 private:
  struct IrqJob {
    sim::Duration cost;
    IrqBody body;
  };

  // Per-CPU timer handles below (seg_ev/quantum_ev/irq_ev) are re-armed
  // on every segment/quantum/IRQ and cancelled on preemption — all O(1)
  // and allocation-free on the event queue's near-future wheel, so the
  // scheduler's churn sets the kernel's steady-state hot path.
  struct Cpu {
    CpuId id = 0;
    SimThread* current = nullptr;

    // Active execution segment (thread action or context-switch overhead).
    bool seg_active = false;
    bool seg_is_ctx = false;  ///< context-switch overhead segment
    CpuState seg_state = CpuState::Idle;
    sim::Duration seg_left{};
    sim::TimePoint run_start{};
    sim::EventHandle seg_ev;

    // Round-robin quantum for the current thread.
    sim::Duration quantum_left{};
    sim::EventHandle quantum_ev;

    // Hardware interrupt servicing.
    bool in_irq = false;
    sim::Fifo<IrqJob> irq_q;
    sim::EventHandle irq_ev;
  };

  // Ready-queue management.
  void enqueue_tail(SimThread* t);
  SimThread* pick_ready(CpuId cpu);
  bool someone_waiting_for(const Cpu& c) const;
  void remove_from_ready(SimThread* t);

  // Dispatching.
  Cpu* find_idle_cpu(SimThread* t);
  Cpu* find_preemptable_cpu(SimThread* t);
  void make_runnable(SimThread* t, bool prefer_head);
  void dispatch(Cpu& c, SimThread* t);
  void cpu_try_dispatch(Cpu& c);
  void start_segment(Cpu& c, sim::Duration d, CpuState state, bool is_ctx);
  void on_segment_done(Cpu& c);
  void on_quantum_expired(Cpu& c);
  void pause_segment(Cpu& c);
  void resume_segment(Cpu& c);
  void preempt(Cpu& c);  ///< current -> ready tail, then redispatch
  void run_current(Cpu& c);
  void deschedule(Cpu& c, ThreadState new_state, bool voluntary);
  void account_segment(Cpu& c, sim::Duration ran);
  sim::TimePoint round_up_tick(sim::TimePoint t) const;

  // IRQ internals.
  void begin_irq(Cpu& c);
  void run_next_irq(Cpu& c);

  sim::Simulation& simu_;
  Node& node_;
  KernelStats& stats_;
  NodeConfig cfg_;

  std::vector<Cpu> cpus_;
  std::array<sim::Fifo<SimThread*>, kPriorityLevels> ready_;  // per level
  std::vector<std::unique_ptr<SimThread>> threads_;
  ThreadId next_tid_ = 1;
  std::uint64_t ctx_switches_ = 0;
};

}  // namespace rdmamon::os
