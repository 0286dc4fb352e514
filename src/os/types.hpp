// Shared identifiers and configuration for the simulated operating system.
#pragma once

#include <cstdint>
#include <string>

#include "sim/time.hpp"

namespace rdmamon::os {

using ThreadId = std::uint32_t;
using CpuId = int;

/// Thread lifecycle states (mirrors a classic Unix scheduler).
enum class ThreadState {
  Ready,     ///< runnable, waiting in the run queue
  Running,   ///< on a CPU
  Sleeping,  ///< timer sleep
  Blocked,   ///< waiting on a WaitQueue
  Finished,  ///< exited
};

/// Static priority levels, lower value = scheduled first. All application
/// and kernel-helper threads default to Normal; the scheduler's
/// "interactive" heuristic (not priority) is what differentiates sleepers
/// from CPU hogs, like the 2.4-era goodness() bonus.
enum class Priority : int {
  High = 0,    ///< reserved (e.g. latency-critical kernel work)
  Normal = 1,  ///< default for everything, including ksoftirqd
  Low = 2,     ///< nice'd background work
};
constexpr int kPriorityLevels = 3;

/// Hardware interrupt sources tracked in irq_stat.
enum class IrqType : int {
  Timer = 0,
  NetRx = 1,
  NetTx = 2,
  Other = 3,
};
constexpr int kIrqTypes = 4;

/// Per-node OS tuning knobs. Defaults approximate the paper's testbed
/// (dual 2.4 GHz Xeon, RedHat 9 / Linux 2.4-era behaviour).
struct NodeConfig {
  std::string name = "node";
  int cpus = 2;

  /// Scheduler timer frequency; sleep wakeups round up to 1/hz boundaries.
  /// The paper notes reporting resolution is bounded by this (Section 3).
  int hz = 1000;

  /// Round-robin timeslice for threads of equal priority.
  sim::Duration quantum = sim::msec(10);

  /// Cost of a context switch, charged as system time on dispatch.
  sim::Duration context_switch_cost = sim::usec(3);

  /// Hardware IRQ handler entry/exit cost.
  sim::Duration irq_handler_cost = sim::usec(2);

  /// Window of the continuous-time EMA used for CPU utilisation.
  sim::Duration load_window = sim::msec(100);

  /// Total simulated RAM (for the memory component of the load index).
  std::uint64_t memory_bytes = 1ull << 30;  // 1 GB, as in the paper

  /// When true, fire a periodic timer interrupt on CPU 0 every tick
  /// (visible in irq_stat, Fig 6). Off by default: quantum/sleep handling
  /// is event-driven and does not need it, and it adds hz events/second.
  bool timer_irq = false;

  sim::Duration tick() const {
    return sim::nsec(1'000'000'000ll / hz);
  }
};

}  // namespace rdmamon::os
