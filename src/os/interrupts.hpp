// Interrupt controller: hardware IRQ bookkeeping (the irq_stat structure
// the paper's e-RDMA-Sync scheme exploits) plus the softirq / ksoftirqd
// deferred-work path that couples network processing to scheduler load.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "os/types.hpp"
#include "os/wait.hpp"
#include "sim/fifo.hpp"
#include "sim/inline_fn.hpp"
#include "sim/time.hpp"

namespace rdmamon::os {

class Scheduler;

/// Per-packet protocol processing cost (the IPoIB receive path of the
/// paper's era was expensive: IP-over-IB encapsulation on a 2.4 stack).
inline constexpr sim::Duration kSoftirqPacketCost = sim::usec(6);

/// Packets processed inline in hard-IRQ context before deferring the
/// rest to ksoftirqd (the receive-livelock / NAPI-budget knob that makes
/// socket monitoring latency grow with load, Fig 3).
inline constexpr int kRxInlineBudget = 4;

/// Deferrable work item queued for ksoftirqd.
struct SoftirqItem {
  sim::Duration cost;
  sim::InlineFn fn;
};

class IrqController {
 public:
  IrqController(Scheduler& sched, const NodeConfig& cfg);

  /// Raises a hardware interrupt on `cpu`. The handler occupies the CPU
  /// for cfg.irq_handler_cost (plus `extra_cost`), then `body` runs in
  /// handler context. The pending count for (cpu, type) is visible from
  /// raise until the handler completes — exactly what a remote RDMA read
  /// of irq_stat can observe mid-flight.
  void raise(CpuId cpu, IrqType type, sim::InlineFn body,
             sim::Duration extra_cost = {});

  /// Queues deferred work for `cpu`'s ksoftirqd (normal-priority kernel
  /// thread; under CPU load it waits in the run queue like anyone else).
  void raise_softirq(CpuId cpu, SoftirqItem item);

  // --- irq_stat view -------------------------------------------------------
  /// Hardware interrupts currently pending (queued or in service) on `cpu`.
  int pending_hard(CpuId cpu, IrqType type) const;
  int pending_hard_total(CpuId cpu) const;
  /// Deferred softirq backlog length on `cpu`.
  std::size_t softirq_backlog(CpuId cpu) const;
  /// Cumulative count of hardware interrupts raised.
  std::uint64_t raised_count(CpuId cpu, IrqType type) const;

  /// Number of hardware interrupts raised on `cpu` within the trailing
  /// `window`. Models what a synchronized (/proc) reader can still catch:
  /// the read path spins on the 2.4 global IRQ lock until handlers drain,
  /// so only arrivals during the final copy-out window are visible.
  int raised_within(CpuId cpu, sim::Duration window) const;

  /// The transient irq_stat view a lock-free RDMA READ observes at the
  /// DMA instant: in-service + queued hard interrupts plus a capped
  /// indicator of deferred (softirq) backlog — pending work a
  /// synchronized reader never sees.
  int pending_dma_view(CpuId cpu) const;

  /// Spawns the per-CPU ksoftirqd threads. Called once by Node after the
  /// scheduler exists.
  void start_ksoftirqd();

  /// Wait queue ksoftirqd sleeps on when the backlog is empty.
  WaitQueue& softirq_waitqueue(CpuId cpu) {
    return per_cpu_[static_cast<std::size_t>(cpu)].soft_wq;
  }

  /// Dequeues the next deferred item (ksoftirqd only). Precondition:
  /// softirq_backlog(cpu) > 0.
  SoftirqItem pop_softirq(CpuId cpu);

 private:
  struct PerCpu {
    std::array<int, kIrqTypes> pending{};
    std::array<std::uint64_t, kIrqTypes> raised{};
    sim::Fifo<sim::TimePoint> recent_raises;  // trimmed at each raise
    /// Handler bodies of raised interrupts, in the order their jobs were
    /// handed to the scheduler, which runs a CPU's jobs FIFO: the job
    /// itself carries only {this, cpu, type}.
    sim::Fifo<sim::InlineFn> bodies;
    sim::Fifo<SoftirqItem> soft_q;
    WaitQueue soft_wq;
  };

  /// One handler completes on `cpu`: the pending count drops and the
  /// oldest queued body runs in handler context.
  void run_handler(CpuId cpu, IrqType type);

  Scheduler& sched_;
  const NodeConfig cfg_;
  std::vector<PerCpu> per_cpu_;
};

}  // namespace rdmamon::os
