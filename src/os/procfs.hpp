// The /proc view of a node: the snapshot every user-space monitoring
// scheme reads, and (via the same struct) the kernel-memory image the
// RDMA-Sync scheme fetches directly.
#pragma once

#include <array>
#include <type_traits>

#include "os/types.hpp"
#include "sim/time.hpp"

namespace rdmamon::os {

class Node;

/// One consistent reading of a node's resource usage. `computed_at` is the
/// simulated instant the values were *computed by the kernel*; monitoring
/// staleness is measured against it in the accuracy experiments.
struct LoadSnapshot {
  /// CPUs one snapshot describes at most. irq_pending is a fixed array so
  /// the snapshot is trivially copyable — taking or copying one allocates
  /// nothing; os::Node rejects a configuration with more CPUs.
  static constexpr int kMaxCpus = 8;

  sim::TimePoint computed_at{};
  double cpu_load = 0.0;   ///< mean CPU utilisation in [0,1]
  int nr_running = 0;      ///< runnable user threads (Fig 5a metric)
  int nr_threads = 0;      ///< live user threads
  double mem_load = 0.0;   ///< memory used fraction in [0,1]
  double net_rate = 0.0;   ///< bytes/sec EMA
  int connections = 0;     ///< open sockets
  int cpus = 0;            ///< CPUs described: irq_pending[0, cpus)
  /// Per-CPU pending hard interrupts; entries from `cpus` on stay 0.
  std::array<int, kMaxCpus> irq_pending{};

  int irq_pending_total() const {
    int s = 0;
    for (int v : irq_pending) s += v;
    return s;
  }
};
static_assert(std::is_trivially_copyable_v<LoadSnapshot>);

/// The /proc filesystem interface. Reading it costs kernel CPU time: user
/// threads must pay `co_await ComputeKernel{procfs.read_cost()}` before
/// calling snapshot(), mirroring the trap the paper describes (Fig 1,
/// steps 2-3). The RDMA-Sync path instead reads the same data through a
/// registered kernel memory region at zero host-CPU cost.
class ProcFs {
 public:
  explicit ProcFs(Node& node) : node_(node) {}

  /// Kernel time one snapshot read costs the calling thread.
  sim::Duration read_cost() const;

  /// The /proc view: what a user-space reader obtains. CPU, memory,
  /// thread and network values are current, but the interrupt counters
  /// reflect a *synchronized* read — the 2.4-era read path spins on the
  /// global IRQ lock until in-flight handlers drain, so only interrupts
  /// arriving in the final copy-out window are visible as pending.
  /// Free of simulated cost: the caller pays read_cost() explicitly.
  LoadSnapshot snapshot() const;

  /// The view a lock-free one-sided RDMA READ of the kernel pages gets at
  /// the DMA instant: same values, but irq_pending holds the transient
  /// truth (in-service + queued hard IRQs, plus deferred softirq work) —
  /// the detail only RDMA-Sync / e-RDMA-Sync can exploit (Fig 6).
  LoadSnapshot snapshot_dma() const;

 private:
  LoadSnapshot base_snapshot() const;
  Node& node_;
};

}  // namespace rdmamon::os
