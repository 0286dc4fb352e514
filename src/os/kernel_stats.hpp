// The kernel's resource-usage bookkeeping: per-CPU utilisation, run-queue
// length, thread counts, memory, network and connection counters. This is
// the "kernel memory" that the RDMA-Sync scheme registers and reads
// remotely, and the ground truth every accuracy experiment compares against.
#pragma once

#include <array>
#include <cassert>
#include <cstdint>
#include <vector>

#include "os/types.hpp"
#include "sim/time.hpp"

namespace rdmamon::os {

/// What a CPU is doing at an instant (for time accounting).
enum class CpuState { Idle = 0, User = 1, Kernel = 2, Irq = 3 };

/// One CPU's cumulative time accounting plus a continuous-time EMA of
/// "busy" used as the instantaneous utilisation signal.
class CpuAccounting {
 public:
  explicit CpuAccounting(sim::Duration ema_window);

  /// Records a state transition at time `t`.
  void set_state(CpuState s, sim::TimePoint t);

  /// Utilisation in [0,1]: EMA of busy (non-idle) with the configured
  /// window, evaluated at time `t` without mutating state.
  double utilization(sim::TimePoint t) const;

  CpuState state() const { return state_; }
  sim::Duration user() const { return user_; }
  sim::Duration system() const { return system_; }
  sim::Duration irq() const { return irq_; }
  sim::Duration idle() const { return idle_; }
  sim::Duration busy() const { return user_ + system_ + irq_; }

 private:
  double decay(sim::Duration dt) const;

  sim::Duration window_;
  CpuState state_ = CpuState::Idle;
  sim::TimePoint last_{};
  double ema_ = 0.0;  // utilisation EMA as of last_
  sim::Duration user_{}, system_{}, irq_{}, idle_{};
};

/// Node-wide kernel statistics. Everything is instantaneous ("as the
/// kernel sees it right now"); staleness is introduced only by how each
/// monitoring scheme transports the values.
class KernelStats {
 public:
  KernelStats(int cpus, sim::Duration ema_window,
              std::uint64_t memory_bytes);

  // --- CPU ---------------------------------------------------------------
  void set_cpu_state(CpuId cpu, CpuState s, sim::TimePoint t);
  double cpu_utilization(CpuId cpu, sim::TimePoint t) const;
  /// Mean utilisation across CPUs.
  double cpu_load(sim::TimePoint t) const;
  const CpuAccounting& cpu(CpuId id) const {
    return cpus_[static_cast<std::size_t>(id)];
  }
  int num_cpus() const { return static_cast<int>(cpus_.size()); }

  // --- threads / run queue ------------------------------------------------
  void on_thread_created(bool kernel);
  void on_thread_exited(bool kernel);
  void on_thread_runnable(bool kernel);     ///< entered ready or running
  void on_thread_unrunnable(bool kernel);   ///< blocked / slept / exited
  /// Linux nr_running: runnable user threads (what Fig 5a reports).
  int nr_running() const { return nr_running_user_; }
  /// Total live user threads.
  int nr_threads() const { return nr_threads_user_; }

  // --- memory --------------------------------------------------------------
  void alloc_memory(std::uint64_t bytes);
  void free_memory(std::uint64_t bytes);
  std::uint64_t memory_used() const { return mem_used_; }
  std::uint64_t memory_total() const { return mem_total_; }
  double memory_load() const {
    return static_cast<double>(mem_used_) / static_cast<double>(mem_total_);
  }

  // --- network ---------------------------------------------------------------
  /// Called by the NIC on every packet; maintains a byte-rate EMA.
  void on_net_bytes(std::uint64_t bytes, sim::TimePoint t);
  /// Bytes/second EMA at time `t`.
  double net_rate(sim::TimePoint t) const;

  // --- connections -------------------------------------------------------
  /// The connection ledger: sockets opened and closed here so far.
  void on_connection_opened() { ++connections_opened_; }
  void on_connection_closed() {
    ++connections_closed_;
    assert(connections_closed_ <= connections_opened_);
  }
  std::uint64_t connections_opened() const { return connections_opened_; }
  std::uint64_t connections_closed() const { return connections_closed_; }
  /// Open sockets: what LoadSnapshot::connections reports.
  int connections() const {
    return static_cast<int>(connections_opened_ - connections_closed_);
  }

 private:
  std::vector<CpuAccounting> cpus_;
  sim::Duration window_;

  int nr_running_user_ = 0;
  int nr_running_kernel_ = 0;
  int nr_threads_user_ = 0;
  int nr_threads_kernel_ = 0;

  std::uint64_t mem_total_;
  std::uint64_t mem_used_ = 0;

  double net_rate_ema_ = 0.0;  // bytes/sec as of net_last_
  sim::TimePoint net_last_{};

  std::uint64_t connections_opened_ = 0;
  std::uint64_t connections_closed_ = 0;
};

}  // namespace rdmamon::os
