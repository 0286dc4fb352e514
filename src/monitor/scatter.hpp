// Scatter-gather monitoring engine: one round fetches from MANY back ends
// concurrently instead of one after another. Attempts are issued through
// FrontendMonitor's issue/complete halves — RDMA targets as ONE merged
// multi-READ post (single doorbell, shared-CQ demux by wr_id), socket
// targets as one in-flight request per connection — and completions are
// gathered as they land. Per-target timeout, bounded retry and exponential
// backoff are preserved exactly, so a scatter round reaches the same
// per-target verdicts as the sequential path; only the calendar time
// shrinks from O(N) to roughly the slowest single target.
#pragma once

#include <cstddef>
#include <vector>

#include "monitor/monitor.hpp"
#include "net/verbs.hpp"

namespace rdmamon::monitor {

/// Drives concurrent bounded fetches over a fixed set of monitors. All
/// monitors joined via add() share this engine's completion channel (CQ
/// for RDMA, rx watcher for sockets), so ONE waiter hears about every
/// resolution.
class ScatterFetcher {
 public:
  ScatterFetcher() = default;
  ScatterFetcher(const ScatterFetcher&) = delete;
  ScatterFetcher& operator=(const ScatterFetcher&) = delete;

  /// Joins a monitor to the engine (re-points its completions at the
  /// shared channel). Call before the simulation runs fetches; returns the
  /// target's index.
  std::size_t add(FrontendMonitor& m);

  /// Subprogram: one scatter round over the targets listed in `which`
  /// (indices from add()). Fills out[i] for each i in `which`; `out` is
  /// resized to size() if smaller. Every listed target resolves (ok, or
  /// error with attempts spent) before the round returns.
  os::Program round(os::SimThread& self, const std::vector<std::size_t>& which,
                    std::vector<MonitorSample>& out);

  /// Subprogram: scatter round over every target.
  os::Program round_all(os::SimThread& self, std::vector<MonitorSample>& out);

  std::size_t size() const { return targets_.size(); }
  FrontendMonitor& target(std::size_t i) { return *targets_[i]; }
  net::CompletionQueue& cq() { return cq_; }

 private:
  /// Caches instrument pointers and binds the CQ collector on the first
  /// round (no-op without a registry).
  void resolve_metrics(os::Node& frontend);

  std::vector<FrontendMonitor*> targets_;
  net::CompletionQueue cq_;  ///< shared completion channel (+ wait queue)
  /// A wave's RDMA attempts; a member so rounds reuse its capacity.
  std::vector<net::ReadBatchEntry> batch_;
  // Telemetry instruments (null when disabled / no registry installed).
  bool metrics_resolved_ = false;
  telemetry::Registry* reg_ = nullptr;
  telemetry::Counter* m_rounds_ = nullptr;
  telemetry::Counter* m_ok_ = nullptr;
  telemetry::Counter* m_timeout_ = nullptr;
  telemetry::Counter* m_transport_ = nullptr;
  telemetry::HistogramMetric* m_round_slots_ = nullptr;
  telemetry::HistogramMetric* m_wave_width_ = nullptr;
  telemetry::HistogramMetric* m_retries_ = nullptr;
  telemetry::ScopedCollector collector_;  ///< exports the shared CQ counters
  telemetry::FlightRing* fr_ = nullptr;   ///< "monitor.<fe>" ring
};

}  // namespace rdmamon::monitor
