// Scatter-gather monitoring engine: the one driver of monitoring fetches.
// One round fetches from MANY back ends concurrently instead of one after
// another; a blocking FrontendMonitor::fetch() is a round with one target.
// Attempts are issued through FrontendMonitor's issue/complete halves —
// RDMA targets as ONE merged multi-READ post (single doorbell, shared-CQ
// demux by wr_id), socket targets as one in-flight request per connection
// — and completions are gathered as they land: the engine drains its CQ
// into the slots, indexed by wr_id, so a wake costs the completions that
// landed, not slots x queued completions. Every target runs the same
// attempt machine (per-attempt timeout, bounded retry, exponential
// backoff) whether it shares a round with others or is fetched alone, so
// only the calendar time shrinks, from O(N) to about the slowest target.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
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
  /// shared channel: a monitor's completions go to the last engine that
  /// joined it). Call before the simulation runs fetches; returns the
  /// target's index.
  std::size_t add(FrontendMonitor& m);

  /// Subprogram: one scatter round over the targets listed in `which`
  /// (indices from add()). Fills out[i] for each i in `which`; `out` is
  /// resized to the number of targets if smaller. Every listed target
  /// resolves (ok, or error with attempts spent) before the round
  /// returns. One round at a time per engine.
  os::Program round(os::SimThread& self, const std::vector<std::size_t>& which,
                    std::vector<MonitorSample>& out);

  /// Subprogram: scatter round over every target.
  os::Program round_all(os::SimThread& self, std::vector<MonitorSample>& out) {
    return round(self, all_, out);
  }

  net::CompletionQueue& cq() { return cq_; }

 private:
  /// Caches instrument pointers and binds the CQ collector on the first
  /// round (no-op without a registry). The CQ's counters are exported as
  /// scatter.cq.* gauges per front end, summed over its engines: each
  /// collector adds what its CQ counted since its last snapshot.
  void resolve_metrics(os::Node& frontend);

  /// Per-target attempt state machine of a round: Issue -> Wait -> (Done
  /// | Backoff), Backoff -> Issue. The round ends when every slot is Done.
  enum class State { Issue, Wait, Backoff, Done };
  struct Slot {
    FrontendMonitor* mon = nullptr;
    MonitorSample* out = nullptr;
    FrontendMonitor::FetchOp op;
    State state = State::Issue;
    int attempt = 0;
    std::int64_t key = 0;         ///< the monitor's fetch key (ring records)
    sim::TimePoint attempt_at{};  ///< when the current attempt was issued
    sim::Duration backoff{};
    sim::TimePoint resume_at{};  ///< Backoff: when to re-issue
  };

  /// Moves every completion the CQ surfaced into the op of the slot that
  /// posted it: the round allocated every wr_id the CQ can hold.
  void drain();

  std::vector<FrontendMonitor*> targets_;
  std::vector<std::size_t> all_;  ///< every target's index (round_all)
  /// The current round's slots; a member so rounds reuse its capacity.
  std::vector<Slot> slots_;
  /// The slot of each RDMA attempt of the round, by wr_id - first_wr_.
  std::vector<std::uint32_t> wr_slot_;
  std::uint64_t first_wr_ = 0;
  net::CompletionQueue cq_;  ///< shared completion channel (+ wait queue)
  /// A wave's RDMA attempts; a member so rounds reuse its capacity.
  std::vector<net::ReadBatchEntry> batch_;
  // Telemetry instruments (null when disabled / no registry installed).
  bool metrics_resolved_ = false;
  telemetry::Registry* reg_ = nullptr;
  telemetry::Counter* m_rounds_ = nullptr;
  telemetry::HistogramMetric* m_round_slots_ = nullptr;
  telemetry::HistogramMetric* m_wave_width_ = nullptr;
  telemetry::ScopedCollector collector_;  ///< exports the shared CQ counters
  /// The front end's scatter.cq.* gauges, each with what this engine's
  /// CQ has added to it so far.
  struct CqExport {
    telemetry::Gauge* gauge = nullptr;
    std::uint64_t added = 0;
  };
  std::array<CqExport, 7> cq_export_{};
  telemetry::FlightRing* fr_ = nullptr;   ///< "monitor.<fe>" ring
};

}  // namespace rdmamon::monitor
