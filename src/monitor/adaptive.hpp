// Per-backend push-vs-pull mode selection (the tentpole's hybrid). The
// controller watches two signals per backend and per decision epoch:
//
//  - the observed change rate χ (significant load movements per second:
//    non-heartbeat pushes consumed while in push mode, threshold-crossing
//    samples while in pull mode), from which it projects the push scheme's
//    fabric cost  push_Bps = push_bytes · (χ + 1/heartbeat);
//  - the pull scheme's fixed cost  pull_Bps = pull_bytes / poll period.
//
// Every backend starts in Pull. It switches only when the other mode is
// cheaper by the hysteresis factor for kDwellEpochs consecutive epochs
// AND kMinDwell has elapsed since that backend's last switch — so the
// switch rate is bounded by 1/kMinDwell per backend by construction (the
// flap-freedom the property suite asserts). Everything runs on the
// simulated clock from simulated events: decisions are deterministic and
// never read the telemetry plane (which may be compiled out).
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "monitor/inbox.hpp"
#include "monitor/monitor.hpp"
#include "net/nic.hpp"
#include "os/procfs.hpp"
#include "sim/time.hpp"

namespace rdmamon::monitor {

/// How a balancer refreshes one backend's sample.
enum class FetchMode { Pull, Push };

/// Scheme selection for a push-capable balancer.
enum class MonitorStrategy {
  Pull,      ///< classic polling only (the paper's schemes)
  Push,      ///< inbox scanning only, READ verification on silence
  Adaptive,  ///< per-backend controller picks Pull or Push
};

const char* to_string(FetchMode m);
const char* to_string(MonitorStrategy s);

class AdaptiveController {
 public:
  /// Decision epoch: rates are measured and compared once per epoch.
  static constexpr sim::Duration kEpoch = sim::msec(100);
  /// The candidate mode must be cheaper by this factor to be preferred.
  static constexpr double kHysteresis = 1.3;
  /// Consecutive epochs the candidate must stay preferred.
  static constexpr int kDwellEpochs = 2;
  /// Floor between switches of one backend (the hard flap bound).
  static constexpr sim::Duration kMinDwell = sim::msec(500);
  /// Wire bytes of one pull fetch (a READ of the load record) and one
  /// push WRITE (an inbox slot image) — the cost model's per-op
  /// constants, priced exactly as the NIC charges them.
  static constexpr std::size_t kPullBytes =
      net::rdma_footprint(net::Verb::Read, kLoadReplyBytes);
  static constexpr std::size_t kPushBytes =
      net::rdma_footprint(net::Verb::Write, PushInbox::kSlotBytes);

  /// `pull_period` is the balancer's poll granularity (the pull cost
  /// denominator). The push side's heartbeat and change threshold are the
  /// publisher's own constants, so both ends estimate the same χ.
  AdaptiveController(sim::Duration pull_period, int backends);

  FetchMode mode(std::size_t i) const { return st_[i].mode; }

  /// Observer of committed mode switches (runs inside tick()). The
  /// balancer forwards these so publishers can be paused/resumed.
  void on_switch(std::function<void(std::size_t, FetchMode)> cb) {
    switch_cbs_.push_back(std::move(cb));
  }

  // --- event feed (called by the balancer's poller) -------------------------
  /// A pull fetch of backend `i` succeeded with `info`.
  void on_pull_sample(std::size_t i, const os::LoadSnapshot& info);
  /// A Fresh inbox image of backend `i` was consumed.
  void on_push_fresh(std::size_t i, bool heartbeat);

  /// Epoch driver: call once per poll round with the simulated now.
  /// Processes a decision epoch when one has elapsed.
  void tick(sim::TimePoint now);

  // --- introspection --------------------------------------------------------
  std::uint64_t switches(std::size_t i) const { return st_[i].switches; }
  std::uint64_t total_switches() const;
  /// Last epoch's projected costs for backend `i` (bytes/sec).
  double est_push_bps(std::size_t i) const { return st_[i].est_push_bps; }
  double est_pull_bps() const;

 private:
  struct State {
    FetchMode mode = FetchMode::Pull;
    // Current-epoch accumulators.
    std::uint64_t pull_samples = 0;
    std::uint64_t pull_changes = 0;
    std::uint64_t push_fresh = 0;       ///< non-heartbeat
    std::uint64_t push_heartbeats = 0;
    bool has_prev = false;
    os::LoadSnapshot prev;              ///< last pulled snapshot (χ in pull mode)
    // Decision state.
    FetchMode candidate = FetchMode::Pull;
    int candidate_epochs = 0;
    sim::TimePoint last_switch{};
    std::uint64_t switches = 0;
    double est_push_bps = 0.0;
  };

  void decide(std::size_t i, sim::TimePoint now, double epoch_sec);

  sim::Duration pull_period_;
  std::vector<State> st_;
  std::vector<std::function<void(std::size_t, FetchMode)>> switch_cbs_;
  bool epoch_armed_ = false;
  sim::TimePoint epoch_start_{};
};

}  // namespace rdmamon::monitor
