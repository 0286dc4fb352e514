#include "monitor/adaptive.hpp"

#include "monitor/inbox.hpp"

namespace rdmamon::monitor {

const char* to_string(FetchMode m) {
  return m == FetchMode::Pull ? "pull" : "push";
}

const char* to_string(MonitorStrategy s) {
  switch (s) {
    case MonitorStrategy::Pull: return "pull";
    case MonitorStrategy::Push: return "push";
    case MonitorStrategy::Adaptive: return "adaptive";
  }
  return "?";
}

AdaptiveController::AdaptiveController(sim::Duration pull_period,
                                       int backends)
    : pull_period_(pull_period), st_(static_cast<std::size_t>(backends)) {}

void AdaptiveController::on_pull_sample(std::size_t i,
                                        const os::LoadSnapshot& info) {
  State& s = st_[i];
  ++s.pull_samples;
  if (s.has_prev &&
      change_delta(info, s.prev) >= PushPublisher::kChangeThreshold) {
    ++s.pull_changes;
  }
  s.prev = info;
  s.has_prev = true;
}

void AdaptiveController::on_push_fresh(std::size_t i, bool heartbeat) {
  State& s = st_[i];
  if (heartbeat) {
    ++s.push_heartbeats;
  } else {
    ++s.push_fresh;
  }
}

double AdaptiveController::est_pull_bps() const {
  return static_cast<double>(kPullBytes) / pull_period_.seconds();
}

void AdaptiveController::decide(std::size_t i, sim::TimePoint now,
                                double epoch_sec) {
  State& s = st_[i];
  // χ: significant load movements per second, from whichever mode's
  // evidence this epoch produced. Pull-mode polls undersample fast
  // flapping, but they undersample the push cost projection and the
  // actual push traffic identically — the comparison stays fair.
  double chi = 0.0;
  if (s.mode == FetchMode::Push) {
    chi = static_cast<double>(s.push_fresh) / epoch_sec;
  } else {
    chi = static_cast<double>(s.pull_changes) / epoch_sec;
  }
  const double push_bps =
      static_cast<double>(kPushBytes) *
      (chi + 1.0 / PushPublisher::kHeartbeat.seconds());
  const double pull_bps = est_pull_bps();
  s.est_push_bps = push_bps;

  FetchMode desired = s.mode;
  if (push_bps * kHysteresis < pull_bps) {
    desired = FetchMode::Push;
  } else if (pull_bps * kHysteresis < push_bps) {
    desired = FetchMode::Pull;
  }

  if (desired != s.mode) {
    if (desired == s.candidate) {
      ++s.candidate_epochs;
    } else {
      s.candidate = desired;
      s.candidate_epochs = 1;
    }
    const bool dwelt = s.switches == 0 || now - s.last_switch >= kMinDwell;
    if (s.candidate_epochs >= kDwellEpochs && dwelt) {
      s.mode = desired;
      s.last_switch = now;
      ++s.switches;
      s.candidate_epochs = 0;
      if (on_switch_) on_switch_(i, desired);
    }
  } else {
    s.candidate = s.mode;
    s.candidate_epochs = 0;
  }

  // Reset the epoch accumulators (prev pulled snapshot persists — χ in
  // pull mode needs cross-epoch continuity).
  s.pull_samples = 0;
  s.pull_changes = 0;
  s.push_fresh = 0;
  s.push_heartbeats = 0;
}

void AdaptiveController::tick(sim::TimePoint now) {
  if (!epoch_armed_) {
    epoch_armed_ = true;
    epoch_start_ = now;
    return;
  }
  if (now - epoch_start_ < kEpoch) return;
  const double epoch_sec = (now - epoch_start_).seconds();
  for (std::size_t i = 0; i < st_.size(); ++i) decide(i, now, epoch_sec);
  epoch_start_ = now;
}

std::uint64_t AdaptiveController::total_switches() const {
  std::uint64_t n = 0;
  for (const State& s : st_) n += s.switches;
  return n;
}

}  // namespace rdmamon::monitor
