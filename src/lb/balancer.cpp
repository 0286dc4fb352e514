#include "lb/balancer.hpp"

#include <algorithm>
#include <cassert>

namespace rdmamon::lb {

namespace {
/// Inbox silence that triggers a verification READ for a push-mode back
/// end: the publisher's heartbeat plus transport and scheduling slack, so
/// healthy back ends are not needlessly verified. Shorter silence is
/// neutral — it neither feeds nor resets the failure detector.
constexpr sim::Duration kPushSilenceBound =
    monitor::PushPublisher::kHeartbeat + sim::msec(50);
/// Front-end CPU cost of scanning one inbox slot (a local memory read
/// plus the seqlock checks; no doorbell, no wire).
constexpr sim::Duration kScanCost = sim::nsec(150);
/// Cadence of the dedicated inbox scanner thread. The scan is a local
/// memory sweep, so it runs far faster than the wire poll rounds: a
/// pushed change reaches the view within ~kScanPeriod instead of waiting
/// out the poll granularity — the push scheme's freshness advantage.
constexpr sim::Duration kScanPeriod = sim::msec(5);
}  // namespace

double load_index(const os::LoadSnapshot& info, const WeightConfig& w) {
  const double net = std::min(info.net_rate / monitor::kNetCapacityBps, 1.0);
  const double conn = std::min(
      static_cast<double>(info.connections) / monitor::kConnCapacity, 1.0);
  const double runq = std::min(
      static_cast<double>(info.nr_running) / monitor::kRunqCapacity, 1.0);
  double idx = kWCpu * info.cpu_load + kWMem * info.mem_load + kWNet * net +
               kWConn * conn + kWRunq * runq;
  if (w.irq_penalty > 0.0) {
    // Ordinary traffic keeps a pending interrupt or two in flight on a
    // busy server; pressure beyond that indicates hidden load (deferred
    // protocol work, interrupt storms) before it ever shows up in the
    // run-queue or utilisation numbers.
    const int excess = info.irq_pending_total() - 2;
    if (excess > 0) idx += w.irq_penalty * excess;
  }
  return idx;
}

void LoadBalancer::add_backend(
    std::unique_ptr<monitor::MonitorChannel> channel) {
  channels_.push_back(std::move(channel));
  views_.emplace_back();
  index_.push_back(0.0);
  wrr_credit_.push_back(0.0);
  ++alive_;
}

LoadBalancer::~LoadBalancer() {
  // The SloEngine outlives the balancer by contract (installed before
  // wiring, like the registry); its probe captures `this` and must go.
  if (slo_probe_ != 0) slo_->remove_probe(slo_probe_);
}

const char* LoadBalancer::source_label(std::size_t i, ViewSource src) const {
  switch (src) {
    case ViewSource::Push: return "push";
    case ViewSource::Gossip: return "gossip";
    case ViewSource::Pull: break;
  }
  return monitor::to_string(channels_[i]->frontend().scheme());
}

LoadBalancer::LineageCell& LoadBalancer::lineage_of(std::size_t i,
                                                    ViewSource src) {
  return lineage_[src == ViewSource::Pull
                      ? static_cast<std::size_t>(
                            channels_[i]->frontend().scheme())
                      : monitor::kAllSchemes.size() - 1 +
                            static_cast<std::size_t>(src)];
}

sim::Duration LoadBalancer::view_age(std::size_t i) const {
  if (simu_ == nullptr || !views_[i].sample.ok) return sim::Duration{-1};
  return simu_->now() - views_[i].sample.info.computed_at;
}

void LoadBalancer::record_fetch(std::size_t i, bool ok) {
  BackendView& v = views_[i];
  const BackendHealth before = v.health;
  if (ok) {
    v.fail_streak = 0;
    ++v.success_streak;
    // A Suspect recovers on the first good fetch; a Dead back end must
    // prove itself for kReadmitAfter fetches (flap damping).
    if (v.health == BackendHealth::Suspect ||
        (v.health == BackendHealth::Dead &&
         v.success_streak >= kReadmitAfter)) {
      v.health = BackendHealth::Healthy;
    }
  } else {
    ++fetch_failures_;
    v.success_streak = 0;
    ++v.fail_streak;
    if (v.fail_streak >= kDeadAfter) {
      v.health = BackendHealth::Dead;
    } else if (v.health == BackendHealth::Healthy &&
               v.fail_streak >= kSuspectAfter) {
      v.health = BackendHealth::Suspect;
    }
  }
  if (v.health != before) health_edge(i, before, "health");
}

void LoadBalancer::health_edge(std::size_t i, BackendHealth before,
                               const char* kind) {
  const BackendHealth now = views_[i].health;
  alive_ += static_cast<int>(before == BackendHealth::Dead) -
            static_cast<int>(now == BackendHealth::Dead);
  telemetry::add(now == BackendHealth::Healthy   ? m_to_healthy_
                 : now == BackendHealth::Suspect ? m_to_suspect_
                                                 : m_to_dead_);
  // "lb" ring: a = back end, b = the new state, x = the state it left.
  telemetry::fr_record(fr_, kind, static_cast<std::int64_t>(i),
                       static_cast<std::int64_t>(now),
                       static_cast<double>(before));
  for (const auto& cb : health_cbs_) cb(static_cast<int>(i), now);
}

void LoadBalancer::apply_sample(std::size_t i,
                                const monitor::MonitorSample& s,
                                ViewSource src) {
  record_fetch(i, s.ok);
  BackendView& v = views_[i];
  const bool local = src != ViewSource::Gossip;
  if (local) {
    v.evidence_at = simu_->now();
    ++v.refreshes;
  }
  if (s.ok) {
    v.sample = s;
    v.source = src;
    index_[i] = load_index(s.info, weights_);
    // The fetch-latency statistic measures THIS front end's monitoring
    // path; a gossiped sample rode a peer's fetch plus a view READ, so
    // folding its latency in would pollute the metric.
    if (local) fetch_lat_.add(static_cast<double>(s.latency().ns));
    // Lineage: the sample's information age at the instant the view
    // absorbed it (retrieved_at - the /proc sampling instant).
    telemetry::observe(lineage_of(i, src).consume, s.staleness());
  }
}

PeerRecord peer_record(int backend, const BackendView& v) {
  return {backend, v.health == BackendHealth::Healthy && v.sample.ok,
          v.sample.info, v.sample.retrieved_at, v.evidence_at};
}

void LoadBalancer::ingest_peer(const PeerRecord& owner) {
  const std::size_t i = static_cast<std::size_t>(owner.backend);
  if (owner.usable) {
    // A gossiped sample had no request phase here: it rode a peer's
    // fetch, then a view READ.
    monitor::MonitorSample s;
    s.info = owner.info;
    s.requested_at = owner.retrieved_at;
    s.retrieved_at = owner.retrieved_at;
    s.ok = true;
    apply_sample(i, s, ViewSource::Gossip);
  } else {
    note_stale(i);
  }
  views_[i].evidence_at = owner.evidence_at;
}

void LoadBalancer::reset_health(std::size_t i) {
  BackendView& v = views_[i];
  const BackendHealth before = v.health;
  v.health = BackendHealth::Healthy;
  v.fail_streak = 0;
  v.success_streak = 0;
  if (before != BackendHealth::Healthy) health_edge(i, before, "health.reset");
}

void LoadBalancer::enable_push(monitor::PushInbox& inbox,
                               PushPollConfig cfg) {
  assert(inbox.slots() >= backends() &&
         "inbox needs one slot per registered back end");
  push_inbox_ = &inbox;
  strategy_ = cfg.strategy;
  for (int i = 0; i < inbox.slots(); ++i) {
    inbox.set_pulled(i, strategy_ != monitor::MonitorStrategy::Push);
  }
}

monitor::FetchMode LoadBalancer::fetch_mode(std::size_t i) const {
  return push_inbox_ != nullptr &&
                 !push_inbox_->pulled(static_cast<int>(i))
             ? monitor::FetchMode::Push
             : monitor::FetchMode::Pull;
}

std::size_t LoadBalancer::push_prepass(std::vector<std::size_t>& targets,
                                       sim::TimePoint now) {
  // The wire targets are a subsequence of `targets`: compact in place.
  std::size_t pulls = 0;
  std::size_t scanned = 0;
  for (std::size_t i : targets) {
    if (fetch_mode(i) == monitor::FetchMode::Pull) {
      targets[pulls++] = i;
      continue;
    }
    ++scanned;
    monitor::MonitorSample s;
    bool heartbeat = false;
    const monitor::PushInbox::ScanResult r =
        push_inbox_->scan(static_cast<int>(i), s, &heartbeat);
    if (r == monitor::PushInbox::ScanResult::Fresh) {
      consume_push_fresh(i, s, heartbeat);
      continue;
    }
    // Empty / Unchanged / Torn / Regressed: no view update. Recent
    // silence is neutral — a healthy back end with a flat load pushes
    // only heartbeats, and the detector must not count the quiet rounds
    // in between as failures. Silence past the bound means the heartbeat
    // missed: verify with a READ through the normal channel, and let THAT
    // outcome drive the ladder — push silence alone never kills a back
    // end (it could be a torn slot or a lost single write).
    if (now - push_inbox_->last_fresh(static_cast<int>(i)) >=
        kPushSilenceBound) {
      ++push_verifications_;
      if (reg_ != nullptr) telemetry::add(m_push_verify_);
      targets[pulls++] = i;
    }
  }
  targets.resize(pulls);
  return scanned;
}

void LoadBalancer::consume_push_fresh(std::size_t i,
                                      const monitor::MonitorSample& s,
                                      bool heartbeat) {
  if (adaptive_) adaptive_->on_push_fresh(i, heartbeat);
  if (reg_ != nullptr) {
    telemetry::add(m_push_fresh_);
    telemetry::observe(m_push_staleness_, s.staleness());
  }
  apply_sample(i, s, ViewSource::Push);
}

os::Program LoadBalancer::scanner_body(os::SimThread& self) {
  for (;;) {
    co_await os::SleepFor{kScanPeriod};
    std::size_t scanned = 0;
    for (std::size_t i = 0; i < channels_.size(); ++i) {
      if (poll_filter_ && !poll_filter_(i)) continue;  // not our shard
      if (fetch_mode(i) != monitor::FetchMode::Push) continue;
      ++scanned;
      monitor::MonitorSample s;
      bool heartbeat = false;
      if (push_inbox_->scan(static_cast<int>(i), s, &heartbeat) ==
          monitor::PushInbox::ScanResult::Fresh) {
        consume_push_fresh(i, s, heartbeat);
      }
    }
    if (scanned > 0) {
      co_await os::Compute{kScanCost * static_cast<std::int64_t>(scanned)};
    }
  }
  (void)self;
}

void LoadBalancer::fill_poll_targets(std::uint64_t round) {
  const bool probe_dead = round % kDeadProbeEvery == 0;
  poll_targets_.clear();
  for (std::size_t i = 0; i < channels_.size(); ++i) {
    if (poll_filter_ && !poll_filter_(i)) continue;  // not our shard
    if (probe_dead || views_[i].health != BackendHealth::Dead) {
      poll_targets_.push_back(i);
    }
  }
}

void LoadBalancer::start(os::Node& frontend, sim::Duration granularity) {
  // Join every monitor to the scatter engine's shared completion channel.
  for (auto& ch : channels_) scatter_.add(ch->frontend());
  if (verbs_.cq_mod_count > 1) {
    scatter_.cq().bind_moderation(frontend.simu(), verbs_.cq_mod_count,
                                  net::kCqModPeriod);
  }
  if (push_inbox_ != nullptr &&
      strategy_ == monitor::MonitorStrategy::Adaptive) {
    // The pull side of the controller's cost model is by definition this
    // balancer's own poll cadence.
    adaptive_ = std::make_unique<monitor::AdaptiveController>(granularity,
                                                              backends());
    // A switch rewrites the back end's pulled bit, which its publisher
    // reads, and is flight-recorded (fr_ is resolved below, before the
    // simulation runs; the callback reads it at fire time).
    adaptive_->on_switch([this](std::size_t i, monitor::FetchMode m) {
      push_inbox_->set_pulled(static_cast<int>(i),
                              m == monitor::FetchMode::Pull);
      telemetry::fr_record(fr_, "mode", static_cast<std::int64_t>(i),
                           m == monitor::FetchMode::Push ? 1 : 0);
    });
  }
  simu_ = &frontend.simu();
  for (BackendView& v : views_) v.evidence_at = simu_->now();
  reg_ = telemetry::Registry::of(frontend.simu());
  if (reg_ != nullptr) {
    const std::string& fe = frontend.name();
    const telemetry::Labels by_fe{{"frontend", fe}};
    m_pick_.resize(channels_.size(), nullptr);
    for (std::size_t i = 0; i < channels_.size(); ++i) {
      m_pick_[i] = &reg_->counter(
          "lb.pick", {{"backend", channels_[i]->backend().node().name()},
                      {"frontend", fe}});
    }
    m_pick_weight_ = &reg_->histogram("lb.pick.weight", by_fe);
    // Lineage: one histogram pair per source label this balancer can
    // produce — each channel's pull scheme, "push" when it scans an
    // inbox, "gossip" when it polls a shard and learns the rest from
    // peers — never per back end.
    auto lineage = [&](std::size_t i, ViewSource src) {
      LineageCell& cell = lineage_of(i, src);
      if (cell.consume != nullptr) return;
      const telemetry::Labels l{{"scheme", source_label(i, src)},
                                {"frontend", fe}};
      cell.consume = &reg_->histogram("lb.age_at_consume_ns", l);
      cell.dispatch = &reg_->histogram("lb.age_at_dispatch_ns", l);
    };
    for (std::size_t i = 0; i < channels_.size(); ++i) {
      lineage(i, ViewSource::Pull);
    }
    if (push_inbox_ != nullptr &&
        strategy_ != monitor::MonitorStrategy::Pull) {
      lineage(0, ViewSource::Push);
    }
    if (poll_filter_) lineage(0, ViewSource::Gossip);
    auto transition = [&](const char* to) -> telemetry::Counter& {
      return reg_->counter("lb.health.transitions",
                           {{"to", to}, {"frontend", fe}});
    };
    m_to_healthy_ = &transition("healthy");
    m_to_suspect_ = &transition("suspect");
    m_to_dead_ = &transition("dead");
    if (push_inbox_ != nullptr) {
      m_push_fresh_ = &reg_->counter("lb.push.fresh", by_fe);
      m_push_verify_ = &reg_->counter("lb.push.verifications", by_fe);
      m_push_staleness_ = &reg_->histogram("lb.push.staleness_ns", by_fe);
    }
    collector_.bind(frontend.simu(), [this, by_fe](telemetry::Registry& reg) {
      reg.gauge("lb.alive_backends", by_fe)
          .set(static_cast<double>(alive_backends()));
      reg.gauge("lb.fetch_failures", by_fe)
          .set(static_cast<double>(fetch_failures_));
      if (adaptive_) {
        reg.gauge("lb.adaptive.switches", by_fe)
            .set(static_cast<double>(adaptive_->total_switches()));
      }
    });
    fr_ = reg_->recorder().ring("lb");
    // Freshness SLOs: feed streams the operator declared (an undeclared
    // stream resolves to null and the balancer stays silent about it).
    slo_ = reg_->slo();
    if (slo_ != nullptr) {
      s_view_age_ = slo_->find("lb.view_age");
      if (s_view_age_ != nullptr) {
        // Worst current view age across our shard — a gauge-style probe,
        // so the SLO keeps degrading while a frozen publisher says
        // nothing (the silence IS the signal).
        slo_probe_ = slo_->add_probe(s_view_age_, [this] {
          double worst = 0.0;
          for (std::size_t i = 0; i < channels_.size(); ++i) {
            if (poll_filter_ && !poll_filter_(i)) continue;
            const sim::Duration a = view_age(i);
            if (a.ns > 0) worst = std::max(worst, static_cast<double>(a.ns));
          }
          return worst;
        });
      }
    }
  }
  poller_thread_ =
      frontend.spawn("lb-poller", [this, granularity](os::SimThread& t) {
        return poller_body(t, granularity);
      });
  if (push_inbox_ != nullptr && strategy_ != monitor::MonitorStrategy::Pull) {
    scanner_thread_ = frontend.spawn(
        "lb-scanner", [this](os::SimThread& t) { return scanner_body(t); });
  }
}

void LoadBalancer::stall() {
  for (os::SimThread** t : {&poller_thread_, &scanner_thread_}) {
    if (*t != nullptr) (*t)->node().sched().kill(*t);
    *t = nullptr;
  }
}

os::Program LoadBalancer::poller_body(os::SimThread& self,
                                      sim::Duration granularity) {
  // A poll round, then a `granularity` sleep (rounded up to the tick)
  // before the next one. The round's fetches go out concurrently through
  // the scatter engine, so per-backend staleness tracks the slowest
  // single fetch instead of the sum.
  // Dead back ends still get probed — a fetch succeeding again is the
  // failure detector's only recovery signal — but only on the
  // dead-probe cadence, so a corpse does not cost a fetch_timeout per
  // round.
  // With push enabled, each round starts with a free-ish local pre-pass:
  // push-mode back ends are refreshed from their inbox slots, and only
  // pull-mode ones plus silence verifications go to the wire.
  sim::Simulation& simu = self.node().simu();
  for (std::uint64_t round = 0;; ++round) {
    fill_poll_targets(round);
    const std::vector<std::size_t>& targets = poll_targets_;
    if (push_inbox_ != nullptr) {
      const std::size_t scanned = push_prepass(poll_targets_, simu.now());
      if (scanned > 0) {
        co_await os::Compute{kScanCost * static_cast<std::int64_t>(scanned)};
      }
    }
    co_await scatter_.round(self, targets, round_buf_);
    for (std::size_t i : targets) {
      apply_sample(i, round_buf_[i], ViewSource::Pull);
      if (adaptive_ && round_buf_[i].ok) {
        adaptive_->on_pull_sample(i, round_buf_[i].info);
      }
    }
    for (const auto& cb : round_cbs_) cb(targets);
    if (adaptive_) adaptive_->tick(simu.now());
    co_await os::SleepFor{granularity};
  }
}

int LoadBalancer::pick() {
  assert(!channels_.empty());
  // Smooth weighted round-robin (nginx-style): every pick adds each
  // server's weight to its credit, the highest credit wins and pays back
  // the total. Deterministic, spreads proportionally, avoids dog-piling.
  constexpr double kFloor = 0.02;
  // Dead back ends leave the rotation entirely — unless every back end is
  // dead, in which case routing somewhere beats dropping on the floor.
  const bool all_dead = alive_ == 0;
  double total = 0.0;
  int winner = -1;
  double winner_w = 0.0;
  // Overloaded servers leave the rotation while a server in rotation is
  // below the cutoff; Suspect ones keep only the floor weight. The first
  // pass assumes such a server exists and weighs overloaded ones 0. If
  // it found none, it weighed every server 0 and left every credit as it
  // was, so the second pass weighs them all from the same credits.
  for (const bool shed_overloaded : {true, false}) {
    for (std::size_t i = 0; i < index_.size(); ++i) {
      const BackendHealth h = views_[i].health;
      if (h == BackendHealth::Dead && !all_dead) continue;
      const double idx = index_[i];
      if (shed_overloaded && idx >= kOverloadCutoff) continue;
      const double w = h == BackendHealth::Suspect
                           ? kFloor
                           : std::max(kFloor, 1.0 - idx);
      wrr_credit_[i] += w;
      total += w;
      if (winner < 0 ||
          wrr_credit_[i] > wrr_credit_[static_cast<std::size_t>(winner)]) {
        winner = static_cast<int>(i);
        winner_w = w;
      }
    }
    if (winner >= 0) break;
  }
  assert(winner >= 0 && "a server in rotation always weighs at least kFloor");
  const std::size_t wi = static_cast<std::size_t>(winner);
  wrr_credit_[wi] -= total;
  if (reg_ != nullptr) {
    telemetry::add(m_pick_[wi]);
    telemetry::observe(m_pick_weight_, winner_w);
  }
  // Lineage at the decision point: how old was the information this
  // dispatch was actually made on, and through which path did it arrive.
  if (simu_ != nullptr) {
    const sim::TimePoint now = simu_->now();
    const BackendView& v = views_[wi];
    DispatchRecord rec;
    rec.backend = winner;
    rec.via = v.source;
    if (v.sample.ok) {
      rec.view_age = now - v.sample.info.computed_at;
      telemetry::observe(lineage_of(wi, v.source).dispatch, rec.view_age);
      if (slo_ != nullptr && s_view_age_ != nullptr) {
        slo_->observe(s_view_age_, static_cast<double>(rec.view_age.ns),
                      now);
      }
    }
    dispatch_log_.push_back(rec);
    if (dispatch_log_.size() > dispatch_log_cap_) dispatch_log_.pop_front();
  }
  return winner;
}

}  // namespace rdmamon::lb
