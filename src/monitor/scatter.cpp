#include "monitor/scatter.hpp"

namespace rdmamon::monitor {

namespace {

sim::TimePoint attempt_deadline(const MonitorConfig& cfg,
                                sim::TimePoint now) {
  return cfg.fetch_timeout.ns > 0 ? now + cfg.fetch_timeout : sim::kNever;
}

}  // namespace

void ScatterFetcher::resolve_metrics(os::Node& frontend) {
  metrics_resolved_ = true;
  sim::Simulation& simu = frontend.simu();
  reg_ = telemetry::Registry::of(simu);
  if (reg_ == nullptr) return;
  fr_ = reg_->recorder().ring("monitor." + frontend.name());
  m_rounds_ = &reg_->counter("scatter.rounds");
  auto outcome = [&](const char* result) -> telemetry::Counter& {
    return reg_->counter("scatter.outcome",
                         telemetry::Labels{{"result", result}});
  };
  m_ok_ = &outcome("ok");
  m_timeout_ = &outcome("timeout");
  m_transport_ = &outcome("transport");
  m_round_slots_ = &reg_->histogram("scatter.round_slots");
  m_wave_width_ = &reg_->histogram("scatter.wave_width");
  m_retries_ = &reg_->histogram("scatter.retries_per_slot");
  collector_.bind(simu, [this](telemetry::Registry& reg) {
    reg.gauge("scatter.cq.pushed")
        .set(static_cast<double>(cq_.completions_pushed()));
    reg.gauge("scatter.cq.forgets").set(static_cast<double>(cq_.forgets()));
    reg.gauge("scatter.cq.stale_dropped")
        .set(static_cast<double>(cq_.stale_dropped()));
    reg.gauge("scatter.cq.signaled")
        .set(static_cast<double>(cq_.cqes_signaled()));
    reg.gauge("scatter.cq.unsignaled_retired")
        .set(static_cast<double>(cq_.unsignaled_retired()));
    reg.gauge("scatter.cq.notifies").set(static_cast<double>(cq_.notifies()));
    reg.gauge("scatter.cq.coalesced_polls")
        .set(static_cast<double>(cq_.coalesced_polls()));
  });
}

std::size_t ScatterFetcher::add(FrontendMonitor& m) {
  m.bind_completion_channel(cq_);
  targets_.push_back(&m);
  return targets_.size() - 1;
}

os::Program ScatterFetcher::round(os::SimThread& self,
                                  const std::vector<std::size_t>& which,
                                  std::vector<MonitorSample>& out) {
  sim::Simulation& simu = self.node().simu();
  if (out.size() < targets_.size()) out.resize(targets_.size());
  if (!metrics_resolved_) resolve_metrics(self.node());
  const sim::TimePoint round_at = simu.now();
  std::int64_t failed = 0;
  telemetry::add(m_rounds_);
  telemetry::observe(m_round_slots_, static_cast<double>(which.size()));

  std::vector<Slot>& slots = slots_;
  slots.clear();
  for (std::size_t i : which) {
    Slot s;
    s.mon = targets_[i];
    s.out = &out[i];
    *s.out = MonitorSample{};
    s.out->requested_at = simu.now();
    s.backoff = s.mon->config().retry_backoff;
    slots.push_back(s);
  }

  // Telemetry: one slot reached its verdict (ok or exhausted).
  auto slot_done = [this, &failed](const Slot& s) {
    s.mon->record_sample(*s.out);
    if (!s.out->ok) ++failed;
    telemetry::add(s.out->ok
                       ? m_ok_
                       : (s.out->error == FetchError::Timeout ? m_timeout_
                                                              : m_transport_));
    telemetry::observe(m_retries_, static_cast<double>(s.attempt - 1));
  };

  // A failed attempt either retries (after backoff) or finishes the slot.
  auto fail = [&simu, &slot_done](Slot& s, FetchError err) {
    s.out->ok = false;
    s.out->error = err;
    if (s.attempt > s.mon->config().fetch_retries) {
      s.state = State::Done;
      s.out->retrieved_at = simu.now();
      slot_done(s);
    } else {
      s.state = State::Backoff;
      s.resume_at = simu.now() + s.backoff;
      s.backoff = s.backoff * 2;
    }
  };

  for (;;) {
    // Issue wave: every Issue slot starts one bounded attempt. RDMA
    // attempts merge into a single multi-READ post (one doorbell for the
    // lot); socket attempts go out one per connection.
    batch_.clear();
    std::size_t wave = 0;
    for (Slot& s : slots) {
      if (s.state != State::Issue) continue;
      s.out->attempts = ++s.attempt;
      ++wave;
      const sim::TimePoint dl = attempt_deadline(s.mon->config(), simu.now());
      if (s.mon->is_rdma_transport()) {
        batch_.push_back(s.mon->prepare_read(s.op, dl));
      } else {
        co_await s.mon->issue(self, s.op, dl);
      }
      s.state = State::Wait;
    }
    co_await net::post_read_batch(self, batch_);
    if (wave > 0) {
      telemetry::observe(m_wave_width_, static_cast<double>(wave));
    }

    // Gather wave: reap whatever resolved, time out whatever expired.
    bool all_done = true;
    bool any_issue = false;
    sim::TimePoint next_wake = sim::kNever;
    for (Slot& s : slots) {
      if (s.state == State::Wait) {
        const FrontendMonitor::OpStatus st = s.mon->peek(s.op);
        if (st == FrontendMonitor::OpStatus::Ok) {
          co_await s.mon->complete(self, s.op, *s.out, st);
          s.state = State::Done;
          s.out->retrieved_at = simu.now();
          slot_done(s);
        } else if (st == FrontendMonitor::OpStatus::Transport) {
          co_await s.mon->complete(self, s.op, *s.out, st);
          fail(s, FetchError::Transport);
        } else if (simu.now() >= s.op.deadline) {
          s.mon->abandon(s.op);
          fail(s, FetchError::Timeout);
        }
      }
      if (s.state == State::Backoff && simu.now() >= s.resume_at) {
        s.state = State::Issue;
      }
      switch (s.state) {
        case State::Done: break;
        case State::Issue:
          all_done = false;
          any_issue = true;
          break;
        case State::Wait:
          all_done = false;
          if (s.op.deadline.ns < next_wake.ns) next_wake = s.op.deadline;
          break;
        case State::Backoff:
          all_done = false;
          if (s.resume_at.ns < next_wake.ns) next_wake = s.resume_at;
          break;
      }
    }
    if (all_done) break;
    if (any_issue) continue;  // a backoff just expired: issue immediately

    // Park on the shared channel until something resolves, with a timer at
    // the earliest deadline/backoff expiry (spurious-wakeup discipline:
    // the next loop iteration re-checks everything). The timer is re-armed
    // and cancelled once per wave; both ends are O(1) on the near-future
    // wheel, so wide rounds do not tax the event queue.
    sim::EventHandle timer;
    if (next_wake != sim::kNever && simu.now() < next_wake) {
      timer = simu.at(next_wake, [this] { cq_.wait_queue().notify_all(); });
    }
    if (simu.now() < next_wake) {
      co_await os::WaitOn{&cq_.wait_queue()};
    }
    timer.cancel();
  }
  // One "monitor.<fe>" ring record per round: a = slots, b = slots that
  // ended failed, x = the round's duration in ns.
  telemetry::fr_record(fr_, "round", static_cast<std::int64_t>(which.size()),
                       failed,
                       static_cast<double>((simu.now() - round_at).ns));
}

os::Program ScatterFetcher::round_all(os::SimThread& self,
                                      std::vector<MonitorSample>& out) {
  std::vector<std::size_t> all(targets_.size());
  for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
  co_await round(self, all, out);
}

}  // namespace rdmamon::monitor
