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
  m_round_slots_ = &reg_->histogram("scatter.round_slots");
  m_wave_width_ = &reg_->histogram("scatter.wave_width");
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
  all_.push_back(targets_.size());
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
    s.key = s.mon->start_fetch();
    slots.push_back(s);
  }

  // An attempt resolved (*s.out says how): an ok one or the last failed
  // one finishes the slot; an earlier failed one waits out its backoff.
  auto resolved = [&simu, &failed](Slot& s) {
    const bool done = s.out->ok || s.attempt > s.mon->config().fetch_retries;
    s.mon->record_attempt(s.key, s.out->error, simu.now() - s.attempt_at,
                          /*backoff=*/!done);
    if (done) {
      s.state = State::Done;
      s.out->retrieved_at = simu.now();
      s.mon->record_sample(s.key, *s.out);
      if (!s.out->ok) ++failed;
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
      s.attempt_at = simu.now();
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
        if (st != FrontendMonitor::OpStatus::Pending) {
          co_await s.mon->complete(self, s.op, *s.out, st);
          resolved(s);
        } else if (simu.now() >= s.op.deadline) {
          s.mon->abandon(s.op, *s.out);
          resolved(s);
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

}  // namespace rdmamon::monitor
