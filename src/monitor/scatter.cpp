#include "monitor/scatter.hpp"

#include <cassert>
#include <limits>
#include <utility>

namespace rdmamon::monitor {

namespace {

sim::TimePoint attempt_deadline(const MonitorConfig& cfg,
                                sim::TimePoint now) {
  return cfg.fetch_timeout.ns > 0 ? now + cfg.fetch_timeout : sim::kNever;
}

/// The CQ counters each engine exports, as scatter.cq.* gauges.
using CqCount = std::uint64_t (net::CompletionQueue::*)() const;
constexpr std::pair<const char*, CqCount> kCqGauges[] = {
    {"scatter.cq.pushed", &net::CompletionQueue::completions_pushed},
    {"scatter.cq.forgets", &net::CompletionQueue::forgets},
    {"scatter.cq.stale_dropped", &net::CompletionQueue::stale_dropped},
    {"scatter.cq.signaled", &net::CompletionQueue::cqes_signaled},
    {"scatter.cq.unsignaled_retired",
     &net::CompletionQueue::unsignaled_retired},
    {"scatter.cq.notifies", &net::CompletionQueue::notifies},
    {"scatter.cq.coalesced_polls", &net::CompletionQueue::coalesced_polls},
};

constexpr std::uint32_t kNoSlot = std::numeric_limits<std::uint32_t>::max();

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
  static_assert(std::size(kCqGauges) == std::size(decltype(cq_export_){}));
  const telemetry::Labels by_fe{{"frontend", frontend.name()}};
  for (std::size_t i = 0; i < cq_export_.size(); ++i) {
    cq_export_[i].gauge = &reg_->gauge(kCqGauges[i].first, by_fe);
  }
  // Every engine of the front end adds into the same gauges, so a
  // fetch()'s one-target engine never hides the balancer's.
  collector_.bind(simu, [this](telemetry::Registry&) {
    for (std::size_t i = 0; i < cq_export_.size(); ++i) {
      CqExport& e = cq_export_[i];
      const std::uint64_t count = (cq_.*kCqGauges[i].second)();
      e.gauge->add(static_cast<double>(count - e.added));
      e.added = count;
    }
  });
}

void ScatterFetcher::drain() {
  while (!cq_.empty()) {
    net::Completion c = cq_.pop();
    const std::uint64_t i = c.wr_id - first_wr_;
    const std::uint32_t slot =
        c.wr_id >= first_wr_ && i < wr_slot_.size() ? wr_slot_[i] : kNoSlot;
    assert(slot != kNoSlot && "a completion no attempt of the round posted");
    if (slot == kNoSlot) continue;
    Slot& s = slots_[slot];
    assert(s.op.wr_id == c.wr_id && "an abandoned attempt's completion");
    s.op.landed = std::move(c);
  }
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
  wr_slot_.clear();
  for (std::size_t i : which) {
    Slot& s = slots.emplace_back();
    s.mon = targets_[i];
    s.out = &out[i];
    *s.out = MonitorSample{};
    s.out->requested_at = simu.now();
    s.backoff = s.mon->config().retry_backoff;
    s.key = s.mon->start_fetch();
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
    for (std::size_t k = 0; k < slots.size(); ++k) {
      Slot& s = slots[k];
      if (s.state != State::Issue) continue;
      s.out->attempts = ++s.attempt;
      ++wave;
      s.attempt_at = simu.now();
      const sim::TimePoint dl = attempt_deadline(s.mon->config(), simu.now());
      if (s.mon->is_rdma_transport()) {
        batch_.push_back(s.mon->prepare_read(s.op, dl));
        // This CQ hands out the wr_ids, so a round's run without gaps.
        if (wr_slot_.empty()) first_wr_ = s.op.wr_id;
        const std::uint64_t at = s.op.wr_id - first_wr_;
        if (at >= wr_slot_.size()) wr_slot_.resize(at + 1, kNoSlot);
        wr_slot_[at] = static_cast<std::uint32_t>(k);
      } else {
        co_await s.mon->issue(self, s.op, dl);
      }
      s.state = State::Wait;
    }
    co_await net::post_read_batch(self, batch_);
    if (wave > 0) {
      telemetry::observe(m_wave_width_, static_cast<double>(wave));
    }

    // Gather wave: reap whatever resolved, time out whatever expired, in
    // slot order. A socket reply's receive takes simulated time, so the
    // CQ is drained again after each one.
    drain();
    bool all_done = true;
    bool any_issue = false;
    sim::TimePoint next_wake = sim::kNever;
    for (Slot& s : slots) {
      if (s.state == State::Wait) {
        if (s.mon->peek(s.op)) {
          co_await s.mon->complete(self, s.op, *s.out);
          drain();
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
