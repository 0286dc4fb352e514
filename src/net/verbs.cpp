#include "net/verbs.hpp"

#include <utility>

#include "net/nic.hpp"
#include "os/node.hpp"
#include "os/thread.hpp"
#include "telemetry/registry.hpp"

namespace rdmamon::net {

namespace {

/// Telemetry: one doorbell rung by `self`, covering `wrs` work requests
/// (the scatter engine's merged posts make this ratio interesting).
/// Wall-clock-only bookkeeping; charges no simulated time.
void count_doorbell(os::SimThread& self, std::size_t wrs) {
  telemetry::Registry* reg = telemetry::Registry::of(self.node().simu());
  if (reg == nullptr) return;
  const telemetry::Labels by_node{{"node", self.node().name()}};
  reg->counter("net.doorbells", by_node).inc();
  reg->counter("net.posts", by_node).inc(wrs);
  reg->histogram("net.doorbell.wrs", by_node)
      .observe(static_cast<double>(wrs));
}

}  // namespace

// --- CompletionQueue ----------------------------------------------------------

CompletionQueue::~CompletionQueue() { mod_timer_.cancel(); }

void CompletionQueue::bind_moderation(sim::Simulation& simu, int count,
                                      sim::Duration period) {
  simu_ = &simu;
  mod_count_ = count < 1 ? 1 : count;
  mod_period_ = period;
}

void CompletionQueue::deliver(std::uint64_t ctx, std::uint64_t seq,
                              bool signaled, Completion c) {
  ++pushed_;
  const bool error = c.status != WcStatus::Success;
  CtxState& st = ctxs_[ctx];
  if (signaled || error) {
    // This CQE proves every earlier WR on the context retired (RC
    // in-order execution): surface the shadowed successes first, in post
    // order, then the CQE itself. Error CQEs are always generated, so an
    // unsignaled WR that fails surfaces here too.
    release_shadows(st, seq);
    if (st.released_upto < seq + 1) st.released_upto = seq + 1;
    if (forgotten_.erase(c.wr_id) > 0) {
      ++stale_dropped_;
      return;
    }
    if (signaled) ++cqes_signaled_;
    q_.push_back(std::move(c));
    note_surfaced(error);
    return;
  }
  // Unsignaled success: no CQE. The data landed; the consumer learns of it
  // when a closer proves the context's queue drained past it.
  if (forgotten_.erase(c.wr_id) > 0) {
    ++stale_dropped_;  // abandoned before arrival: never shadowed
    return;
  }
  if (seq < st.released_upto) {
    // A later closer already proved this seq done (completions of a
    // shared multi-target context can arrive out of post order): the
    // consumer may be waiting on it, surface immediately.
    ++unsignaled_retired_;
    q_.push_back(std::move(c));
    note_surfaced(false);
    return;
  }
  st.shadow.push_back(Shadowed{seq, std::move(c)});
  ++shadow_count_;
}

void CompletionQueue::release_shadows(CtxState& st, std::uint64_t upto) {
  for (auto it = st.shadow.begin(); it != st.shadow.end();) {
    if (it->seq >= upto) {
      ++it;
      continue;
    }
    --shadow_count_;
    if (forgotten_.erase(it->c.wr_id) > 0) {
      ++stale_dropped_;
    } else {
      ++unsignaled_retired_;
      q_.push_back(std::move(it->c));
      note_surfaced(false);
    }
    it = st.shadow.erase(it);
  }
}

void CompletionQueue::note_surfaced(bool urgent) {
  ++since_fire_;
  if (mod_count_ <= 1 || urgent || simu_ == nullptr ||
      since_fire_ >= mod_count_) {
    fire_notify();
    return;
  }
  if (!mod_timer_armed_) {
    mod_timer_armed_ = true;
    mod_timer_ = simu_->after(mod_period_, [this] {
      mod_timer_armed_ = false;
      if (since_fire_ > 0) fire_notify();
    });
  }
}

void CompletionQueue::fire_notify() {
  ++notifies_;
  if (since_fire_ > 1) ++coalesced_polls_;
  since_fire_ = 0;
  if (mod_timer_armed_) {
    mod_timer_.cancel();
    mod_timer_armed_ = false;
  }
  wq_.notify_all();
}

const Completion* CompletionQueue::find(std::uint64_t wr_id) const {
  for (const Completion& c : q_) {
    if (c.wr_id == wr_id) return &c;
  }
  return nullptr;
}

bool CompletionQueue::try_pop(std::uint64_t wr_id, Completion& out) {
  for (auto it = q_.begin(); it != q_.end(); ++it) {
    if (it->wr_id == wr_id) {
      out = std::move(*it);
      q_.erase(it);
      return true;
    }
  }
  return false;
}

void CompletionQueue::forget(std::uint64_t wr_id) {
  ++forgets_;
  for (auto it = q_.begin(); it != q_.end(); ++it) {
    if (it->wr_id == wr_id) {
      q_.erase(it);  // already landed: reclaim immediately
      ++stale_dropped_;
      return;
    }
  }
  // An unsignaled success abandoned mid-window sits in its context's
  // shadow buffer, not in q_ — reclaim it there or its slot would leak
  // until (and past) the closer, and the wr_id would ghost-surface.
  for (auto& [ctx, st] : ctxs_) {
    for (auto it = st.shadow.begin(); it != st.shadow.end(); ++it) {
      if (it->c.wr_id == wr_id) {
        st.shadow.erase(it);
        --shadow_count_;
        ++stale_dropped_;
        return;
      }
    }
  }
  forgotten_.insert(wr_id);  // still in flight: drop at delivery
}

// --- QpContext ----------------------------------------------------------------

QpContext::QpContext(Nic& local, int signal_every, std::size_t send_depth)
    : local_(&local),
      ctx_id_(local.alloc_ctx_id()),
      signal_every_(signal_every < 1 ? 1 : signal_every),
      send_depth_(send_depth) {}

void QpContext::post(int target_node, WorkRequest wr, CompletionQueue& cq,
                     bool force_signal) {
  Pending p{target_node, std::move(wr), &cq, force_signal};
  if (send_depth_ > 0 && inflight_ >= send_depth_) {
    // Window full: the post waits in FIFO order for a completion to free
    // a slot — bounded send queues instead of unbounded NIC state.
    ++deferred_total_;
    deferred_.push_back(std::move(p));
    return;
  }
  launch(std::move(p));
}

void QpContext::launch(Pending p) {
  ++inflight_;
  const std::uint64_t seq = seq_++;
  const bool signaled = p.wr.verb == Verb::Write || p.force_signal ||
                        signal_every_ <= 1 ||
                        ((seq + 1) % static_cast<std::uint64_t>(
                                         signal_every_) == 0);
  if (!signaled) {
    ++unsignaled_;
    local_->count_unsignaled();
  }
  // The completion callback keeps the context alive (shared ownership):
  // a pool handed out by make_context_pool may be dropped by the wiring
  // layer while WRs are still in flight.
  auto done = [self = shared_from_this(), cq = p.cq, seq,
               signaled](Completion c) {
    --self->inflight_;
    if (!self->deferred_.empty() &&
        (self->send_depth_ == 0 || self->inflight_ < self->send_depth_)) {
      Pending next = std::move(self->deferred_.front());
      self->deferred_.pop_front();
      self->launch(std::move(next));
    }
    cq->deliver(self->ctx_id_, seq, signaled, std::move(c));
  };
  local_->post(p.target, std::move(p.wr), std::move(done), ctx_id_, tenant_);
}

// --- QueuePair ----------------------------------------------------------------

QueuePair::QueuePair(Nic& local, int remote_node, CompletionQueue& cq,
                     std::shared_ptr<QpContext> ctx)
    : remote_node_(remote_node),
      cq_(&cq),
      ctx_(ctx ? std::move(ctx) : std::make_shared<QpContext>(local)) {}

void QueuePair::post(WorkRequest wr, bool force_signal) {
  ctx_->post(remote_node_, std::move(wr), *cq_, force_signal);
}

std::vector<std::shared_ptr<QpContext>> make_context_pool(
    Nic& nic, const VerbsTuning& tuning) {
  std::vector<std::shared_ptr<QpContext>> pool;
  for (int i = 0; i < tuning.shared_contexts; ++i) {
    pool.push_back(std::make_shared<QpContext>(nic, tuning.signal_every,
                                               tuning.send_depth));
  }
  return pool;
}

// --- posting subprograms ------------------------------------------------------

os::Program post_read_batch(os::SimThread& self,
                            const std::vector<ReadBatchEntry>& batch) {
  if (batch.empty()) co_return;
  // One doorbell for the whole chain; the posts themselves are pointer
  // writes into the send queue(s), free at this resolution.
  co_await os::Compute{kDoorbellCost};
  count_doorbell(self, batch.size());
  // Close every context's chain: the LAST WR posted through each distinct
  // QpContext is force-signaled, so a signal-every-k context never ends a
  // burst with an unprovable unsignaled tail. With dedicated contexts
  // (defaults) every entry is its context's last — all signaled, the
  // historical behaviour.
  std::unordered_map<const QpContext*, std::size_t> last;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    last[&batch[i].qp->context()] = i;
  }
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const ReadBatchEntry& e = batch[i];
    e.qp->post(e.wr, /*force_signal=*/last[&e.qp->context()] == i);
  }
}

os::Program rdma_sync(os::SimThread& self, QueuePair& qp, WorkRequest wr,
                      Completion& out, sim::TimePoint deadline,
                      bool* timed_out) {
  if (timed_out != nullptr) *timed_out = false;
  // Doorbell: a cheap user-space MMIO write.
  co_await os::Compute{kDoorbellCost};
  count_doorbell(self, 1);
  const std::uint64_t wr_id = wr.wr_id;
  qp.post(std::move(wr));
  CompletionQueue& cq = qp.cq();
  sim::Simulation& simu = self.node().simu();
  // A finite deadline is modelled as a timer that spuriously wakes the CQ
  // waiter; the waiter re-checks the clock (the documented wait-queue
  // discipline), so no scheduler surgery is needed. On the common path
  // the WR completes first and the cancel below unlinks the wheel-resident
  // timer in O(1), recycling its pool slot — arming a guard per post
  // costs no allocation and leaves no tombstone behind.
  sim::EventHandle timer;
  if (deadline != sim::kNever && simu.now() < deadline) {
    timer = simu.at(deadline, [&cq] { cq.wait_queue().notify_all(); });
  }
  for (;;) {
    if (cq.try_pop(wr_id, out)) break;
    if (simu.now() >= deadline) {
      cq.forget(wr_id);  // the CQ discards the late completion on arrival
      if (timed_out != nullptr) *timed_out = true;
      break;
    }
    co_await os::WaitOn{&cq.wait_queue()};
  }
  timer.cancel();
}

}  // namespace rdmamon::net
