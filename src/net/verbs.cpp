#include "net/verbs.hpp"

#include <utility>

#include "net/nic.hpp"
#include "os/node.hpp"
#include "os/thread.hpp"

namespace rdmamon::net {

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
  for (std::size_t i = 0; i < st.shadow.size();) {
    Shadowed& sh = st.shadow[i];
    if (sh.seq >= upto) {
      ++i;
      continue;
    }
    --shadow_count_;
    if (forgotten_.erase(sh.c.wr_id) > 0) {
      ++stale_dropped_;
    } else {
      ++unsignaled_retired_;
      q_.push_back(std::move(sh.c));
      note_surfaced(false);
    }
    st.shadow.erase(i);
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
  for (std::size_t i = 0; i < q_.size(); ++i) {
    if (q_[i].wr_id == wr_id) return &q_[i];
  }
  return nullptr;
}

bool CompletionQueue::try_pop(std::uint64_t wr_id, Completion& out) {
  for (std::size_t i = 0; i < q_.size(); ++i) {
    if (q_[i].wr_id == wr_id) {
      out = std::move(q_[i]);
      q_.erase(i);
      return true;
    }
  }
  return false;
}

void CompletionQueue::forget(std::uint64_t wr_id) {
  ++forgets_;
  for (std::size_t i = 0; i < q_.size(); ++i) {
    if (q_[i].wr_id == wr_id) {
      q_.erase(i);  // already landed: reclaim immediately
      ++stale_dropped_;
      return;
    }
  }
  // An unsignaled success abandoned mid-window sits in its context's
  // shadow buffer, not in q_ — reclaim it there or its slot would leak
  // until (and past) the closer, and the wr_id would ghost-surface.
  for (auto& [ctx, st] : ctxs_) {
    for (std::size_t i = 0; i < st.shadow.size(); ++i) {
      if (st.shadow[i].c.wr_id == wr_id) {
        st.shadow.erase(i);
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

void QpContext::post(int target_node, const WorkRequest& wr,
                     CompletionQueue& cq, bool force_signal) {
  Pending p{target_node, wr, {}, &cq, force_signal};
  if (wr.verb == Verb::Write) {
    p.payload = sim::ByteBlock(wr.payload.data(), wr.payload.size());
  }
  p.wr.payload = {};
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
      self->launch(self->deferred_.take_front());
    }
    cq->deliver(self->ctx_id_, seq, signaled, std::move(c));
  };
  local_->post(p.target, p.wr, std::move(p.payload), std::move(done), ctx_id_,
               tenant_);
}

// --- QueuePair ----------------------------------------------------------------

QueuePair::QueuePair(Nic& local, int remote_node, CompletionQueue& cq,
                     std::shared_ptr<QpContext> ctx)
    : remote_node_(remote_node),
      cq_(&cq),
      ctx_(ctx ? std::move(ctx) : std::make_shared<QpContext>(local)) {}

void QueuePair::post(const WorkRequest& wr, bool force_signal) {
  ctx_->post(remote_node_, wr, *cq_, force_signal);
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

os::Program post_read_batch(os::SimThread& /*self*/,
                            const std::vector<ReadBatchEntry>& batch) {
  if (batch.empty()) co_return;
  // One doorbell for the whole chain; the posts themselves are pointer
  // writes into the send queue(s), free at this resolution.
  co_await os::Compute{kDoorbellCost};
  batch.front().qp->context().nic().count_doorbell(batch.size());
  // Close every context's chain: the LAST WR posted through each distinct
  // QpContext is force-signaled, so a signal-every-k context never ends a
  // burst with an unprovable unsignaled tail. With dedicated contexts
  // (defaults) every entry is its context's last — all signaled, the
  // historical behaviour. Each context stamps its last index first, so
  // the batch needs no lookup table.
  for (std::size_t i = 0; i < batch.size(); ++i) {
    batch[i].qp->context().batch_last_ = i;
  }
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const ReadBatchEntry& e = batch[i];
    e.qp->post(e.wr, /*force_signal=*/e.qp->context().batch_last_ == i);
  }
}

os::Program rdma_sync(os::SimThread& self, QueuePair& qp, WorkRequest wr,
                      Completion& out, sim::TimePoint deadline,
                      bool* timed_out) {
  if (timed_out != nullptr) *timed_out = false;
  // Doorbell: a cheap user-space MMIO write.
  co_await os::Compute{kDoorbellCost};
  qp.context().nic().count_doorbell(1);
  const std::uint64_t wr_id = wr.wr_id;
  qp.post(wr);
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
