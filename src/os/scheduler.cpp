#include "os/scheduler.hpp"

#include <cassert>
#include <utility>

#include "os/wait.hpp"

namespace rdmamon::os {

// --- WaitQueue notify (here because it needs Scheduler/SimThread) ----------

void WaitQueue::notify_one() {
  if (waiters_.empty()) return;
  SimThread* t = waiters_.take_front();
  t->scheduler().wake(t);
}

void WaitQueue::notify_all() {
  while (!waiters_.empty()) notify_one();
}

// --- Scheduler --------------------------------------------------------------

Scheduler::Scheduler(sim::Simulation& simu, Node& node, KernelStats& stats,
                     const NodeConfig& cfg)
    : simu_(simu), node_(node), stats_(stats), cfg_(cfg) {
  cpus_.resize(static_cast<std::size_t>(cfg_.cpus));
  for (int i = 0; i < cfg_.cpus; ++i) cpus_[static_cast<std::size_t>(i)].id = i;
}

Scheduler::~Scheduler() = default;

SimThread* Scheduler::spawn(std::string name, ProgramFactory factory,
                            SpawnOptions opts) {
  std::unique_ptr<SimThread> owned(new (simu_.frame_pool()) SimThread(
      next_tid_++, std::move(name), opts.priority, node_, *this));
  SimThread* t = owned.get();
  t->set_kernel_thread(opts.kernel_thread);
  t->affinity = opts.affinity;
  t->interactive_allowed = opts.interactive_allowed;
  threads_.push_back(std::move(owned));
  t->attach_factory(std::move(factory));
  stats_.on_thread_created(t->kernel_thread());
  t->state = ThreadState::Ready;
  t->ready_since = simu_.now();
  stats_.on_thread_runnable(t->kernel_thread());
  if (Cpu* c = find_idle_cpu(t)) {
    dispatch(*c, t);
  } else {
    enqueue_tail(t);
  }
  return t;
}

void Scheduler::wake(SimThread* t) {
  if (t->state != ThreadState::Sleeping && t->state != ThreadState::Blocked) {
    return;
  }
  if (t->state == ThreadState::Sleeping) t->sleep_event.cancel();
  if (t->waiting_on) {
    t->waiting_on->remove(t);
    t->waiting_on = nullptr;
  }
  make_runnable(t, t->interactive && t->interactive_allowed);
}

void Scheduler::kill(SimThread* t) {
  switch (t->state) {
    case ThreadState::Finished:
      return;
    case ThreadState::Running: {
      Cpu& c = cpus_[static_cast<std::size_t>(t->cpu)];
      pause_segment(c);
      c.quantum_ev.cancel();
      c.current = nullptr;
      t->cpu = -1;
      t->state = ThreadState::Finished;
      stats_.on_thread_unrunnable(t->kernel_thread());
      stats_.on_thread_exited(t->kernel_thread());
      if (!c.in_irq) cpu_try_dispatch(c);
      return;
    }
    case ThreadState::Ready:
      remove_from_ready(t);
      t->state = ThreadState::Finished;
      stats_.on_thread_unrunnable(t->kernel_thread());
      stats_.on_thread_exited(t->kernel_thread());
      return;
    case ThreadState::Sleeping:
      t->sleep_event.cancel();
      t->state = ThreadState::Finished;
      stats_.on_thread_exited(t->kernel_thread());
      return;
    case ThreadState::Blocked:
      if (t->waiting_on) {
        t->waiting_on->remove(t);
        t->waiting_on = nullptr;
      }
      t->state = ThreadState::Finished;
      stats_.on_thread_exited(t->kernel_thread());
      return;
  }
}

void Scheduler::reap(SimThread* t) {
  assert(t->state == ThreadState::Finished && "reap a killed thread");
  for (auto& owned : threads_) {
    if (owned.get() != t) continue;
    std::swap(owned, threads_.back());
    threads_.pop_back();  // frames and object go back to the frame pool
    return;
  }
  assert(false && "thread not spawned by this scheduler");
}

// --- ready queue -------------------------------------------------------------

void Scheduler::enqueue_tail(SimThread* t) {
  ready_[static_cast<std::size_t>(t->priority())].push_back(t);
}

SimThread* Scheduler::pick_ready(CpuId cpu) {
  for (auto& level : ready_) {
    for (std::size_t i = 0; i < level.size(); ++i) {
      SimThread* t = level[i];
      if (t->affinity == -1 || t->affinity == cpu) {
        level.erase(i);
        return t;
      }
    }
  }
  return nullptr;
}

bool Scheduler::someone_waiting_for(const Cpu& c) const {
  const int cur_prio = static_cast<int>(c.current->priority());
  for (int lvl = 0; lvl <= cur_prio; ++lvl) {
    const auto& level = ready_[static_cast<std::size_t>(lvl)];
    for (std::size_t i = 0; i < level.size(); ++i) {
      if (level[i]->affinity == -1 || level[i]->affinity == c.id) return true;
    }
  }
  return false;
}

void Scheduler::remove_from_ready(SimThread* t) {
  auto& level = ready_[static_cast<std::size_t>(t->priority())];
  for (std::size_t i = 0; i < level.size(); ++i) {
    if (level[i] == t) {
      level.erase(i);
      return;
    }
  }
  assert(false && "thread not in its ready queue");
}

// --- dispatching -------------------------------------------------------------

Scheduler::Cpu* Scheduler::find_idle_cpu(SimThread* t) {
  for (auto& c : cpus_) {
    if (c.current == nullptr && !c.in_irq &&
        (t->affinity == -1 || t->affinity == c.id)) {
      return &c;
    }
  }
  return nullptr;
}

Scheduler::Cpu* Scheduler::find_preemptable_cpu(SimThread* t) {
  // A CPU is preemptable only while it executes an ordinary thread
  // segment. `!seg_active` means the CPU is mid-scheduling-decision (its
  // current thread's coroutine body is being advanced right now — this
  // wake may well originate from that body); preempting it would corrupt
  // the in-flight decision.
  auto eligible = [&](const Cpu& c) {
    return !c.in_irq && c.current != nullptr && c.seg_active &&
           !c.seg_is_ctx && (t->affinity == -1 || t->affinity == c.id);
  };
  // First pass: a CPU running a strictly lower-priority thread.
  for (auto& c : cpus_) {
    if (!eligible(c)) continue;
    if (static_cast<int>(c.current->priority()) >
        static_cast<int>(t->priority())) {
      return &c;
    }
  }
  // Second pass: an interactive waker may preempt a same-priority CPU hog.
  if (t->interactive) {
    for (auto& c : cpus_) {
      if (!eligible(c)) continue;
      if (c.current->priority() == t->priority() && !c.current->interactive) {
        return &c;
      }
    }
  }
  return nullptr;
}

void Scheduler::make_runnable(SimThread* t, bool interactive_wake) {
  t->state = ThreadState::Ready;
  t->ready_since = simu_.now();
  stats_.on_thread_runnable(t->kernel_thread());
  if (Cpu* c = find_idle_cpu(t)) {
    dispatch(*c, t);
    return;
  }
  if (interactive_wake) {
    if (Cpu* c = find_preemptable_cpu(t)) {
      // Evict the current occupant, then take its CPU.
      pause_segment(*c);
      c->quantum_ev.cancel();
      SimThread* v = c->current;
      if (!c->seg_is_ctx) {
        v->remaining = c->seg_left;
        v->remaining_is_kernel = (c->seg_state == CpuState::Kernel);
        v->has_remaining = c->seg_left.ns > 0;
      }
      v->state = ThreadState::Ready;
      v->ready_since = simu_.now();
      v->cpu = -1;
      c->current = nullptr;
      enqueue_tail(v);
      dispatch(*c, t);
      return;
    }
  }
  // FIFO within the level: no head insertion, so a continuously-cycling
  // set of interactive threads cannot starve another waiter (the 2.4
  // epoch mechanism's fairness guarantee, in minimal form). Interactivity
  // only buys preemption over non-interactive currents, above.
  enqueue_tail(t);
}

void Scheduler::dispatch(Cpu& c, SimThread* t) {
  assert(c.current == nullptr && !c.in_irq);
  t->state = ThreadState::Running;
  t->cpu = c.id;
  c.current = t;
  t->runqueue_wait_ns.add(
      static_cast<double>((simu_.now() - t->ready_since).ns));
  ++ctx_switches_;
  c.quantum_left = cfg_.quantum;
  c.quantum_ev.cancel();
  c.quantum_ev =
      simu_.after(c.quantum_left, [this, &c] { on_quantum_expired(c); });
  if (cfg_.context_switch_cost.ns > 0) {
    start_segment(c, cfg_.context_switch_cost, CpuState::Kernel,
                  /*is_ctx=*/true);
  } else {
    run_current(c);
  }
}

void Scheduler::cpu_try_dispatch(Cpu& c) {
  if (c.in_irq || c.current != nullptr) return;
  if (SimThread* t = pick_ready(c.id)) {
    dispatch(c, t);
  } else {
    stats_.set_cpu_state(c.id, CpuState::Idle, simu_.now());
  }
}

void Scheduler::start_segment(Cpu& c, sim::Duration d, CpuState state,
                              bool is_ctx) {
  assert(d.ns > 0);
  c.seg_active = true;
  c.seg_is_ctx = is_ctx;
  c.seg_state = state;
  c.seg_left = d;
  c.run_start = simu_.now();
  stats_.set_cpu_state(c.id, state, simu_.now());
  c.seg_ev.cancel();
  c.seg_ev = simu_.after(d, [this, &c] { on_segment_done(c); });
}

void Scheduler::account_segment(Cpu& c, sim::Duration ran) {
  if (ran.ns <= 0 || c.current == nullptr) return;
  if (c.seg_state == CpuState::User) {
    c.current->user_time += ran;
  } else {
    c.current->system_time += ran;
  }
}

void Scheduler::on_segment_done(Cpu& c) {
  account_segment(c, simu_.now() - c.run_start);
  c.seg_active = false;
  run_current(c);
}

void Scheduler::pause_segment(Cpu& c) {
  if (!c.seg_active) return;
  const sim::Duration elapsed = simu_.now() - c.run_start;
  account_segment(c, elapsed);
  c.seg_left -= elapsed;
  if (c.seg_left.ns < 0) c.seg_left = {};
  c.quantum_left -= elapsed;
  c.seg_ev.cancel();
  c.seg_active = false;
}

void Scheduler::resume_segment(Cpu& c) {
  assert(c.current != nullptr);
  if (c.seg_left.ns <= 0) {
    // The segment had (sub-ns) nothing left; treat as completed.
    stats_.set_cpu_state(c.id, c.seg_state, simu_.now());
    run_current(c);
    return;
  }
  c.seg_active = true;
  c.run_start = simu_.now();
  stats_.set_cpu_state(c.id, c.seg_state, simu_.now());
  c.seg_ev.cancel();
  c.seg_ev = simu_.after(c.seg_left, [this, &c] { on_segment_done(c); });
  sim::Duration q = c.quantum_left;
  if (q.ns < 0) q = {};
  c.quantum_ev.cancel();
  c.quantum_ev = simu_.after(q, [this, &c] { on_quantum_expired(c); });
}

void Scheduler::on_quantum_expired(Cpu& c) {
  if (c.in_irq || c.current == nullptr) return;
  if (!someone_waiting_for(c)) {
    // Nobody to run: grant a fresh quantum in place.
    c.quantum_left = cfg_.quantum;
    c.quantum_ev.cancel();
    c.quantum_ev =
        simu_.after(c.quantum_left, [this, &c] { on_quantum_expired(c); });
    return;
  }
  preempt(c);
}

void Scheduler::preempt(Cpu& c) {
  pause_segment(c);
  c.quantum_ev.cancel();
  SimThread* t = c.current;
  if (!c.seg_is_ctx) {
    t->remaining = c.seg_left;
    t->remaining_is_kernel = (c.seg_state == CpuState::Kernel);
    t->has_remaining = c.seg_left.ns > 0;
  }
  t->interactive = false;  // descheduled involuntarily: a CPU hog
  t->state = ThreadState::Ready;
  t->ready_since = simu_.now();
  t->cpu = -1;
  c.current = nullptr;
  enqueue_tail(t);
  cpu_try_dispatch(c);
}

void Scheduler::run_current(Cpu& c) {
  SimThread* t = c.current;
  assert(t != nullptr);
  for (;;) {
    if (t->has_remaining) {
      const sim::Duration d = t->remaining;
      const bool kernel = t->remaining_is_kernel;
      t->has_remaining = false;
      if (d.ns > 0) {
        start_segment(c, d, kernel ? CpuState::Kernel : CpuState::User,
                      /*is_ctx=*/false);
        return;
      }
      // fully consumed: fall through to fetch the next action
    }
    const Action a = t->advance();
    if (const auto* comp = std::get_if<Compute>(&a)) {
      if (comp->amount.ns <= 0) continue;
      start_segment(c, comp->amount, CpuState::User, false);
      return;
    }
    if (const auto* compk = std::get_if<ComputeKernel>(&a)) {
      if (compk->amount.ns <= 0) continue;
      start_segment(c, compk->amount, CpuState::Kernel, false);
      return;
    }
    if (const auto* sl = std::get_if<SleepFor>(&a)) {
      if (sl->amount.ns <= 0) {
        deschedule(c, ThreadState::Ready, /*voluntary=*/true);
        return;
      }
      const sim::TimePoint when = round_up_tick(simu_.now() + sl->amount);
      t->sleep_event = simu_.at(when, [this, t] { wake(t); });
      deschedule(c, ThreadState::Sleeping, true);
      return;
    }
    if (const auto* su = std::get_if<SleepUntil>(&a)) {
      sim::TimePoint when = su->when;
      if (when < simu_.now()) when = simu_.now();
      when = round_up_tick(when);
      t->sleep_event = simu_.at(when, [this, t] { wake(t); });
      deschedule(c, ThreadState::Sleeping, true);
      return;
    }
    if (const auto* w = std::get_if<WaitOn>(&a)) {
      // Register on the wait queue BEFORE redispatching the CPU: with a
      // zero context-switch cost the next thread runs synchronously and
      // might notify this queue immediately.
      t->waiting_on = w->wq;
      w->wq->add(t);
      deschedule(c, ThreadState::Blocked, true);
      return;
    }
    if (std::holds_alternative<YieldCpu>(a)) {
      deschedule(c, ThreadState::Ready, /*voluntary=*/false);
      return;
    }
    // ExitThread
    deschedule(c, ThreadState::Finished, true);
    return;
  }
}

void Scheduler::deschedule(Cpu& c, ThreadState new_state, bool voluntary) {
  SimThread* t = c.current;
  assert(!c.seg_active);  // caller reaches here only between segments
  c.quantum_ev.cancel();
  t->cpu = -1;
  c.current = nullptr;
  t->interactive = voluntary;
  t->state = new_state;
  switch (new_state) {
    case ThreadState::Ready:
      // Voluntary yield (or sleep(0)): runnable again at the tail.
      t->ready_since = simu_.now();
      enqueue_tail(t);
      break;
    case ThreadState::Sleeping:
    case ThreadState::Blocked:
      stats_.on_thread_unrunnable(t->kernel_thread());
      break;
    case ThreadState::Finished:
      stats_.on_thread_unrunnable(t->kernel_thread());
      stats_.on_thread_exited(t->kernel_thread());
      break;
    case ThreadState::Running:
      assert(false);
      break;
  }
  cpu_try_dispatch(c);
}

// --- interrupts ---------------------------------------------------------------

void Scheduler::request_irq(CpuId cpu, sim::Duration cost, IrqBody body) {
  Cpu& c = cpus_[static_cast<std::size_t>(cpu)];
  c.irq_q.push_back(IrqJob{cost, std::move(body)});
  if (!c.in_irq) begin_irq(c);
}

void Scheduler::begin_irq(Cpu& c) {
  c.in_irq = true;
  if (c.seg_active) pause_segment(c);
  c.quantum_ev.cancel();
  stats_.set_cpu_state(c.id, CpuState::Irq, simu_.now());
  run_next_irq(c);
}

void Scheduler::run_next_irq(Cpu& c) {
  assert(!c.irq_q.empty());
  const sim::Duration cost = c.irq_q.front().cost;
  c.irq_ev = simu_.after(cost, [this, &c] {
    IrqJob job = c.irq_q.take_front();
    if (job.body) job.body();
    if (!c.irq_q.empty()) {
      run_next_irq(c);
      return;
    }
    c.in_irq = false;
    if (c.current != nullptr) {
      resume_segment(c);
    } else {
      stats_.set_cpu_state(c.id, CpuState::Idle, simu_.now());
      cpu_try_dispatch(c);
    }
  });
}

sim::TimePoint Scheduler::round_up_tick(sim::TimePoint t) const {
  const std::int64_t tick = cfg_.tick().ns;
  return sim::TimePoint{(t.ns + tick - 1) / tick * tick};
}

}  // namespace rdmamon::os
