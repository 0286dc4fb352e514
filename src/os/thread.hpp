// A simulated kernel-schedulable thread: a coroutine frame stack plus the
// scheduling state the kernel keeps per task.
#pragma once

#include <functional>
#include <string>

#include "os/program.hpp"
#include "os/types.hpp"
#include "sim/event_queue.hpp"
#include "sim/frame_pool.hpp"
#include "sim/stats.hpp"
#include "sim/time.hpp"

namespace rdmamon::os {

class Scheduler;
class Node;
class WaitQueue;

/// Lives in its Simulation's sim::FramePool, as its frames do
/// (Scheduler::spawn places it there): a thread its owner reaps
/// (Scheduler::reap) gives the block back, and the next spawn on any node
/// of the simulation builds a new thread in it.
class SimThread {
 public:
  SimThread(ThreadId tid, std::string name, Priority prio, Node& node,
            Scheduler& sched);

  static void* operator new(std::size_t n, sim::FramePool& pool) {
    return pool.allocate(n);
  }
  static void operator delete(void* p) noexcept {
    sim::FramePool::release(p);
  }
  static void operator delete(void* p, sim::FramePool&) noexcept {
    sim::FramePool::release(p);
  }

  // Not movable/copyable: coroutine promises hold stable pointers to it.
  SimThread(const SimThread&) = delete;
  SimThread& operator=(const SimThread&) = delete;

  /// Attaches the body by invoking `factory(*this)`. The factory object is
  /// kept alive for the thread's lifetime: a capturing lambda coroutine
  /// stores its captures in the lambda object, NOT the coroutine frame, so
  /// the callable must outlive every resume. Called once by Scheduler::spawn.
  void attach_factory(std::function<Program(SimThread&)> factory);

  /// Runs the coroutine stack until it produces the next Action (resuming
  /// through finished subprograms). Returns ExitThread when the root body
  /// completes. Scheduler-internal.
  Action advance();

  /// Pushes a nested program frame (called from Program's awaiter).
  void push_frame(Program::Handle h) {
    h.promise().parent = top_;
    top_ = h;
  }

  // --- identity & config -------------------------------------------------
  ThreadId tid() const { return tid_; }
  const std::string& name() const { return name_; }
  Priority priority() const { return prio_; }
  Node& node() { return node_; }
  Scheduler& scheduler() { return sched_; }

  /// Kernel helper threads (ksoftirqd) are excluded from the user
  /// nr_running count exported via /proc.
  bool kernel_thread() const { return kernel_thread_; }
  void set_kernel_thread(bool v) { kernel_thread_ = v; }

  // --- scheduler state (owned by Scheduler, public within the OS) --------
  ThreadState state = ThreadState::Ready;

  /// True when the last deschedule was voluntary (sleep/block): the
  /// scheduler's interactivity heuristic, standing in for the 2.4
  /// counter/goodness bonus for sleepers.
  bool interactive = true;

  /// When false the thread never receives the interactive wake bonus,
  /// regardless of how it last descheduled. Used for ksoftirqd, which the
  /// 2.4-era kernel deliberately deprioritises (receive-livelock defence):
  /// deferred network work must queue behind runnable application threads.
  bool interactive_allowed = true;

  /// Partially-executed compute left over after a preemption.
  sim::Duration remaining{};
  bool remaining_is_kernel = false;
  bool has_remaining = false;

  /// CPU currently running this thread, or -1.
  CpuId cpu = -1;

  /// Pin to one CPU (-1 = run anywhere). Set at spawn; used by ksoftirqd.
  CpuId affinity = -1;

  /// Wait queue this thread is blocked on (for targeted removal).
  WaitQueue* waiting_on = nullptr;

  /// Pending sleep wakeup (cancellable in O(1) if the thread is killed;
  /// the handle goes inert on its own once the wakeup fires).
  sim::EventHandle sleep_event;

  /// Set when the thread became Ready; measures run-queue wait.
  sim::TimePoint ready_since{};

  // --- statistics ---------------------------------------------------------
  sim::Duration user_time{};
  sim::Duration system_time{};
  sim::OnlineStats runqueue_wait_ns;  ///< ready -> running latency samples

 private:
  ThreadId tid_;
  std::string name_;
  Priority prio_;
  Node& node_;
  Scheduler& sched_;
  bool kernel_thread_ = false;

  std::function<Program(SimThread&)> factory_;  // owns the body's closure
  Program root_;
  Program::Handle top_;  // innermost frame; frames are owned by awaiters
};

}  // namespace rdmamon::os
