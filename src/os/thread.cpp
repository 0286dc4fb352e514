#include "os/thread.hpp"

#include <cassert>

#include "os/node.hpp"
#include "os/wait.hpp"

namespace rdmamon::os {

void* frame_alloc(SimThread& t, std::size_t bytes) {
  return t.node().simu().frame_pool().allocate(bytes);
}

SimThread::SimThread(ThreadId tid, std::string name, Priority prio,
                     Node& node, Scheduler& sched)
    : tid_(tid), name_(std::move(name)), prio_(prio), node_(node),
      sched_(sched) {}

void SimThread::attach_factory(std::function<Program(SimThread&)> factory) {
  assert(!root_.valid());
  factory_ = std::move(factory);
  root_ = factory_(*this);
  root_.promise().thread = this;
  stack_.push_back(root_.handle());
}

Action SimThread::advance() {
  // Guard against runaway zero-time loops in thread bodies.
  for (int hops = 0; hops < 1'000'000; ++hops) {
    if (stack_.empty()) return ExitThread{};
    Program::Handle top = stack_.back();
    top.resume();
    if (top.done()) {
      // Subprogram (or root) finished. Pop it; its frame is destroyed by
      // the parent awaiter when the parent resumes (or by root_'s dtor).
      stack_.pop_back();
      if (stack_.empty()) return ExitThread{};
      continue;  // resume the parent next iteration
    }
    auto& p = top.promise();
    if (p.has_pending) {
      p.has_pending = false;
      return p.pending;
    }
    // No action pending: the coroutine suspended to push a child program;
    // the child is now on top of the stack. Loop to resume it.
    assert(stack_.back() != top);
  }
  assert(false && "thread body made no progress (infinite subprogram loop?)");
  return ExitThread{};
}

void ProgramPromise::ProgramAwaiter::await_suspend(
    std::coroutine_handle<>) noexcept {
  SimThread* t = parent->thread;
  child.promise().thread = t;
  t->push_frame(child.handle());
}

void WaitQueue::remove(SimThread* t) {
  for (std::size_t i = 0; i < waiters_.size(); ++i) {
    if (waiters_[i] == t) {
      waiters_.erase(i);
      return;
    }
  }
}

}  // namespace rdmamon::os
