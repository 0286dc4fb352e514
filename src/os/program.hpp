// Thread bodies as C++20 coroutines.
//
// A Program is a resumable routine that co_awaits os::Action values (the
// scheduler executes them) and other Programs (subroutine composition):
//
//   Program worker(SimThread& self) {
//     for (;;) {
//       co_await Compute{sim::usec(120)};
//       co_await SleepFor{sim::msec(10)};
//       co_await handle_request(self, req);   // nested Program
//     }
//   }
//
// Nested programs run on the owning thread's frame stack: the scheduler
// always resumes the innermost frame; when it finishes, its parent resumes.
// Return values flow through captured references (Programs return void).
//
// Every Program takes the SimThread it runs on as a parameter — its first
// one, or the first after the object of a member function or lambda — and
// its frame comes from that thread's Simulation's sim::FramePool. There is
// no other frame allocator: a coroutine without a SimThread& does not
// compile.
#pragma once

#include <coroutine>
#include <cstddef>
#include <cstdlib>
#include <utility>

#include "os/action.hpp"
#include "sim/frame_pool.hpp"

namespace rdmamon::os {

class SimThread;
class Program;

/// A frame block from `t`'s Simulation's frame pool (thread.cpp).
void* frame_alloc(SimThread& t, std::size_t bytes);

struct ProgramPromise {
  /// Frame allocation for `Program f(SimThread&, ...)`.
  static void* operator new(std::size_t n, SimThread& t, auto&&...) {
    return frame_alloc(t, n);
  }
  /// ...and for a member function or lambda `Program C::f(SimThread&, ...)`.
  template <typename C>
  static void* operator new(std::size_t n, C&, SimThread& t, auto&&...) {
    return frame_alloc(t, n);
  }
  static void operator delete(void* p) noexcept {
    sim::FramePool::release(p);
  }

  /// The thread whose frame stack this coroutine runs on; set when the
  /// program is attached (root) or awaited (child).
  SimThread* thread = nullptr;

  /// Set when the coroutine suspends on an Action.
  Action pending{YieldCpu{}};
  bool has_pending = false;

  Program get_return_object();
  std::suspend_always initial_suspend() noexcept { return {}; }
  std::suspend_always final_suspend() noexcept { return {}; }
  void return_void() {}
  void unhandled_exception() { std::abort(); }

  struct ActionAwaiter {
    ProgramPromise* p;
    Action a;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<>) noexcept {
      p->pending = a;
      p->has_pending = true;
    }
    void await_resume() const noexcept {}
  };

  struct ProgramAwaiter;  // defined after Program below

  ActionAwaiter await_transform(Action a) { return {this, std::move(a)}; }
  ActionAwaiter await_transform(Compute a) { return {this, Action(a)}; }
  ActionAwaiter await_transform(ComputeKernel a) { return {this, Action(a)}; }
  ActionAwaiter await_transform(SleepFor a) { return {this, Action(a)}; }
  ActionAwaiter await_transform(SleepUntil a) { return {this, Action(a)}; }
  ActionAwaiter await_transform(WaitOn a) { return {this, Action(a)}; }
  ActionAwaiter await_transform(YieldCpu a) { return {this, Action(a)}; }
  ActionAwaiter await_transform(ExitThread a) { return {this, Action(a)}; }
  ProgramAwaiter await_transform(Program&& p);
};

class Program {
 public:
  using promise_type = ProgramPromise;
  using Handle = std::coroutine_handle<promise_type>;

  Program() = default;
  explicit Program(Handle h) : h_(h) {}
  Program(Program&& o) noexcept : h_(std::exchange(o.h_, nullptr)) {}
  Program& operator=(Program&& o) noexcept {
    if (this != &o) {
      destroy();
      h_ = std::exchange(o.h_, nullptr);
    }
    return *this;
  }
  Program(const Program&) = delete;
  Program& operator=(const Program&) = delete;
  ~Program() { destroy(); }

  bool valid() const { return static_cast<bool>(h_); }
  Handle handle() const { return h_; }
  promise_type& promise() const { return h_.promise(); }

 private:
  void destroy() {
    if (h_) {
      h_.destroy();
      h_ = nullptr;
    }
  }
  Handle h_{};
};

inline Program ProgramPromise::get_return_object() {
  return Program(Program::Handle::from_promise(*this));
}

/// Awaiting a Program pushes it onto the owning thread's frame stack and
/// keeps the child frame alive for the duration of the co_await.
struct ProgramPromise::ProgramAwaiter {
  ProgramPromise* parent;
  Program child;
  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<>) noexcept;  // in thread.cpp
  void await_resume() const noexcept {}
};

inline ProgramPromise::ProgramAwaiter ProgramPromise::await_transform(
    Program&& p) {
  return ProgramAwaiter{this, std::move(p)};
}

}  // namespace rdmamon::os
