// Kernel wait queues: the blocking primitive behind socket receive,
// completion queues, worker pools, and every other "wait for X" in the
// simulated OS.
#pragma once

#include <cstddef>

#include "sim/fifo.hpp"

namespace rdmamon::os {

class SimThread;

/// FIFO list of threads blocked on some condition. notify_one()/notify_all()
/// hand the thread back to its scheduler (wakeups may be spurious; waiters
/// must re-check their predicate).
class WaitQueue {
 public:
  /// Adds a blocked thread (scheduler-internal; called when a thread's
  /// WaitOn action is executed).
  void add(SimThread* t) { waiters_.push_back(t); }

  /// Removes a specific thread (e.g. thread killed while blocked).
  void remove(SimThread* t);

  /// Wakes the longest-waiting thread, if any.
  void notify_one();

  /// Wakes every waiting thread.
  void notify_all();

  bool empty() const { return waiters_.empty(); }
  std::size_t size() const { return waiters_.size(); }

 private:
  sim::Fifo<SimThread*> waiters_;
};

}  // namespace rdmamon::os
