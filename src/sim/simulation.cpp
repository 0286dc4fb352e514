#include "sim/simulation.hpp"

namespace rdmamon::sim {

// Both loops enter the queue once per event: pop_until advances the clock
// BEFORE running the callback, so event bodies observe now() == their own
// timestamp.

void Simulation::run() {
  stop_requested_ = false;
  while (!stop_requested_ && queue_.pop_until(kNever, now_)) {
  }
}

void Simulation::run_until(TimePoint deadline) {
  stop_requested_ = false;
  while (!stop_requested_ && queue_.pop_until(deadline, now_)) {
  }
  if (!stop_requested_ && now_ < deadline) now_ = deadline;
}

}  // namespace rdmamon::sim
