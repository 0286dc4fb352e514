// Property/stress tests for the timer-wheel event queue: random
// interleavings of schedule / cancel / pop against a naive
// std::multimap reference model. The model is the seed kernel's
// contract: events fire in (time, insertion-sequence) order, ties at one
// timestamp fire FIFO, cancellation is exact and idempotent. Runs under
// ASan/UBSan in ci.sh sanitize.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "alloc_counter.hpp"
#include "sim/event_queue.hpp"
#include "sim/random.hpp"
#include "sim/simulation.hpp"
#include "sim/time.hpp"

namespace rdmamon::sim {
namespace {

/// Reference model: the exact contract of the seed binary-heap kernel.
class ModelQueue {
 public:
  int schedule(std::int64_t when) {
    const int id = next_id_++;
    events_.emplace(std::make_pair(when, seq_++), id);
    return id;
  }

  bool cancel(int id) {  // true if the event was live
    for (auto it = events_.begin(); it != events_.end(); ++it) {
      if (it->second == id) {
        events_.erase(it);
        return true;
      }
    }
    return false;
  }

  bool empty() const { return events_.empty(); }
  std::int64_t next_time() const { return events_.begin()->first.first; }

  int pop() {
    const int id = events_.begin()->second;
    events_.erase(events_.begin());
    return id;
  }

 private:
  std::multimap<std::pair<std::int64_t, std::uint64_t>, int> events_;
  std::uint64_t seq_ = 0;
  int next_id_ = 0;
};

/// Delta distribution exercising every residence class: same-instant,
/// sub-tick, every wheel level, and the far-future overflow heap.
std::int64_t random_delta(Rng& rng) {
  switch (rng.uniform_int(0, 6)) {
    case 0: return 0;                                  // same timestamp
    case 1: return rng.uniform_int(1, 1'000);          // sub-tick
    case 2: return rng.uniform_int(1, 260'000);        // level 0
    case 3: return rng.uniform_int(1, 60'000'000);     // level 1
    case 4: return rng.uniform_int(1, 15'000'000'000); // level 2
    case 5: return rng.uniform_int(1, 60'000'000'000); // often -> heap
    default: return rng.uniform_int(1, 4'000);         // near, dense
  }
}

struct LiveEvent {
  EventHandle handle;
  int id;
};

TEST(EventQueueStress, MatchesMultimapModelUnderRandomInterleaving) {
  for (std::uint64_t seed : {1ull, 7ull, 42ull, 1234ull}) {
    EventQueue q;
    ModelQueue model;
    Rng rng(seed);
    std::vector<LiveEvent> live;
    std::vector<EventHandle> dead;  // fired or cancelled: must stay inert
    std::vector<int> fired, fired_model;
    std::int64_t now = 0;

    for (int step = 0; step < 20'000; ++step) {
      const std::int64_t op = rng.uniform_int(0, 9);
      if (op < 5) {  // schedule
        const std::int64_t when = now + random_delta(rng);
        const int id = model.schedule(when);
        EventHandle h =
            q.schedule(TimePoint{when}, [id, &fired] { fired.push_back(id); });
        EXPECT_TRUE(h.pending());
        live.push_back({h, id});
      } else if (op < 7) {  // cancel a random live handle
        if (!live.empty()) {
          const std::size_t pick = static_cast<std::size_t>(
              rng.uniform_int(0, static_cast<std::int64_t>(live.size()) - 1));
          LiveEvent ev = live[pick];
          live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
          EXPECT_TRUE(ev.handle.pending());
          ev.handle.cancel();
          EXPECT_FALSE(ev.handle.pending());
          ev.handle.cancel();  // idempotent
          EXPECT_TRUE(model.cancel(ev.id));
          dead.push_back(ev.handle);
        }
      } else if (op < 9) {  // pop a few events
        const int burst = static_cast<int>(rng.uniform_int(1, 4));
        for (int i = 0; i < burst && !model.empty(); ++i) {
          ASSERT_FALSE(q.empty());
          const std::int64_t want = model.next_time();
          ASSERT_EQ(q.next_time().ns, want) << "step " << step;
          const int want_id = model.pop();
          fired_model.push_back(want_id);
          const std::int64_t t = q.pop_and_run().ns;
          ASSERT_EQ(t, want);
          ASSERT_GE(t, now) << "time went backwards at step " << step;
          now = t;
          // Drop the fired event from the live set; its handle is dead.
          for (std::size_t j = 0; j < live.size(); ++j) {
            if (live[j].id == want_id) {
              EXPECT_FALSE(live[j].handle.pending());
              dead.push_back(live[j].handle);
              live.erase(live.begin() + static_cast<std::ptrdiff_t>(j));
              break;
            }
          }
          ASSERT_EQ(fired.size(), fired_model.size());
          ASSERT_EQ(fired.back(), want_id) << "wrong order at step " << step;
        }
        EXPECT_EQ(q.empty(), model.empty());
      } else {  // poke dead handles: cancel-after-fire must stay a no-op
        for (EventHandle& h : dead) {
          EXPECT_FALSE(h.pending());
          h.cancel();
        }
        dead.clear();
      }
      ASSERT_EQ(q.size(), live.size());
    }

    // Drain to the end: the full execution sequences must match exactly.
    while (!model.empty()) {
      ASSERT_FALSE(q.empty());
      ASSERT_EQ(q.next_time().ns, model.next_time());
      fired_model.push_back(model.pop());
      q.pop_and_run();
    }
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(fired, fired_model) << "seed " << seed;
    EXPECT_EQ(q.executed(), fired.size());
  }
}

TEST(EventQueueStress, SameTimestampBurstsFireFifoAcrossResidenceClasses) {
  // Schedule bursts at the same instant from different horizons so ties
  // span ready-list inserts, wheel slots and heap drains.
  EventQueue q;
  std::vector<int> order;
  int next = 0;
  for (std::int64_t t : {0ll, 500ll, 1'000'000ll, 20'000'000'000ll}) {
    for (int i = 0; i < 8; ++i) {
      q.schedule(TimePoint{t}, [&order, id = next++] { order.push_back(id); });
    }
  }
  while (!q.empty()) q.pop_and_run();
  ASSERT_EQ(order.size(), static_cast<std::size_t>(next));
  for (int i = 0; i < next; ++i) EXPECT_EQ(order[i], i);
}

TEST(EventQueueStress, CancelHeavyTimeoutPatternSweepsTombstones) {
  // The monitoring plane's hottest pattern: arm a timeout, cancel it on
  // completion. Wheel-resident cancels unlink eagerly; far-future
  // (heap-resident) cancels tombstone until the lazy sweep.
  EventQueue q;
  int fired = 0;
  for (int round = 0; round < 1'000; ++round) {
    EventHandle near = q.schedule(TimePoint{round * 10 + 5}, [&] { ++fired; });
    EventHandle far =
        q.schedule(TimePoint{round * 10 + 30'000'000'000ll}, [&] { ++fired; });
    near.cancel();
    far.cancel();
    q.schedule(TimePoint{round * 10 + 7}, [&] { ++fired; });
  }
  EXPECT_EQ(q.size(), 1'000u);
  EXPECT_EQ(q.cancelled_total(), 2'000u);
  // Far-future cancels are lazily swept, so they stay pool-resident —
  // except round 0's: its two cancels momentarily left the queue with no
  // live event at all, which reaps every outstanding tombstone on the spot.
  EXPECT_EQ(q.cancelled_pending(), 999u);
  while (!q.empty()) q.pop_and_run();
  EXPECT_EQ(fired, 1'000);
  EXPECT_EQ(q.cancelled_pending(), 0u) << "drain must reap every tombstone";
  EXPECT_EQ(q.executed(), 1'000u);
}

TEST(EventQueueStress, SteadyStateSchedulingDoesNotAllocate) {
  // Warm the pool and internal vectors, then verify the schedule ->
  // fire -> recycle loop never touches the heap: the zero-allocation
  // invariant bench_engine's perf figures rest on.
  Simulation simu;
  std::uint64_t ticks = 0;
  // Self-rescheduling events with InlineFn-sized captures, plus a
  // cancel-heavy timeout pattern.
  for (int i = 0; i < 64; ++i) {
    struct Periodic {
      Simulation* simu;
      std::uint64_t* ticks;
      std::int64_t period;
      void operator()() {
        ++*ticks;
        simu->after(Duration{period}, Periodic{*this});
      }
    };
    simu.after(Duration{1'000 + i * 37},
               Periodic{&simu, &ticks, 900 + i * 13});
  }
  simu.run_until(TimePoint{2'000'000});  // warm-up: pools + vectors grow
  // gtest itself allocates, so the counts bracket exactly the kernel.
  const std::uint64_t before = allocation_count();
  const std::size_t pool_before = simu.events_pending();
  simu.run_until(TimePoint{20'000'000});
  EXPECT_EQ(allocation_count(), before) << "steady-state run allocated";
  EXPECT_EQ(simu.events_pending(), pool_before);
  EXPECT_GT(ticks, 10'000u);

  // Timeout pattern on the warm queue: schedule+cancel must not allocate.
  const std::uint64_t before2 = allocation_count();
  for (int i = 0; i < 1'000; ++i) {
    EventHandle h = simu.after(Duration{5'000}, [] {});
    h.cancel();
  }
  EXPECT_EQ(allocation_count(), before2) << "schedule/cancel pair allocated";
}

TEST(EventQueueStress, HandlesSurviveSlotReuseAcrossGenerations) {
  EventQueue q;
  // Fire an event, then recycle its pool slot many times; the stale
  // handle must stay inert through every generation.
  int fired = 0;
  EventHandle stale = q.schedule(TimePoint{1}, [&] { ++fired; });
  q.pop_and_run();
  EXPECT_FALSE(stale.pending());
  for (int i = 0; i < 100; ++i) {
    EventHandle h = q.schedule(TimePoint{10 + i}, [&] { ++fired; });
    EXPECT_TRUE(h.pending());
    EXPECT_FALSE(stale.pending());
    stale.cancel();  // must never touch the new occupant
    EXPECT_TRUE(h.pending());
    q.pop_and_run();
  }
  EXPECT_EQ(fired, 101);
}

}  // namespace
}  // namespace rdmamon::sim
