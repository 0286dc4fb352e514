#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "os/node.hpp"
#include "os/program.hpp"
#include "os/wait.hpp"
#include "sim/simulation.hpp"

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#endif

namespace rdmamon::os {
namespace {

using sim::msec;
using sim::seconds;
using sim::usec;

NodeConfig test_config() {
  NodeConfig cfg;
  cfg.name = "test";
  cfg.cpus = 2;
  cfg.hz = 1000;
  cfg.quantum = msec(10);
  cfg.context_switch_cost = usec(3);
  return cfg;
}

TEST(Program, RunsToCompletionThroughActions) {
  sim::Simulation s;
  Node node(s, test_config());
  std::vector<int> marks;
  node.spawn("t", [&](SimThread&) -> Program {
    marks.push_back(1);
    co_await Compute{usec(100)};
    marks.push_back(2);
    co_await SleepFor{msec(5)};
    marks.push_back(3);
  });
  s.run_for(seconds(1));
  EXPECT_EQ(marks, (std::vector<int>{1, 2, 3}));
}

TEST(Program, NestedSubprogramsComposeInOrder) {
  sim::Simulation s;
  Node node(s, test_config());
  std::vector<int> marks;

  auto inner = [&marks](SimThread&, int tag) -> Program {
    marks.push_back(tag);
    co_await Compute{usec(10)};
    marks.push_back(tag + 1);
  };
  node.spawn("t", [&](SimThread& self) -> Program {
    marks.push_back(0);
    co_await inner(self, 10);
    marks.push_back(1);
    co_await inner(self, 20);
    marks.push_back(2);
  });
  s.run_for(msec(10));
  EXPECT_EQ(marks, (std::vector<int>{0, 10, 11, 1, 20, 21, 2}));
}

TEST(Scheduler, ComputeTakesSimulatedTime) {
  sim::Simulation s;
  Node node(s, test_config());
  sim::TimePoint done{};
  node.spawn("t", [&](SimThread&) -> Program {
    co_await Compute{msec(7)};
    done = s.now();
  });
  s.run_for(seconds(1));
  // 7ms of compute plus a few context switches (the exact count depends on
  // ksoftirqd startup order).
  EXPECT_GE(done.ns, (msec(7) + usec(3)).ns);
  EXPECT_LE(done.ns, (msec(7) + usec(15)).ns);
}

TEST(Scheduler, SleepRoundsUpToTimerTick) {
  NodeConfig cfg = test_config();
  cfg.hz = 100;  // 10ms resolution, like a 2.4 kernel at HZ=100
  cfg.context_switch_cost = {};
  sim::Simulation s;
  Node node(s, cfg);
  std::vector<std::int64_t> wake_times;
  node.spawn("t", [&](SimThread&) -> Program {
    co_await SleepFor{msec(1)};  // asks for 1ms...
    wake_times.push_back(s.now().ns);
    co_await SleepFor{msec(1)};
    wake_times.push_back(s.now().ns);
  });
  s.run_for(seconds(1));
  ASSERT_EQ(wake_times.size(), 2u);
  EXPECT_EQ(wake_times[0], msec(10).ns);  // ...wakes on the 10ms boundary
  EXPECT_EQ(wake_times[1], msec(20).ns);
}

TEST(Scheduler, TwoCpusRunTwoThreadsInParallel) {
  NodeConfig cfg = test_config();
  cfg.context_switch_cost = {};
  sim::Simulation s;
  Node node(s, cfg);
  std::vector<std::int64_t> done;
  for (int i = 0; i < 2; ++i) {
    node.spawn("t" + std::to_string(i), [&](SimThread&) -> Program {
      co_await Compute{msec(10)};
      done.push_back(s.now().ns);
    });
  }
  s.run_for(seconds(1));
  ASSERT_EQ(done.size(), 2u);
  EXPECT_EQ(done[0], msec(10).ns);
  EXPECT_EQ(done[1], msec(10).ns);  // truly parallel on 2 CPUs
}

TEST(Scheduler, RoundRobinSharesCpuFairly) {
  NodeConfig cfg = test_config();
  cfg.cpus = 1;
  cfg.context_switch_cost = {};
  sim::Simulation s;
  Node node(s, cfg);
  std::vector<int> finish_order;
  for (int i = 0; i < 3; ++i) {
    node.spawn("t" + std::to_string(i), [&, i](SimThread&) -> Program {
      co_await Compute{msec(30)};
      finish_order.push_back(i);
    });
  }
  s.run_for(seconds(1));
  ASSERT_EQ(finish_order.size(), 3u);
  // With RR at 10ms quantum over 30ms jobs, all finish near 90ms and in
  // spawn order.
  EXPECT_EQ(finish_order, (std::vector<int>{0, 1, 2}));
  // Each consumed its full compute.
  EXPECT_GE(s.now().ns, msec(90).ns - 1);
}

TEST(Scheduler, WaitQueueBlocksAndWakes) {
  sim::Simulation s;
  Node node(s, test_config());
  WaitQueue wq;
  bool data_ready = false;
  std::int64_t consumed_at = -1;
  node.spawn("consumer", [&](SimThread&) -> Program {
    while (!data_ready) co_await WaitOn{&wq};
    consumed_at = s.now().ns;
  });
  node.spawn("producer", [&](SimThread&) -> Program {
    co_await SleepFor{msec(20)};
    data_ready = true;
    wq.notify_one();
  });
  s.run_for(seconds(1));
  // Producer wakes on the tick after 20ms and hands off within ~one tick.
  EXPECT_GE(consumed_at, msec(20).ns);
  EXPECT_LT(consumed_at, msec(22).ns);
}

TEST(Scheduler, NotifyAllWakesEveryWaiter) {
  sim::Simulation s;
  Node node(s, test_config());
  WaitQueue wq;
  bool go = false;
  int woken = 0;
  for (int i = 0; i < 5; ++i) {
    node.spawn("w" + std::to_string(i), [&](SimThread&) -> Program {
      while (!go) co_await WaitOn{&wq};
      ++woken;
    });
  }
  node.spawn("p", [&](SimThread&) -> Program {
    co_await SleepFor{msec(1)};
    go = true;
    wq.notify_all();
  });
  s.run_for(seconds(1));
  EXPECT_EQ(woken, 5);
}

TEST(Scheduler, InteractiveWakerPreemptsCpuHog) {
  NodeConfig cfg = test_config();
  cfg.cpus = 1;
  cfg.context_switch_cost = {};
  sim::Simulation s;
  Node node(s, cfg);
  // A hog occupies the single CPU indefinitely.
  node.spawn("hog", [&](SimThread&) -> Program {
    for (;;) co_await Compute{msec(100)};
  });
  std::vector<std::int64_t> wakes;
  node.spawn("interactive", [&](SimThread&) -> Program {
    for (int i = 0; i < 3; ++i) {
      co_await SleepFor{msec(5)};
      wakes.push_back(s.now().ns);
    }
  });
  s.run_for(msec(100));
  ASSERT_EQ(wakes.size(), 3u);
  // The sleeper first runs at the hog's quantum expiry (10ms), then its
  // wakes preempt the (now non-interactive) hog immediately: successive
  // wakes land exactly one rounded sleep apart, not one 100ms burst apart.
  EXPECT_LE(wakes[0], msec(16).ns);
  EXPECT_EQ(wakes[1] - wakes[0], msec(5).ns);
  EXPECT_EQ(wakes[2] - wakes[1], msec(5).ns);
}

TEST(Scheduler, QuantumExpiryMarksHogNonInteractive) {
  NodeConfig cfg = test_config();
  cfg.cpus = 1;
  cfg.context_switch_cost = {};
  sim::Simulation s;
  Node node(s, cfg);
  SimThread* hog = node.spawn("hog", [&](SimThread&) -> Program {
    for (;;) co_await Compute{seconds(1)};
  });
  node.spawn("other", [&](SimThread&) -> Program {
    for (;;) co_await Compute{seconds(1)};
  });
  s.run_for(msec(50));
  EXPECT_FALSE(hog->interactive);
}

TEST(Scheduler, AffinityPinsThreadToCpu) {
  NodeConfig cfg = test_config();
  cfg.context_switch_cost = {};
  sim::Simulation s;
  Node node(s, cfg);
  SpawnOptions pin1;
  pin1.affinity = 1;
  SimThread* t = node.spawn(
      "pinned",
      [&](SimThread&) -> Program {
        for (;;) co_await Compute{msec(1)};
      },
      pin1);
  s.run_for(msec(5));
  EXPECT_EQ(t->cpu, 1);
}

TEST(Scheduler, KillStopsThreadEverywhere) {
  NodeConfig cfg = test_config();
  cfg.cpus = 1;
  sim::Simulation s;
  Node node(s, cfg);
  int progress = 0;
  SimThread* t = node.spawn("victim", [&](SimThread&) -> Program {
    for (;;) {
      co_await Compute{msec(1)};
      ++progress;
    }
  });
  s.run_for(msec(10));
  const int at_kill = progress;
  EXPECT_GT(at_kill, 0);
  node.sched().kill(t);
  EXPECT_EQ(t->state, ThreadState::Finished);
  s.run_for(msec(10));
  EXPECT_EQ(progress, at_kill);
}

TEST(KernelStats, NrRunningTracksRunnableUserThreads) {
  NodeConfig cfg = test_config();
  cfg.cpus = 1;
  sim::Simulation s;
  Node node(s, cfg);
  EXPECT_EQ(node.stats().nr_running(), 0);
  for (int i = 0; i < 4; ++i) {
    node.spawn("t" + std::to_string(i), [&](SimThread&) -> Program {
      co_await Compute{msec(100)};
    });
  }
  s.run_for(msec(1));
  EXPECT_EQ(node.stats().nr_running(), 4);
  EXPECT_EQ(node.stats().nr_threads(), 4);
  s.run_for(seconds(2));
  EXPECT_EQ(node.stats().nr_running(), 0);
  EXPECT_EQ(node.stats().nr_threads(), 0);
}

TEST(KernelStats, CpuUtilizationApproachesLoad) {
  NodeConfig cfg = test_config();
  cfg.cpus = 2;
  sim::Simulation s;
  Node node(s, cfg);
  // One always-busy thread on 2 CPUs -> ~50% node load.
  node.spawn("busy", [&](SimThread&) -> Program {
    for (;;) co_await Compute{seconds(10)};
  });
  s.run_for(seconds(2));
  EXPECT_NEAR(node.stats().cpu_load(s.now()), 0.5, 0.05);
}

TEST(KernelStats, MemoryAccounting) {
  sim::Simulation s;
  Node node(s, test_config());
  node.stats().alloc_memory(512 << 20);
  EXPECT_NEAR(node.stats().memory_load(), 0.5, 1e-9);
  node.stats().free_memory(1ull << 40);  // over-free clamps to zero
  EXPECT_DOUBLE_EQ(node.stats().memory_load(), 0.0);
}

TEST(Irq, HandlerStealsCpuFromThread) {
  NodeConfig cfg = test_config();
  cfg.cpus = 1;
  cfg.context_switch_cost = {};
  cfg.irq_handler_cost = usec(100);
  sim::Simulation s;
  Node node(s, cfg);
  sim::TimePoint done{};
  node.spawn("t", [&](SimThread&) -> Program {
    co_await Compute{msec(1)};
    done = s.now();
  });
  s.after(usec(200), [&] {
    node.irq().raise(0, IrqType::NetRx, nullptr);
  });
  s.run_for(msec(10));
  // 1ms of compute stretched by the 100us handler.
  EXPECT_EQ(done.ns, (msec(1) + usec(100)).ns);
}

TEST(Irq, PendingCountVisibleDuringService) {
  NodeConfig cfg = test_config();
  cfg.cpus = 1;
  cfg.irq_handler_cost = usec(50);
  sim::Simulation s;
  Node node(s, cfg);
  s.after(usec(10), [&] {
    node.irq().raise(0, IrqType::NetRx, nullptr);
    node.irq().raise(0, IrqType::NetRx, nullptr);
    EXPECT_EQ(node.irq().pending_hard(0, IrqType::NetRx), 2);
  });
  s.after(usec(40), [&] {
    EXPECT_EQ(node.irq().pending_hard_total(0), 2);  // first still in service
  });
  s.after(usec(70), [&] {
    EXPECT_EQ(node.irq().pending_hard_total(0), 1);  // second in service
  });
  s.after(usec(200), [&] {
    EXPECT_EQ(node.irq().pending_hard_total(0), 0);
  });
  s.run_for(msec(1));
  EXPECT_EQ(node.irq().raised_count(0, IrqType::NetRx), 2u);
}

TEST(Irq, SoftirqRunsThroughKsoftirqd) {
  NodeConfig cfg = test_config();
  cfg.cpus = 1;
  sim::Simulation s;
  Node node(s, cfg);
  int processed = 0;
  s.after(usec(10), [&] {
    for (int i = 0; i < 3; ++i) {
      node.irq().raise_softirq(
          0, SoftirqItem{usec(5), [&] { ++processed; }});
    }
  });
  s.run_for(msec(5));
  EXPECT_EQ(processed, 3);
  EXPECT_EQ(node.irq().softirq_backlog(0), 0u);
}

TEST(Irq, KsoftirqdWaitsBehindCpuHogs) {
  // The receive-livelock effect: with CPU hogs on every CPU, deferred
  // packet work is delayed by run-queue waiting, so softirq completion
  // takes much longer than the work itself.
  NodeConfig cfg = test_config();
  cfg.cpus = 1;
  cfg.quantum = msec(10);
  sim::Simulation s;
  Node node(s, cfg);
  node.spawn("hog", [&](SimThread&) -> Program {
    for (;;) co_await Compute{seconds(10)};
  });
  std::int64_t done_at = -1;
  s.after(msec(1), [&] {
    node.irq().raise_softirq(
        0, SoftirqItem{usec(5), [&] { done_at = s.now().ns; }});
  });
  s.run_for(seconds(1));
  ASSERT_GE(done_at, 0);
  // Must wait for at least the rest of the hog's quantum.
  EXPECT_GT(done_at, msec(8).ns);
}

TEST(ProcFs, SnapshotReflectsKernelState) {
  NodeConfig cfg = test_config();
  cfg.cpus = 2;
  sim::Simulation s;
  Node node(s, cfg);
  for (int i = 0; i < 3; ++i) {
    node.spawn("busy" + std::to_string(i), [&](SimThread&) -> Program {
      for (;;) co_await Compute{seconds(10)};
    });
  }
  node.stats().alloc_memory(256 << 20);
  s.run_for(seconds(1));
  const LoadSnapshot snap = node.procfs().snapshot();
  EXPECT_EQ(snap.nr_running, 3);
  EXPECT_EQ(snap.nr_threads, 3);
  EXPECT_GT(snap.cpu_load, 0.9);  // 3 hogs on 2 CPUs
  EXPECT_NEAR(snap.mem_load, 0.25, 0.01);
  EXPECT_EQ(snap.computed_at.ns, s.now().ns);
  EXPECT_EQ(snap.cpus, 2);
  EXPECT_GT(node.procfs().read_cost().ns, 0);
}

#if defined(__SANITIZE_ADDRESS__)
TEST(Program, FinishedSubprogramFrameIsPoisoned) {
  // A frame back in the simulation's pool is still allocated memory to
  // ASan; the pool poisons it, so a stale handle resumed into it (or a
  // dangling pointer to one of its locals) is reported.
  sim::Simulation s;
  Node node(s, test_config());
  const int* child_local = nullptr;
  bool poisoned = false;
  auto child = [&](SimThread&) -> Program {
    int x = 1;
    child_local = &x;  // x lives in the frame: it spans a suspension
    co_await Compute{usec(1)};
    EXPECT_EQ(x, 1);
  };
  node.spawn("t", [&](SimThread& self) -> Program {
    co_await child(self);  // the child's frame is released right here
    poisoned = __asan_address_is_poisoned(child_local);
  });
  s.run_for(msec(1));
  ASSERT_NE(child_local, nullptr);
  EXPECT_TRUE(poisoned);
}
#endif

TEST(ProcFs, NodeAboveSnapshotCpuCapacityIsRejected) {
  sim::Simulation s;
  NodeConfig cfg = test_config();
  cfg.cpus = LoadSnapshot::kMaxCpus;
  Node widest(s, cfg);
  EXPECT_EQ(widest.procfs().snapshot_dma().cpus, LoadSnapshot::kMaxCpus);
  cfg.cpus = LoadSnapshot::kMaxCpus + 1;
  EXPECT_THROW(Node(s, cfg), std::invalid_argument);
}

TEST(Scheduler, RunqueueWaitGrowsWithThreadCount) {
  // Foundation of Fig 3: the more runnable peers, the longer a woken
  // normal-priority, non-interactive task waits for the CPU.
  auto measure = [](int nthreads) {
    NodeConfig cfg = test_config();
    cfg.cpus = 1;
    sim::Simulation s;
    Node node(s, cfg);
    for (int i = 0; i < nthreads; ++i) {
      node.spawn("bg" + std::to_string(i), [&](SimThread&) -> Program {
        for (;;) co_await Compute{seconds(10)};
      });
    }
    double total_wait = 0;
    int samples = 0;
    // Softirq items measure queueing of ksoftirqd (non-interactive).
    for (int k = 1; k <= 5; ++k) {
      s.after(sim::msec(50 * k), [&, k] {
        const sim::TimePoint issued = s.now();
        node.irq().raise_softirq(
            0, os::SoftirqItem{usec(5), [&, issued] {
                 total_wait += (s.now() - issued).seconds();
                 ++samples;
               }});
      });
    }
    s.run_for(seconds(5));
    return samples ? total_wait / samples : 0.0;
  };
  const double wait_small = measure(1);
  const double wait_big = measure(8);
  EXPECT_GT(wait_big, wait_small * 2);
}

}  // namespace
}  // namespace rdmamon::os
