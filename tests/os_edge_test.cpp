// Edge cases of the OS and net substrates: interrupt/kill interactions,
// subprogram teardown, zero-cost actions, wait-queue ordering, multicast
// injection, and multiple outstanding RDMA operations.
#include <gtest/gtest.h>

#include "net/fabric.hpp"
#include "net/nic.hpp"
#include "net/socket.hpp"
#include "net/verbs.hpp"
#include "os/node.hpp"
#include "os/wait.hpp"
#include "sim/simulation.hpp"

namespace rdmamon {
namespace {

using os::Program;
using os::SimThread;
using sim::msec;
using sim::seconds;
using sim::usec;

TEST(OsEdge, KillWhileRunningMidIrq) {
  sim::Simulation simu;
  os::NodeConfig cfg;
  cfg.cpus = 1;
  os::Node node(simu, cfg);
  SimThread* t = node.spawn("victim", [](SimThread&) -> Program {
    for (;;) co_await os::Compute{seconds(1)};
  });
  bool killed_in_irq = false;
  simu.after(msec(5), [&] {
    node.irq().raise(0, os::IrqType::Other, [&] {
      node.sched().kill(t);  // kill from interrupt context
      killed_in_irq = true;
    });
  });
  simu.run_for(msec(100));
  EXPECT_TRUE(killed_in_irq);
  EXPECT_EQ(t->state, os::ThreadState::Finished);
  EXPECT_EQ(node.stats().nr_running(), 0);
  // The CPU recovered and can run new work.
  bool ran = false;
  node.spawn("next", [&](SimThread&) -> Program {
    ran = true;
    co_return;
  });
  simu.run_for(msec(10));
  EXPECT_TRUE(ran);
}

TEST(OsEdge, KillBlockedThreadRemovesItFromWaitQueue) {
  sim::Simulation simu;
  os::Node node(simu, {.name = "n"});
  os::WaitQueue wq;
  SimThread* t = node.spawn("blocked", [&](SimThread&) -> Program {
    co_await os::WaitOn{&wq};
  });
  simu.run_for(msec(1));
  EXPECT_EQ(wq.size(), 1u);
  node.sched().kill(t);
  EXPECT_TRUE(wq.empty());
  wq.notify_all();  // must not touch the dead thread
  simu.run_for(msec(1));
  EXPECT_EQ(t->state, os::ThreadState::Finished);
}

TEST(OsEdge, ZeroAndNegativeComputeMakeProgress) {
  sim::Simulation simu;
  os::Node node(simu, {.name = "n"});
  int steps = 0;
  node.spawn("t", [&](SimThread&) -> Program {
    co_await os::Compute{sim::Duration{0}};
    ++steps;
    co_await os::Compute{sim::Duration{-5}};
    ++steps;
    co_await os::ComputeKernel{sim::Duration{0}};
    ++steps;
  });
  simu.run_for(msec(10));
  EXPECT_EQ(steps, 3);
  EXPECT_EQ(node.stats().nr_threads(), 0);
}

TEST(OsEdge, DeepSubprogramNesting) {
  sim::Simulation simu;
  os::Node node(simu, {.name = "n"});
  int depth_reached = 0;
  // Recursive nesting 32 levels deep, each doing a little work.
  std::function<Program(SimThread&, int)> nest = [&](SimThread& self,
                                                     int d) -> Program {
    co_await os::Compute{usec(1)};
    if (d < 32) {
      ++depth_reached;
      co_await nest(self, d + 1);
    }
  };
  node.spawn("t", [&](SimThread& self) -> Program { co_await nest(self, 0); });
  simu.run_for(msec(10));
  EXPECT_EQ(depth_reached, 32);
}

TEST(OsEdge, KillMidSubprogramDestroysAllFrames) {
  sim::Simulation simu;
  os::Node node(simu, {.name = "n"});
  // Track destruction via a sentinel living in the nested frame.
  struct Sentinel {
    bool* flag;
    ~Sentinel() { *flag = true; }
  };
  bool destroyed = false;
  auto inner = [&](SimThread&) -> Program {
    Sentinel s{&destroyed};
    for (;;) co_await os::Compute{msec(1)};
  };
  // Keep the callable alive for the thread's lifetime via the factory.
  SimThread* t = node.spawn("t", [&, inner](SimThread& self) -> Program {
    co_await inner(self);
  });
  simu.run_for(msec(5));
  EXPECT_FALSE(destroyed);
  node.sched().kill(t);
  // Frames are destroyed with the thread object at scheduler teardown;
  // killing only stops execution. Force teardown by ending the scope...
  // (the Node outlives this test scope, so check at least no further
  // progress happens and the kill left consistent state)
  simu.run_for(msec(5));
  EXPECT_EQ(t->state, os::ThreadState::Finished);
}

TEST(OsEdge, WaitQueueWakesInFifoOrder) {
  sim::Simulation simu;
  os::NodeConfig cfg;
  cfg.cpus = 1;
  cfg.context_switch_cost = {};
  os::Node node(simu, cfg);
  os::WaitQueue wq;
  std::vector<int> order;
  for (int i = 0; i < 4; ++i) {
    node.spawn("w" + std::to_string(i), [&, i](SimThread&) -> Program {
      co_await os::SleepFor{msec(1 + i)};  // enqueue in known order
      co_await os::WaitOn{&wq};
      order.push_back(i);
    });
  }
  simu.run_for(msec(20));
  for (int k = 0; k < 4; ++k) {
    simu.after(msec(1), [&] { wq.notify_one(); });
    simu.run_for(msec(5));
  }
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(NetEdge, MulticastInjectDeliversWithoutSenderSyscall) {
  sim::Simulation simu;
  net::Fabric fabric(simu, {});
  os::Node a(simu, {.name = "a"}), b(simu, {.name = "b"});
  fabric.attach(a);
  fabric.attach(b);
  net::Connection& conn = fabric.connect(a, b);
  int got = 0;
  b.spawn("rx", [&](SimThread& self) -> Program {
    net::Message m;
    co_await conn.end_b().recv(self, m);
    got = m.payload.as<int>();
  });
  // Inject from event context: no sending thread at all.
  simu.after(msec(1), [&] { conn.end_a().inject_tx(128, 77); });
  simu.run_for(msec(10));
  EXPECT_EQ(got, 77);
}

TEST(NetEdge, MultipleOutstandingRdmaReadsAllComplete) {
  sim::Simulation simu;
  net::Fabric fabric(simu, {});
  os::Node a(simu, {.name = "a"}), b(simu, {.name = "b"});
  fabric.attach(a);
  fabric.attach(b);
  int value = 5;
  net::MrKey key = fabric.nic(1).register_mr(net::bytes_of(value));
  net::CompletionQueue cq;
  net::QueuePair qp(fabric.nic(0), 1, cq);
  // Post 8 reads back-to-back without waiting (pipelined).
  for (std::uint64_t i = 0; i < 8; ++i) {
    qp.post({.rkey = key, .len = 64, .wr_id = i});
  }
  simu.run_for(msec(1));
  EXPECT_EQ(cq.size(), 8u);
  std::vector<bool> seen(8, false);
  while (!cq.empty()) {
    const net::Completion c = cq.pop();
    EXPECT_EQ(c.status, net::WcStatus::Success);
    seen[c.wr_id] = true;
  }
  for (bool s : seen) EXPECT_TRUE(s);
}

TEST(NetEdge, DmaEngineSerializesConcurrentReads) {
  sim::Simulation simu;
  net::FabricConfig fcfg;
  fcfg.rdma_dma_base = usec(10);  // big, to make serialization visible
  net::Fabric fabric(simu, fcfg);
  os::Node a(simu, {.name = "a"}), b(simu, {.name = "b"});
  fabric.attach(a);
  fabric.attach(b);
  int word = 0;
  net::MrKey key = fabric.nic(1).register_mr(net::bytes_of(word));
  net::CompletionQueue cq;
  net::QueuePair qp(fabric.nic(0), 1, cq);
  std::vector<std::int64_t> completion_times;
  for (std::uint64_t i = 0; i < 4; ++i) {
    qp.post({.rkey = key, .len = 64, .wr_id = i});
  }
  while (completion_times.size() < 4) {
    simu.run_for(usec(1));
    while (!cq.empty()) {
      cq.pop();
      completion_times.push_back(simu.now().ns);
    }
  }
  // Completions are spaced by at least the DMA service time.
  for (std::size_t i = 1; i < completion_times.size(); ++i) {
    EXPECT_GE(completion_times[i] - completion_times[i - 1],
              usec(10).ns - 1000);
  }
}

TEST(NetEdge, SocketBacklogCountsUnreadMessages) {
  sim::Simulation simu;
  net::Fabric fabric(simu, {});
  os::Node a(simu, {.name = "a"}), b(simu, {.name = "b"});
  fabric.attach(a);
  fabric.attach(b);
  net::Connection& conn = fabric.connect(a, b);
  a.spawn("tx", [&](SimThread& self) -> Program {
    for (int i = 0; i < 5; ++i) co_await conn.end_a().send(self, 64, i);
  });
  simu.run_for(msec(10));  // nobody reads on b
  EXPECT_EQ(conn.end_b().rx_backlog(), 5u);
  EXPECT_TRUE(conn.end_b().has_data());
  EXPECT_FALSE(conn.end_a().has_data());
}

TEST(SimEdge, EventsAtIdenticalTimestampRunInScheduleOrderAcrossSources) {
  sim::Simulation simu;
  std::vector<int> order;
  simu.after(msec(1), [&] { order.push_back(1); });
  simu.at(sim::TimePoint{} + msec(1), [&] { order.push_back(2); });
  simu.after(msec(1), [&] { order.push_back(3); });
  simu.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

}  // namespace
}  // namespace rdmamon
