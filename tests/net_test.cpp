#include <gtest/gtest.h>

#include <array>
#include <iterator>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "alloc_counter.hpp"
#include "monitor/inbox.hpp"
#include "os/procfs.hpp"
#include "net/fabric.hpp"
#include "net/nic.hpp"
#include "net/socket.hpp"
#include "net/verbs.hpp"
#include "os/node.hpp"
#include "sim/simulation.hpp"
#include "telemetry/registry.hpp"
#include "web/request.hpp"

namespace rdmamon::net {
namespace {

using os::Compute;
using os::NodeConfig;
using os::Program;
using os::SimThread;
using os::SleepFor;
using sim::msec;
using sim::seconds;
using sim::usec;

struct TwoNodes {
  sim::Simulation simu;
  FabricConfig fcfg;
  Fabric fabric;
  os::Node a, b;

  explicit TwoNodes(NodeConfig ncfg = {}, FabricConfig fc = {})
      : fcfg(fc), fabric(simu, fc), a(simu, ncfg), b(simu, ncfg) {
    fabric.attach(a);
    fabric.attach(b);
  }
};

TEST(Fabric, AssignsNodeIds) {
  TwoNodes env;
  EXPECT_EQ(env.a.id, 0);
  EXPECT_EQ(env.b.id, 1);
  EXPECT_EQ(env.fabric.num_nodes(), 2);
}

TEST(Fabric, ConnectRequiresAttachedNodes) {
  sim::Simulation simu;
  Fabric fabric(simu, {});
  os::Node n1(simu, {}), n2(simu, {});
  EXPECT_THROW(fabric.connect(n1, n2), std::logic_error);
}

TEST(Fabric, ConnectionBumpsConnectionCounters) {
  TwoNodes env;
  EXPECT_EQ(env.a.stats().connections(), 0);
  env.fabric.connect(env.a, env.b);
  EXPECT_EQ(env.a.stats().connections(), 1);
  EXPECT_EQ(env.b.stats().connections(), 1);
}

/// A payload of more than one field.
struct Greeting {
  std::uint64_t seq = 0;
  std::array<char, 8> text{};
};

TEST(Socket, RoundTripDeliversPayload) {
  TwoNodes env;
  Connection& conn = env.fabric.connect(env.a, env.b);
  Greeting got;
  std::int64_t rtt = -1;
  // Echo server on b.
  env.b.spawn("server", [&](SimThread& self) -> Program {
    Message req;
    co_await conn.end_b().recv(self, req);
    co_await conn.end_b().send(self, 64, req.payload.as<Greeting>());
  });
  env.a.spawn("client", [&](SimThread& self) -> Program {
    const sim::TimePoint t0 = env.simu.now();
    co_await conn.end_a().send(self, 64,
                               Greeting{42, {'h', 'e', 'l', 'l', 'o'}});
    Message rep;
    co_await conn.end_a().recv(self, rep);
    got = rep.payload.as<Greeting>();
    rtt = (env.simu.now() - t0).ns;
  });
  env.simu.run_for(seconds(1));
  EXPECT_EQ(got.seq, 42u);
  EXPECT_EQ(std::string_view(got.text.data()), "hello");
  ASSERT_GT(rtt, 0);
  // Unloaded RTT should be tens of microseconds (IPoIB-era).
  EXPECT_GT(rtt, usec(20).ns);
  EXPECT_LT(rtt, usec(200).ns);
}

TEST(Socket, ManyMessagesArriveInOrder) {
  TwoNodes env;
  Connection& conn = env.fabric.connect(env.a, env.b);
  std::vector<int> received;
  env.b.spawn("rx", [&](SimThread& self) -> Program {
    for (int i = 0; i < 20; ++i) {
      Message m;
      co_await conn.end_b().recv(self, m);
      received.push_back(m.payload.as<int>());
    }
  });
  env.a.spawn("tx", [&](SimThread& self) -> Program {
    for (int i = 0; i < 20; ++i) {
      co_await conn.end_a().send(self, 256, i);
    }
  });
  env.simu.run_for(seconds(1));
  ASSERT_EQ(received.size(), 20u);
  for (int i = 0; i < 20; ++i) EXPECT_EQ(received[static_cast<size_t>(i)], i);
}

TEST(Socket, ReceivePathCountsBytesAndPackets) {
  TwoNodes env;
  Connection& conn = env.fabric.connect(env.a, env.b);
  env.a.spawn("tx", [&](SimThread& self) -> Program {
    co_await conn.end_a().send(self, 1000, 1);
  });
  env.b.spawn("rx", [&](SimThread& self) -> Program {
    Message m;
    co_await conn.end_b().recv(self, m);
  });
  env.simu.run_for(msec(10));
  EXPECT_EQ(env.fabric.nic(0).tx_packets(), 1u);
  EXPECT_EQ(env.fabric.nic(1).rx_packets(), 1u);
  EXPECT_GT(env.b.stats().net_rate(env.simu.now()), 0.0);
}

TEST(Rdma, ReadReturnsValueAtDmaInstant) {
  TwoNodes env;
  int counter = 7;
  MrKey key = env.fabric.nic(1).register_mr(bytes_of(counter));
  CompletionQueue cq;
  QueuePair qp(env.fabric.nic(0), 1, cq);
  Completion out;
  std::int64_t latency = -1;
  env.a.spawn("reader", [&](SimThread& self) -> Program {
    const sim::TimePoint t0 = env.simu.now();
    co_await rdma_sync(self, qp, {.rkey = key, .len = 128}, out);
    latency = (env.simu.now() - t0).ns;
  });
  env.simu.run_for(msec(10));
  EXPECT_EQ(out.status, WcStatus::Success);
  EXPECT_EQ(out.data.as<int>(), 7);
  // One-sided READ is single-digit microseconds, far below socket RTT.
  EXPECT_GT(latency, usec(2).ns);
  EXPECT_LT(latency, usec(30).ns);
}

TEST(Rdma, ReadSamplesCurrentNotStaleValue) {
  TwoNodes env;
  int counter = 0;
  MrKey key = env.fabric.nic(1).register_mr(bytes_of(counter));
  CompletionQueue cq;
  QueuePair qp(env.fabric.nic(0), 1, cq);
  // The target value changes at 5ms; a read issued at 10ms must see it.
  env.simu.after(msec(5), [&] { counter = 42; });
  Completion out;
  env.a.spawn("reader", [&](SimThread& self) -> Program {
    co_await SleepFor{msec(10)};
    co_await rdma_sync(self, qp, {.rkey = key, .len = 64}, out);
  });
  env.simu.run_for(msec(20));
  EXPECT_EQ(out.data.as<int>(), 42);
}

TEST(Rdma, WriteToReadOnlyRegionFailsWithProtectionError) {
  TwoNodes env;
  int kernel_value = 1;
  MrKey key = env.fabric.nic(1).register_mr(bytes_of(kernel_value), nullptr,
                                            /*remote_writable=*/false);
  CompletionQueue cq;
  QueuePair qp(env.fabric.nic(0), 1, cq);
  Completion out;
  env.a.spawn("writer", [&](SimThread& self) -> Program {
    const int payload = 99;
    co_await rdma_sync(self, qp,
                       {.verb = Verb::Write,
                        .rkey = key,
                        .len = 64,
                        .payload = bytes_of(payload)},
                       out);
  });
  env.simu.run_for(msec(10));
  EXPECT_EQ(out.status, WcStatus::ProtectionError);
  EXPECT_EQ(kernel_value, 1);  // unchanged: region is read-only
}

TEST(Rdma, WriteToWritableRegionApplies) {
  TwoNodes env;
  int value = 1;
  MrKey key = env.fabric.nic(1).register_mr(bytes_of(value), nullptr,
                                            /*remote_writable=*/true);
  CompletionQueue cq;
  QueuePair qp(env.fabric.nic(0), 1, cq);
  Completion out;
  env.a.spawn("writer", [&](SimThread& self) -> Program {
    const int payload = 99;
    co_await rdma_sync(self, qp,
                       {.verb = Verb::Write,
                        .rkey = key,
                        .len = 64,
                        .payload = bytes_of(payload)},
                       out);
  });
  env.simu.run_for(msec(10));
  EXPECT_EQ(out.status, WcStatus::Success);
  EXPECT_EQ(value, 99);
}

TEST(Rdma, WriteOverrunningTheRegionFailsAndLeavesItUntouched) {
  // A WRITE lands at wr.offset, bounds-checked against the region's
  // image: bytes that would run past its end fail the whole WRITE with
  // ProtectionError and the region keeps every byte it had.
  TwoNodes env;
  std::array<int, 4> words{1, 2, 3, 4};
  const MrKey key = env.fabric.nic(1).register_mr(bytes_of(words), nullptr,
                                                  /*remote_writable=*/true);
  CompletionQueue cq;
  QueuePair qp(env.fabric.nic(0), 1, cq);
  const std::array<int, 2> payload{9, 9};
  std::vector<WcStatus> got;
  env.a.spawn("writer", [&](SimThread& self) -> Program {
    // 4 bytes past the end, an offset past the end, then a WRITE that
    // ends exactly at the end.
    for (const std::size_t offset :
         {std::size_t{12}, std::size_t{1} << 40, std::size_t{8}}) {
      Completion out;
      co_await rdma_sync(self, qp,
                         {.verb = Verb::Write,
                          .rkey = key,
                          .len = 64,
                          .offset = offset,
                          .payload = bytes_of(payload)},
                         out);
      got.push_back(out.status);
      if (got.size() == 2) {
        EXPECT_EQ(words, (std::array<int, 4>{1, 2, 3, 4}));
      }
    }
  });
  env.simu.run_for(msec(10));
  EXPECT_EQ(got, (std::vector<WcStatus>{WcStatus::ProtectionError,
                                        WcStatus::ProtectionError,
                                        WcStatus::Success}));
  EXPECT_EQ(words, (std::array<int, 4>{1, 2, 9, 9}));
}

TEST(Rdma, ForgottenReadsGiveTheirBlocksBack) {
  // A READ abandoned by forget() before it completes still copies the
  // image into a block at the DMA instant; the CQ drops the late
  // completion, and dropping it frees the block. Once the loop drains,
  // every allocation it made has been given back.
  TwoNodes env;
  os::LoadSnapshot snap;
  const MrKey key = env.fabric.nic(1).register_mr(bytes_of(snap));
  CompletionQueue cq;
  QueuePair qp(env.fabric.nic(0), 1, cq);
  constexpr int kReads = 64;
  std::uint64_t live_before = 0, allocs_before = 0;
  for (int round = 0; round < 2; ++round) {  // warm-up, then measured
    if (round == 1) {
      live_before = live_allocation_count();
      allocs_before = allocation_count();
    }
    for (int i = 0; i < kReads; ++i) {
      const std::uint64_t wr = cq.alloc_wr_id();
      qp.post({.rkey = key, .len = 80, .wr_id = wr});
      cq.forget(wr);
      env.simu.run_for(usec(50));
    }
  }
  EXPECT_GE(allocation_count() - allocs_before,
            static_cast<std::uint64_t>(kReads));  // a block per READ
  EXPECT_EQ(live_allocation_count(), live_before);
  EXPECT_EQ(cq.stale_dropped(), static_cast<std::uint64_t>(2 * kReads));
  EXPECT_TRUE(cq.empty());
  EXPECT_EQ(env.fabric.nic(0).rdma_ops_in_flight(), 0u);
}

TEST(Rdma, WriteCompletesInvalidKeyWhenTargetMrDereggedMidFlight) {
  // The push plane's shutdown race: a WRITE is posted, then the target
  // inbox MR is torn down before the DMA instant. The rkey must be
  // resolved when the DMA lands, not when the WR was posted — the writer
  // gets InvalidKey and the (dead) region is never mutated.
  TwoNodes env;
  int value = 1;
  MrKey key = env.fabric.nic(1).register_mr(bytes_of(value), nullptr,
                                            /*remote_writable=*/true);
  CompletionQueue cq;
  QueuePair qp(env.fabric.nic(0), 1, cq);
  const std::uint64_t wr = cq.alloc_wr_id();
  const int payload = 99;
  qp.post({.verb = Verb::Write,
           .rkey = key,
           .len = 64,
           .wr_id = wr,
           .payload = bytes_of(payload)});
  ASSERT_TRUE(env.fabric.nic(1).deregister_mr(key));  // before the DMA lands
  env.simu.run_for(msec(10));
  Completion out;
  ASSERT_TRUE(cq.try_pop(wr, out));
  EXPECT_EQ(out.status, WcStatus::InvalidKey);
  EXPECT_EQ(value, 1);  // the dead region was never written
}

TEST(Rdma, ForgottenWriteCompletionIsDroppedAsStale) {
  // A consumer that gives up on a WRITE WR (publisher retarget, shutdown)
  // calls forget(); the late completion must be swallowed by the CQ, not
  // delivered to whoever reuses the id space. Previously only READ WRs
  // exercised this path.
  TwoNodes env;
  int value = 1;
  MrKey key = env.fabric.nic(1).register_mr(bytes_of(value), nullptr,
                                            /*remote_writable=*/true);
  CompletionQueue cq;
  QueuePair qp(env.fabric.nic(0), 1, cq);
  const std::uint64_t wr = cq.alloc_wr_id();
  const int payload = 42;
  qp.post({.verb = Verb::Write,
           .rkey = key,
           .len = 64,
           .wr_id = wr,
           .payload = bytes_of(payload)});
  cq.forget(wr);  // abandon before the completion arrives
  env.simu.run_for(msec(10));
  Completion out;
  EXPECT_FALSE(cq.try_pop(wr, out));  // never delivered
  EXPECT_EQ(cq.forgets(), 1u);
  EXPECT_EQ(cq.stale_dropped(), 1u);
  EXPECT_EQ(value, 42);  // the WRITE itself still landed — only the
                         // completion was abandoned, not the data
}

TEST(Rdma, ForgetAfterDeliveryIsNotStale) {
  // forget() on a WR whose completion was already popped must not count
  // future completions of OTHER WRs as stale (id-keyed, not positional).
  TwoNodes env;
  int value = 0;
  MrKey key = env.fabric.nic(1).register_mr(bytes_of(value), nullptr,
                                            /*remote_writable=*/true);
  CompletionQueue cq;
  QueuePair qp(env.fabric.nic(0), 1, cq);
  const std::uint64_t w1 = cq.alloc_wr_id();
  const int payload1 = 1;
  qp.post({.verb = Verb::Write,
           .rkey = key,
           .len = 64,
           .wr_id = w1,
           .payload = bytes_of(payload1)});
  env.simu.run_for(msec(5));
  Completion out;
  ASSERT_TRUE(cq.try_pop(w1, out));
  EXPECT_EQ(out.status, WcStatus::Success);
  cq.forget(w1);  // late forget of an already-delivered WR: harmless
  const std::uint64_t w2 = cq.alloc_wr_id();
  const int payload2 = 2;
  qp.post({.verb = Verb::Write,
           .rkey = key,
           .len = 64,
           .wr_id = w2,
           .payload = bytes_of(payload2)});
  env.simu.run_for(msec(5));
  ASSERT_TRUE(cq.try_pop(w2, out));  // w2 must still be delivered
  EXPECT_EQ(out.status, WcStatus::Success);
  EXPECT_EQ(value, 2);
}

TEST(QueuePair, StartsUnboundAndPostsOnceBound) {
  // A QP made without a CQ holds its context from construction, so
  // context ids follow construction order, but posts nothing until a CQ
  // is bound.
  TwoNodes env;
  int word = 5;
  const MrKey key = env.fabric.nic(1).register_mr(bytes_of(word));
  QueuePair unbound(env.fabric.nic(0), 1);
  CompletionQueue cq;
  QueuePair bound(env.fabric.nic(0), 1, cq);
  EXPECT_LT(unbound.context().ctx_id(), bound.context().ctx_id());
  unbound.bind_cq(cq);
  unbound.post({.rkey = key, .len = 64, .wr_id = 3});
  env.simu.run_for(msec(1));
  Completion c;
  ASSERT_TRUE(cq.try_pop(3, c));
  EXPECT_EQ(c.data.as<int>(), 5);
}

TEST(Rdma, InvalidKeyCompletesWithError) {
  TwoNodes env;
  CompletionQueue cq;
  QueuePair qp(env.fabric.nic(0), 1, cq);
  Completion out;
  env.a.spawn("reader", [&](SimThread& self) -> Program {
    co_await rdma_sync(self, qp, {.rkey = MrKey{9999}, .len = 64}, out);
  });
  env.simu.run_for(msec(10));
  EXPECT_EQ(out.status, WcStatus::InvalidKey);
}

TEST(Rdma, WriteLandsTheSourceBytesHeldAtTheDmaInstant) {
  // A WRITE's payload is the poster's buffer, read by the target NIC at
  // the DMA instant (an ibverbs WRITE without IBV_SEND_INLINE): bytes
  // changed between the post and the DMA land, bytes changed after it
  // do not.
  TwoNodes env;
  int value = 1;
  const MrKey key = env.fabric.nic(1).register_mr(bytes_of(value), nullptr,
                                                  /*remote_writable=*/true);
  CompletionQueue cq;
  QueuePair qp(env.fabric.nic(0), 1, cq);
  int source = 10;
  const std::uint64_t wr = cq.alloc_wr_id();
  qp.post({.verb = Verb::Write,
           .rkey = key,
           .len = 64,
           .wr_id = wr,
           .payload = bytes_of(source)});
  source = 20;  // the request is still on the wire
  env.simu.run_for(msec(1));
  Completion out;
  ASSERT_TRUE(cq.try_pop(wr, out));
  EXPECT_EQ(out.status, WcStatus::Success);
  EXPECT_EQ(value, 20);
  source = 30;  // after the completion: the region keeps what landed
  env.simu.run_for(msec(1));
  EXPECT_EQ(value, 20);
}

TEST(Rdma, EveryCompletionPathRecordsOneCompEventAtItsInstant) {
  // Nic::finish is the one completion point of both opcodes, and an op
  // leaves exactly one record in the initiator's ring, written there:
  // kind = verb and status, a = the target node, b = the wr_id, x = the
  // post-to-completion time, stamped at the completion instant. A post
  // records nothing.
  if constexpr (!telemetry::kEnabled) {
    GTEST_SKIP() << "flight recorder compiled out";
  }
  sim::Simulation simu;
  telemetry::Registry reg;
  reg.install(simu);
  Fabric fabric(simu, {});
  os::Node a(simu, {.name = "a"}), b(simu, {.name = "b"}),
      dead(simu, {.name = "dead"});
  fabric.attach(a);
  fabric.attach(b);
  fabric.attach(dead);
  int ro_word = 1, rw_word = 1;
  const MrKey ro = fabric.nic(b.id).register_mr(bytes_of(ro_word));
  const MrKey rw = fabric.nic(b.id).register_mr(bytes_of(rw_word), nullptr,
                                                /*remote_writable=*/true);
  fabric.inject_crash(dead.id);
  struct Case {
    Verb verb;
    int target;
    MrKey rkey;
    WcStatus want;
  };
  const Case cases[] = {
      {Verb::Read, b.id, ro, WcStatus::Success},
      {Verb::Read, b.id, MrKey{999}, WcStatus::InvalidKey},
      {Verb::Read, dead.id, ro, WcStatus::RetryExceeded},
      {Verb::Write, b.id, rw, WcStatus::Success},
      {Verb::Write, b.id, MrKey{999}, WcStatus::InvalidKey},
      {Verb::Write, b.id, ro, WcStatus::ProtectionError},
      {Verb::Write, dead.id, rw, WcStatus::RetryExceeded},
  };
  std::vector<Completion> got;
  const int payload = 7;  // every WRITE's source, alive until it completes
  for (std::size_t i = 0; i < std::size(cases); ++i) {
    const Case& k = cases[i];
    fabric.nic(a.id).post(
        k.target,
        {.verb = k.verb,
         .rkey = k.rkey,
         .len = 64,
         .wr_id = i,
         .payload = bytes_of(payload)},
        [&got](Completion c) { got.push_back(std::move(c)); });
  }
  const telemetry::FlightRing* ring = reg.recorder().ring("net.a");
  EXPECT_EQ(ring->recorded(), 0u);  // posting records nothing
  simu.run_for(msec(10));
  ASSERT_EQ(got.size(), std::size(cases));
  EXPECT_EQ(ring->recorded(), std::size(cases));
  const std::vector<telemetry::FlightEvent> events = ring->events();
  constexpr std::string_view kStatus[] = {"ok", "protection_error",
                                          "invalid_key", "retry_exceeded"};
  for (const Completion& c : got) {
    const Case& k = cases[c.wr_id];
    EXPECT_EQ(c.verb, k.verb) << "wr " << c.wr_id;
    EXPECT_EQ(c.status, k.want) << "wr " << c.wr_id;
    const std::string kind =
        std::string(k.verb == Verb::Read ? "read." : "write.") +
        std::string(kStatus[static_cast<std::size_t>(k.want)]);
    int records = 0;
    for (const telemetry::FlightEvent& e : events) {
      if (e.b != static_cast<std::int64_t>(c.wr_id)) continue;
      ++records;
      EXPECT_EQ(e.kind, kind) << "wr " << c.wr_id;
      EXPECT_EQ(e.a, k.target) << "wr " << c.wr_id;
      EXPECT_EQ(e.at, c.completed) << "wr " << c.wr_id;
      EXPECT_EQ(e.x, static_cast<double>((c.completed - c.posted).ns))
          << "wr " << c.wr_id;
    }
    EXPECT_EQ(records, 1) << "wr " << c.wr_id;
  }
}

TEST(Rdma, LatencyUnaffectedByTargetCpuLoad) {
  // The paper's headline micro-benchmark property (Fig 3, RDMA half).
  auto measure = [](int hogs) {
    TwoNodes env;
    for (int i = 0; i < hogs; ++i) {
      env.b.spawn("hog" + std::to_string(i), [](SimThread&) -> Program {
        for (;;) co_await Compute{seconds(10)};
      });
    }
    int word = 1;
    MrKey key = env.fabric.nic(1).register_mr(bytes_of(word));
    CompletionQueue cq;
    QueuePair qp(env.fabric.nic(0), 1, cq);
    double total = 0;
    int n = 0;
    env.a.spawn("reader", [&](SimThread& self) -> Program {
      for (int i = 0; i < 50; ++i) {
        co_await SleepFor{msec(10)};
        Completion out;
        const sim::TimePoint t0 = env.simu.now();
        co_await rdma_sync(self, qp, {.rkey = key, .len = 128}, out);
        total += (env.simu.now() - t0).seconds();
        ++n;
      }
    });
    env.simu.run_for(seconds(2));
    return total / n;
  };
  const double unloaded = measure(0);
  const double loaded = measure(16);
  EXPECT_NEAR(loaded, unloaded, unloaded * 0.05);
}

TEST(Socket, LatencyDegradesWithTargetCpuLoad) {
  // The other half of Fig 3: socket ping-pong RTT inflates when the
  // server node is saturated with runnable threads.
  auto measure = [](int hogs) {
    TwoNodes env;
    Connection& conn = env.fabric.connect(env.a, env.b);
    for (int i = 0; i < hogs; ++i) {
      env.b.spawn("hog" + std::to_string(i), [](SimThread&) -> Program {
        for (;;) co_await Compute{seconds(10)};
      });
    }
    env.b.spawn("echo", [&](SimThread& self) -> Program {
      for (;;) {
        Message m;
        co_await conn.end_b().recv(self, m);
        co_await conn.end_b().send(self, 64, 0);
      }
    });
    double total = 0;
    int n = 0;
    env.a.spawn("client", [&](SimThread& self) -> Program {
      for (int i = 0; i < 20; ++i) {
        co_await SleepFor{msec(20)};
        const sim::TimePoint t0 = env.simu.now();
        co_await conn.end_a().send(self, 64, 0);
        Message rep;
        co_await conn.end_a().recv(self, rep);
        total += (env.simu.now() - t0).seconds();
        ++n;
      }
    });
    env.simu.run_for(seconds(2));
    return total / n;
  };
  const double unloaded = measure(0);
  const double loaded = measure(8);
  EXPECT_GT(loaded, unloaded * 3);
}

// --- verbs fast path: selective signaling, windows, moderation ---------------

TEST(SelectiveSignaling, UnsignaledSuccessesRetireViaTheCloser) {
  // signal-every-4 over 8 READs: every completion is still delivered to
  // the consumer (the shadow buffer surfaces unsignaled successes when a
  // closer proves them retired), but only 2 CQEs were generated.
  TwoNodes env;
  int word = 5;
  MrKey key = env.fabric.nic(1).register_mr(bytes_of(word));
  CompletionQueue cq;
  auto ctx = std::make_shared<QpContext>(env.fabric.nic(0),
                                         /*signal_every=*/4);
  QueuePair qp(env.fabric.nic(0), 1, cq, ctx);
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 8; ++i) ids.push_back(cq.alloc_wr_id());
  for (const std::uint64_t id : ids) {
    qp.post({.rkey = key, .len = 64, .wr_id = id}, /*force_signal=*/false);
  }
  env.simu.run_for(msec(10));
  ASSERT_EQ(cq.size(), 8u);
  Completion c;
  for (const std::uint64_t id : ids) {
    ASSERT_TRUE(cq.try_pop(id, c));
    EXPECT_EQ(c.status, WcStatus::Success);
    EXPECT_EQ(c.data.as<int>(), 5);
  }
  EXPECT_EQ(cq.cqes_signaled(), 2u);       // seq 4 and seq 8
  EXPECT_EQ(cq.unsignaled_retired(), 6u);  // proven by the two closers
  EXPECT_EQ(ctx->unsignaled_posted(), 6u);
  EXPECT_EQ(env.fabric.nic(0).unsignaled_posted(), 6u);
  EXPECT_EQ(cq.shadowed(), 0u);
}

TEST(SelectiveSignaling, UnsignaledErrorSurfacesImmediately) {
  // An unsignaled WR that FAILS must not wait for a closer: error
  // completions are always generated (real RC flushes the queue).
  TwoNodes env;
  CompletionQueue cq;
  auto ctx = std::make_shared<QpContext>(env.fabric.nic(0),
                                         /*signal_every=*/8);
  QueuePair qp(env.fabric.nic(0), 1, cq, ctx);
  const std::uint64_t wr = cq.alloc_wr_id();
  qp.post({.rkey = MrKey{4242}, .len = 64, .wr_id = wr},  // bad rkey
          /*force_signal=*/false);
  env.simu.run_for(msec(10));
  Completion c;
  ASSERT_TRUE(cq.try_pop(wr, c));  // no closer was ever posted
  EXPECT_EQ(c.status, WcStatus::InvalidKey);
  EXPECT_EQ(cq.shadowed(), 0u);
}

TEST(SelectiveSignaling, ForgetReclaimsAShadowedUnsignaledWr) {
  // The leak regression: a WR posted unsignaled SUCCEEDS (held in the
  // shadow buffer awaiting a closer) and is then abandoned. forget()
  // must reclaim the shadow slot right away — not at the next closer,
  // and the id must never ghost-surface afterwards.
  TwoNodes env;
  int word = 1;
  MrKey key = env.fabric.nic(1).register_mr(bytes_of(word));
  CompletionQueue cq;
  auto ctx = std::make_shared<QpContext>(env.fabric.nic(0),
                                         /*signal_every=*/16);
  QueuePair qp(env.fabric.nic(0), 1, cq, ctx);
  const std::uint64_t wr = cq.alloc_wr_id();
  qp.post({.rkey = key, .len = 64, .wr_id = wr}, /*force_signal=*/false);
  env.simu.run_for(msec(5));  // success landed: shadowed, no CQE
  EXPECT_EQ(cq.shadowed(), 1u);
  EXPECT_TRUE(cq.empty());
  cq.forget(wr);
  EXPECT_EQ(cq.shadowed(), 0u);  // reclaimed now
  EXPECT_EQ(cq.stale_dropped(), 1u);
  const std::uint64_t closer = cq.alloc_wr_id();
  qp.post({.rkey = key, .len = 64, .wr_id = closer}, /*force_signal=*/true);
  env.simu.run_for(msec(5));
  Completion c;
  EXPECT_FALSE(cq.try_pop(wr, c));  // the forgotten WR never surfaces
  ASSERT_TRUE(cq.try_pop(closer, c));
  EXPECT_EQ(c.status, WcStatus::Success);
  EXPECT_EQ(cq.shadowed(), 0u);
}

TEST(InflightWindow, PostsBeyondTheWindowDeferAndDrain) {
  TwoNodes env;
  int word = 2;
  MrKey key = env.fabric.nic(1).register_mr(bytes_of(word));
  CompletionQueue cq;
  auto ctx = std::make_shared<QpContext>(env.fabric.nic(0),
                                         /*signal_every=*/1,
                                         /*send_depth=*/2);
  QueuePair qp(env.fabric.nic(0), 1, cq, ctx);
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 6; ++i) ids.push_back(cq.alloc_wr_id());
  for (const std::uint64_t id : ids) {
    qp.post({.rkey = key, .len = 64, .wr_id = id});
  }
  EXPECT_EQ(ctx->inflight(), 2u);  // window full, the rest queued
  EXPECT_EQ(ctx->deferred_pending(), 4u);
  env.simu.run_for(msec(10));
  EXPECT_EQ(ctx->inflight(), 0u);
  EXPECT_EQ(ctx->deferred_pending(), 0u);
  EXPECT_EQ(ctx->deferred_total(), 4u);
  Completion c;
  for (const std::uint64_t id : ids) {
    ASSERT_TRUE(cq.try_pop(id, c));
    EXPECT_EQ(c.status, WcStatus::Success);
  }
}

TEST(CqModeration, BatchesNotificationsPerCount) {
  // cq_mod 4 over 8 completions: the consumer is woken twice, each wakeup
  // draining a 4-completion batch.
  TwoNodes env;
  int word = 3;
  MrKey key = env.fabric.nic(1).register_mr(bytes_of(word));
  CompletionQueue cq;
  cq.bind_moderation(env.simu, /*count=*/4, /*period=*/msec(1));
  QueuePair qp(env.fabric.nic(0), 1, cq);
  int wakeups = 0;
  env.a.spawn("reaper", [&](SimThread&) -> Program {
    std::size_t drained = 0;
    while (drained < 8) {
      co_await os::WaitOn{&cq.wait_queue()};
      ++wakeups;
      while (!cq.empty()) {
        cq.pop();
        ++drained;
      }
    }
  });
  for (int i = 0; i < 8; ++i) {
    qp.post({.rkey = key, .len = 64, .wr_id = cq.alloc_wr_id()});
  }
  env.simu.run_for(msec(20));
  EXPECT_EQ(wakeups, 2);
  EXPECT_EQ(cq.notifies(), 2u);
  EXPECT_EQ(cq.coalesced_polls(), 2u);
}

TEST(CqModeration, PeriodTimerFlushesAPartialBatch) {
  // Fewer completions than the batch count: the period timer must flush
  // them, or the consumer would wait for completions that never come.
  TwoNodes env;
  int word = 4;
  MrKey key = env.fabric.nic(1).register_mr(bytes_of(word));
  CompletionQueue cq;
  cq.bind_moderation(env.simu, /*count=*/8, sim::usec(16));
  QueuePair qp(env.fabric.nic(0), 1, cq);
  bool woke = false;
  env.a.spawn("reaper", [&](SimThread&) -> Program {
    co_await os::WaitOn{&cq.wait_queue()};
    woke = true;
  });
  for (int i = 0; i < 3; ++i) {
    qp.post({.rkey = key, .len = 64, .wr_id = cq.alloc_wr_id()});
  }
  env.simu.run_for(msec(10));
  EXPECT_TRUE(woke);
  EXPECT_EQ(cq.size(), 3u);
  EXPECT_EQ(cq.notifies(), 1u);
}

TEST(VerbsTuning, ContextPoolSizeAndPolicyFollowTuning) {
  TwoNodes env;
  VerbsTuning t;
  EXPECT_TRUE(make_context_pool(env.fabric.nic(0), t).empty());
  t.shared_contexts = 3;
  t.signal_every = 4;
  t.send_depth = 8;
  const auto pool = make_context_pool(env.fabric.nic(0), t);
  ASSERT_EQ(pool.size(), 3u);
  for (const auto& c : pool) {
    EXPECT_EQ(c->signal_every(), 4);
    EXPECT_EQ(c->send_depth(), 8u);
  }
  EXPECT_NE(pool[0]->ctx_id(), pool[1]->ctx_id());
  EXPECT_NE(pool[1]->ctx_id(), pool[2]->ctx_id());
}

// --- bounded NIC context cache ------------------------------------------------

TEST(NicCtxCache, UnboundedByDefaultCountsNothing) {
  TwoNodes env;  // FabricConfig default: nic_ctx_cache_entries = 0
  int word = 1;
  MrKey key = env.fabric.nic(1).register_mr(bytes_of(word));
  CompletionQueue cq;
  QueuePair qp(env.fabric.nic(0), 1, cq);
  for (int i = 0; i < 4; ++i) {
    qp.post({.rkey = key, .len = 64, .wr_id = cq.alloc_wr_id()});
  }
  env.simu.run_for(msec(10));
  for (const int n : {0, 1}) {
    EXPECT_EQ(env.fabric.nic(n).qpc_hits(), 0u);
    EXPECT_EQ(env.fabric.nic(n).qpc_misses(), 0u);
    EXPECT_EQ(env.fabric.nic(n).qpc_evictions(), 0u);
  }
}

TEST(NicCtxCache, AlternatingDedicatedContextsThrashABoundedCache) {
  // Two dedicated contexts ping-pong over a 1-entry cache: every post
  // misses and evicts the other. The target side holds one MR entry that
  // misses once and then hits.
  FabricConfig fc;
  fc.nic_ctx_cache_entries = 1;
  TwoNodes env({}, fc);
  int word = 1;
  MrKey key = env.fabric.nic(1).register_mr(bytes_of(word));
  CompletionQueue cq;
  QueuePair qp1(env.fabric.nic(0), 1, cq);
  QueuePair qp2(env.fabric.nic(0), 1, cq);
  for (int i = 0; i < 4; ++i) {
    qp1.post({.rkey = key, .len = 64, .wr_id = cq.alloc_wr_id()});
    qp2.post({.rkey = key, .len = 64, .wr_id = cq.alloc_wr_id()});
  }
  env.simu.run_for(msec(10));
  EXPECT_EQ(env.fabric.nic(0).qpc_misses(), 8u);
  EXPECT_EQ(env.fabric.nic(0).qpc_hits(), 0u);
  EXPECT_EQ(env.fabric.nic(0).qpc_evictions(), 7u);
  EXPECT_EQ(env.fabric.nic(1).qpc_misses(), 1u);
  EXPECT_EQ(env.fabric.nic(1).qpc_hits(), 7u);
  EXPECT_EQ(env.fabric.nic(1).qpc_evictions(), 0u);
}

TEST(NicCtxCache, SharedContextTurnsThrashIntoHits) {
  // Same cache, same posting pattern — but both QPs multiplex one
  // context, so the single entry stays resident.
  FabricConfig fc;
  fc.nic_ctx_cache_entries = 1;
  TwoNodes env({}, fc);
  int word = 1;
  MrKey key = env.fabric.nic(1).register_mr(bytes_of(word));
  CompletionQueue cq;
  auto ctx = std::make_shared<QpContext>(env.fabric.nic(0));
  QueuePair qp1(env.fabric.nic(0), 1, cq, ctx);
  QueuePair qp2(env.fabric.nic(0), 1, cq, ctx);
  for (int i = 0; i < 4; ++i) {
    qp1.post({.rkey = key, .len = 64, .wr_id = cq.alloc_wr_id()});
    qp2.post({.rkey = key, .len = 64, .wr_id = cq.alloc_wr_id()});
  }
  env.simu.run_for(msec(10));
  EXPECT_EQ(env.fabric.nic(0).qpc_misses(), 1u);
  EXPECT_EQ(env.fabric.nic(0).qpc_hits(), 7u);
  EXPECT_EQ(env.fabric.nic(0).qpc_evictions(), 0u);
}

TEST(NicCtxCache, MissPenaltyDelaysTheRead) {
  // Cold bounded cache: the first READ pays one QPC fetch at the
  // initiator plus one MR fetch at the target.
  auto measure = [](int cache_entries) {
    FabricConfig fc;
    fc.nic_ctx_cache_entries = cache_entries;
    TwoNodes env({}, fc);
    int word = 1;
    MrKey key = env.fabric.nic(1).register_mr(bytes_of(word));
    CompletionQueue cq;
    QueuePair qp(env.fabric.nic(0), 1, cq);
    std::int64_t latency = -1;
    env.a.spawn("reader", [&](SimThread& self) -> Program {
      Completion out;
      const sim::TimePoint t0 = env.simu.now();
      co_await rdma_sync(self, qp, {.rkey = key, .len = 64}, out);
      latency = (env.simu.now() - t0).ns;
    });
    env.simu.run_for(msec(10));
    return latency;
  };
  const std::int64_t unbounded = measure(0);
  const std::int64_t bounded = measure(64);
  ASSERT_GT(unbounded, 0);
  EXPECT_EQ(bounded - unbounded, 2 * kCtxMissPenalty.ns);
}

TEST(Nic, TxSerializesAtLinkBandwidth) {
  FabricConfig fc;
  fc.bandwidth_bps = 1e9;  // 1 GB/s for round numbers
  TwoNodes env({}, fc);
  Connection& conn = env.fabric.connect(env.a, env.b);
  std::vector<std::int64_t> arrivals;
  env.b.spawn("rx", [&](SimThread& self) -> Program {
    for (int i = 0; i < 2; ++i) {
      Message m;
      co_await conn.end_b().recv(self, m);
      arrivals.push_back(env.simu.now().ns);
    }
  });
  env.a.spawn("tx", [&](SimThread& self) -> Program {
    // Two 1MB messages back to back: second must arrive ~1ms later.
    co_await conn.end_a().send(self, 1'000'000, 0);
    co_await conn.end_a().send(self, 1'000'000, 1);
  });
  env.simu.run_for(seconds(1));
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_GT(arrivals[1] - arrivals[0], msec(1).ns / 2);
}

/// One steady-state configuration of the one-sided path: READs and WRITEs
/// of an `int` image (a ByteBlock holds it inline), WRITEs of a 112-byte
/// push-inbox slot into a region of its own, optionally plus ops that end
/// in InvalidKey and RetryExceeded, optionally through the QoS arbiter.
/// Returns the heap allocations of the measured half.
std::uint64_t one_sided_steady_state_allocs(bool qos, bool errors) {
  FabricConfig fc;
  fc.qos.enabled = qos;
  TwoNodes env({}, fc);
  os::Node dead(env.simu, {.name = "dead"});
  env.fabric.attach(dead);
  int value = 0, dead_value = 0;
  const MrKey key = env.fabric.nic(env.b.id).register_mr(
      bytes_of(value), nullptr, /*remote_writable=*/true);
  const MrKey dead_key = env.fabric.nic(dead.id).register_mr(
      bytes_of(dead_value), nullptr, /*remote_writable=*/true);
  monitor::InboxSlot inbox;
  static_assert(sizeof(inbox) == 112, "the push plane's WRITE source");
  const MrKey inbox_key = env.fabric.nic(env.b.id).register_mr(
      bytes_of(inbox), nullptr, /*remote_writable=*/true);
  env.fabric.inject_crash(dead.id);
  CompletionQueue cq;
  QueuePair qp(env.fabric.nic(env.a.id), env.b.id, cq);
  QueuePair to_dead(env.fabric.nic(env.a.id), dead.id, cq);
  constexpr int kOps = 64;
  std::array<int, 4> by_status{};
  int reads_seen = 0;
  std::uint64_t before = 0, after = 0;
  env.a.spawn("rdma", [&](SimThread& self) -> Program {
    Completion out;
    monitor::InboxSlot image;
    for (int round = 0; round < 2; ++round) {  // warm-up, then measured
      if (round == 1) before = allocation_count();
      for (int i = 0; i < kOps; ++i) {
        co_await rdma_sync(self, qp,
                           {.rkey = key, .len = 64, .wr_id = cq.alloc_wr_id()},
                           out);
        ++by_status[static_cast<std::size_t>(out.status)];
        if (out.data.as<int>() == value) ++reads_seen;
        co_await rdma_sync(self, qp,
                           {.verb = Verb::Write,
                            .rkey = key,
                            .len = 64,
                            .wr_id = cq.alloc_wr_id(),
                            .payload = bytes_of(i)},
                           out);
        ++by_status[static_cast<std::size_t>(out.status)];
        image.seq = image.seq_check = static_cast<std::uint64_t>(i + 1);
        co_await rdma_sync(self, qp,
                           {.verb = Verb::Write,
                            .rkey = inbox_key,
                            .len = monitor::PushInbox::kSlotBytes,
                            .wr_id = cq.alloc_wr_id(),
                            .payload = bytes_of(image)},
                           out);
        ++by_status[static_cast<std::size_t>(out.status)];
        if (!errors) continue;
        for (const Verb verb : {Verb::Read, Verb::Write}) {
          co_await rdma_sync(self, qp,
                             {.verb = verb,
                              .rkey = MrKey{999},
                              .len = 64,
                              .wr_id = cq.alloc_wr_id(),
                              .payload = bytes_of(i)},
                             out);
          ++by_status[static_cast<std::size_t>(out.status)];
          co_await rdma_sync(self, to_dead,
                             {.verb = verb,
                              .rkey = dead_key,
                              .len = 64,
                              .wr_id = cq.alloc_wr_id(),
                              .payload = bytes_of(i)},
                             out);
          ++by_status[static_cast<std::size_t>(out.status)];
        }
      }
      if (round == 1) after = allocation_count();
    }
  });
  env.simu.run_for(seconds(5));
  EXPECT_EQ(by_status[static_cast<std::size_t>(WcStatus::Success)], 6 * kOps);
  EXPECT_EQ(reads_seen, 2 * kOps);
  EXPECT_EQ(value, kOps - 1);
  EXPECT_EQ(inbox.seq, static_cast<std::uint64_t>(kOps));
  EXPECT_EQ(inbox.seq_check, inbox.seq);
  EXPECT_EQ(by_status[static_cast<std::size_t>(WcStatus::InvalidKey)],
            errors ? 4 * kOps : 0);
  EXPECT_EQ(by_status[static_cast<std::size_t>(WcStatus::RetryExceeded)],
            errors ? 4 * kOps : 0);
  // Every exit path freed its op slot.
  EXPECT_EQ(env.fabric.nic(env.a.id).rdma_ops_in_flight(), 0u);
  EXPECT_EQ(env.fabric.nic(env.a.id).rdma_ops_posted(),
            static_cast<std::uint64_t>((errors ? 14 : 6) * kOps));
  return after - before;
}

TEST(Rdma, SteadyStateReadAndWriteDoNotAllocate) {
  // An op lives in its NIC's op table and each of its events captures
  // only {nic, slot}; the completion callback, an int's byte block and
  // the coroutine frames are inline or pooled, and a WRITE of any size
  // carries only a span of its source. Once warm, no exit path touches
  // the heap.
  for (const bool qos : {false, true}) {
    for (const bool errors : {false, true}) {
      SCOPED_TRACE(testing::Message() << "qos=" << qos << " errors=" << errors);
      EXPECT_EQ(one_sided_steady_state_allocs(qos, errors), 0u);
    }
  }
}

/// One steady-state socket exchange carrying `payload` each way: every
/// round is one ping-pong (inline receive) plus a burst wider than the
/// inline budget, whose tail the receiver defers to ksoftirqd; the echo
/// server sends each payload back as received. Returns the heap
/// allocations of the measured half.
std::uint64_t socket_steady_state_allocs(const Payload& payload) {
  TwoNodes env;
  Connection& conn = env.fabric.connect(env.a, env.b);
  constexpr int kRounds = 32;
  constexpr int kBurst = 2 * os::kRxInlineBudget;
  int echoed = 0;
  env.b.spawn("echo", [&](SimThread& self) -> Program {
    for (;;) {
      Message m;
      co_await conn.end_b().recv(self, m);
      co_await conn.end_b().send(self, 64, m.payload);
      ++echoed;
    }
  });
  std::uint64_t before = 0, after = 0, deferred_before = 0;
  int replies = 0;
  env.a.spawn("client", [&](SimThread& self) -> Program {
    Message rep;
    for (int round = 0; round < 2; ++round) {  // warm-up, then measured
      if (round == 1) {
        before = allocation_count();
        deferred_before = env.fabric.nic(env.b.id).rx_deferred();
      }
      for (int i = 0; i < kRounds; ++i) {
        co_await conn.end_a().send(self, 64, payload);
        co_await conn.end_a().recv(self, rep);
        replies += rep.payload.size() == payload.size();
        for (int k = 0; k < kBurst; ++k) conn.end_a().inject_tx(64, payload);
        for (int k = 0; k < kBurst; ++k) {
          co_await conn.end_a().recv(self, rep);
          replies += rep.payload.size() == payload.size();
        }
      }
      if (round == 1) after = allocation_count();
    }
  });
  env.simu.run_for(seconds(2));
  EXPECT_EQ(replies, 2 * kRounds * (1 + kBurst));
  EXPECT_EQ(echoed, 2 * kRounds * (1 + kBurst));
  // Both receive branches ran in the measured half.
  const Nic& rx = env.fabric.nic(env.b.id);
  EXPECT_GT(rx.rx_deferred(), deferred_before);
  EXPECT_LT(rx.rx_deferred(), rx.rx_packets());
  EXPECT_EQ(env.fabric.packets_in_flight(), 0u);
  return after - before;
}

TEST(Socket, SteadyStateMessagesDoNotAllocate) {
  // A message lives in one packet-table slot from Nic::tx until it is
  // read; IRQ and softirq bodies and the receive queue carry only the
  // slot, and the payload is an inline image. Every payload the sockets
  // carry, up to the largest, crosses both receive branches without
  // touching the heap once warm.
  web::Request request;
  request.id = 7;
  os::LoadSnapshot snapshot;
  snapshot.cpu_load = 0.5;
  static_assert(sizeof(web::Request) == 64);
  static_assert(sizeof(os::LoadSnapshot) == Payload::kCapacity);
  const std::pair<const char*, Payload> payloads[] = {
      {"empty", Payload{}},
      {"int", Payload{5}},
      {"web::Request", request},
      {"os::LoadSnapshot", snapshot}};
  for (const auto& [name, payload] : payloads) {
    SCOPED_TRACE(name);
    EXPECT_EQ(socket_steady_state_allocs(payload), 0u);
  }
}

TEST(Fabric, PacketSlotsAreFreedOnEveryExitPath) {
  // A socket message holds its packet slot from Nic::tx until it is read,
  // flushed or dropped; each way out gives the slot back.
  TwoNodes env;
  Fabric& f = env.fabric;
  Connection& conn = f.connect(env.a, env.b);
  auto send = [&](int n) {
    for (int i = 0; i < n; ++i) conn.end_a().inject_tx(64, i);
  };
  auto run = [&] { env.simu.run_for(msec(1)); };

  // Received: parked from tx, still parked while queued at the socket,
  // freed by the read.
  send(1);
  EXPECT_EQ(f.packets_in_flight(), 1u);
  run();
  EXPECT_EQ(conn.end_b().rx_backlog(), 1u);
  EXPECT_EQ(f.packets_in_flight(), 1u);
  int got = -1;
  env.b.spawn("reader", [&](SimThread& self) -> Program {
    Message m;
    co_await conn.end_b().recv(self, m);
    got = m.payload.as<int>();
  });
  run();
  EXPECT_EQ(got, 0);
  EXPECT_EQ(f.packets_in_flight(), 0u);

  // Flushed unread.
  send(3);
  run();
  EXPECT_EQ(f.packets_in_flight(), 3u);
  EXPECT_EQ(conn.end_b().drain_rx(), 3u);
  EXPECT_EQ(f.packets_in_flight(), 0u);

  // A crashed end: dropped when shipped, and when the destination dies
  // while the packet is on the wire.
  f.inject_crash(env.b.id);
  send(2);
  run();
  EXPECT_EQ(f.packets_in_flight(), 0u);
  f.inject_recover(env.b.id);
  send(1);
  env.simu.after(kPropLatency / 2, [&] { f.inject_crash(env.b.id); });
  run();
  EXPECT_EQ(f.packets_in_flight(), 0u);
  f.inject_recover(env.b.id);

  // A lossy link.
  f.inject_link_fault(env.b.id, {}, 1.0);
  send(2);
  run();
  EXPECT_EQ(f.packets_in_flight(), 0u);
  f.clear_link_fault(env.b.id);

  // A frozen host crashed while its ingress port holds packets.
  f.inject_freeze(env.b.id);
  send(2);
  run();
  EXPECT_EQ(f.packets_in_flight(), 2u);
  EXPECT_EQ(conn.end_b().rx_backlog(), 0u);
  f.inject_crash(env.b.id);
  EXPECT_EQ(f.packets_in_flight(), 0u);
}

TEST(CompletionQueue, WarmInFlightForgetDoesNotAllocate) {
  // Attempts abandoned while their READ is on the wire: the CQ remembers
  // each id until its completion lands and is dropped, in a list that
  // keeps its capacity.
  TwoNodes env;
  int value = 5;
  const MrKey key = env.fabric.nic(env.b.id).register_mr(bytes_of(value));
  CompletionQueue cq;
  QueuePair qp(env.fabric.nic(env.a.id), env.b.id, cq);
  constexpr int kOps = 32;
  std::uint64_t before = 0, after = 0;
  env.a.spawn("abandon", [&](SimThread& self) -> Program {
    for (int round = 0; round < 2; ++round) {  // warm-up, then measured
      if (round == 1) before = allocation_count();
      for (int i = 0; i < kOps; ++i) {
        const std::uint64_t id = cq.alloc_wr_id();
        qp.post({.rkey = key, .len = 64, .wr_id = id});
        cq.forget(id);
      }
      co_await SleepFor{msec(1)};  // every READ lands and is dropped
      if (round == 1) after = allocation_count();
    }
    (void)self;
  });
  env.simu.run_for(seconds(1));
  EXPECT_EQ(cq.forgets(), 2u * kOps);
  EXPECT_EQ(cq.stale_dropped(), 2u * kOps);
  EXPECT_TRUE(cq.empty());
  EXPECT_EQ(env.fabric.nic(env.a.id).rdma_ops_in_flight(), 0u);
  EXPECT_EQ(after - before, 0u);
}

}  // namespace
}  // namespace rdmamon::net
