#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "alloc_counter.hpp"
#include "lb/balancer.hpp"
#include "monitor/accuracy.hpp"
#include "monitor/inbox.hpp"
#include "monitor/monitor.hpp"
#include "monitor/scheme.hpp"
#include "net/fabric.hpp"
#include "os/node.hpp"
#include "sim/simulation.hpp"
#include "telemetry/registry.hpp"
#include "workload/synthetic.hpp"

namespace rdmamon::monitor {
namespace {

using os::Compute;
using os::Program;
using os::SimThread;
using os::SleepFor;
using sim::msec;
using sim::seconds;
using sim::usec;

struct Env {
  sim::Simulation simu;
  net::Fabric fabric{simu, {}};
  os::Node frontend{simu, frontend_cfg()};
  os::Node backend{simu, backend_cfg()};
  os::Node peer{simu, peer_cfg()};  ///< echo peer for background traffic
  std::unique_ptr<workload::BackgroundLoad> bg;

  static os::NodeConfig frontend_cfg() {
    os::NodeConfig c;
    c.name = "frontend";
    return c;
  }
  static os::NodeConfig backend_cfg() {
    os::NodeConfig c;
    c.name = "backend";
    return c;
  }
  static os::NodeConfig peer_cfg() {
    os::NodeConfig c;
    c.name = "peer";
    return c;
  }

  Env() {
    fabric.attach(frontend);
    fabric.attach(backend);
    fabric.attach(peer);
  }

  /// The paper's Fig 3 background: computation + communication threads.
  void add_background(int n) {
    workload::BackgroundLoadConfig cfg;
    cfg.threads = n;
    bg = std::make_unique<workload::BackgroundLoad>(fabric, backend, peer,
                                                    cfg);
  }

  void add_hogs(int n) {
    for (int i = 0; i < n; ++i) {
      backend.spawn("hog" + std::to_string(i), [](SimThread&) -> Program {
        for (;;) co_await Compute{seconds(100)};
      });
    }
  }
};

TEST(SchemeTraits, Classification) {
  EXPECT_TRUE(is_rdma(Scheme::RdmaSync));
  EXPECT_TRUE(is_rdma(Scheme::ERdmaSync));
  EXPECT_FALSE(is_rdma(Scheme::SocketSync));
  EXPECT_TRUE(has_calc_thread(Scheme::SocketAsync));
  EXPECT_TRUE(has_calc_thread(Scheme::RdmaAsync));
  EXPECT_FALSE(has_calc_thread(Scheme::RdmaSync));
  EXPECT_TRUE(has_report_thread(Scheme::SocketSync));
  EXPECT_FALSE(has_report_thread(Scheme::RdmaAsync));
  EXPECT_TRUE(is_kernel_direct(Scheme::ERdmaSync));
  EXPECT_STREQ(to_string(Scheme::RdmaSync), "RDMA-Sync");
}

class EverySchemeTest : public ::testing::TestWithParam<Scheme> {};

TEST_P(EverySchemeTest, FetchDeliversASample) {
  Env env;
  MonitorConfig cfg;
  cfg.scheme = GetParam();
  MonitorChannel chan(env.fabric, env.frontend, env.backend, cfg);
  MonitorSample sample;
  env.frontend.spawn("mon", [&](SimThread& self) -> Program {
    co_await SleepFor{msec(100)};  // let async calc threads run once
    co_await chan.frontend().fetch(self, sample);
  });
  env.simu.run_for(seconds(1));
  ASSERT_TRUE(sample.ok);
  EXPECT_GT(sample.latency().ns, 0);
  EXPECT_GE(sample.staleness().ns, 0);
  EXPECT_GE(sample.info.cpu_load, 0.0);
}

TEST_P(EverySchemeTest, FetchLatencyIsBoundedUnloaded) {
  Env env;
  MonitorConfig cfg;
  cfg.scheme = GetParam();
  MonitorChannel chan(env.fabric, env.frontend, env.backend, cfg);
  MonitorSample sample;
  env.frontend.spawn("mon", [&](SimThread& self) -> Program {
    co_await SleepFor{msec(100)};
    co_await chan.frontend().fetch(self, sample);
  });
  env.simu.run_for(seconds(1));
  ASSERT_TRUE(sample.ok);
  // Unloaded, every scheme completes within 1ms.
  EXPECT_LT(sample.latency().ns, msec(1).ns);
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, EverySchemeTest,
                         ::testing::ValuesIn(kAllSchemes),
                         [](const auto& info) {
                           std::string n = to_string(info.param);
                           for (auto& ch : n)
                             if (ch == '-') ch = '_';
                           return n;
                         });

TEST(BackendThreads, RdmaSyncNeedsNoBackendThread) {
  Env env;
  MonitorConfig cfg;
  cfg.scheme = Scheme::RdmaSync;
  MonitorChannel chan(env.fabric, env.frontend, env.backend, cfg);
  env.simu.run_for(msec(10));
  EXPECT_EQ(env.backend.stats().nr_threads(), 0);
}

TEST(BackendThreads, SocketAsyncNeedsTwoBackendThreads) {
  Env env;
  MonitorConfig cfg;
  cfg.scheme = Scheme::SocketAsync;
  MonitorChannel chan(env.fabric, env.frontend, env.backend, cfg);
  env.simu.run_for(msec(10));
  EXPECT_EQ(env.backend.stats().nr_threads(), 2);
}

TEST(BackendThreads, SocketSyncAndRdmaAsyncNeedOneThread) {
  {
    Env env;
    MonitorConfig cfg;
    cfg.scheme = Scheme::SocketSync;
    MonitorChannel chan(env.fabric, env.frontend, env.backend, cfg);
    env.simu.run_for(msec(10));
    EXPECT_EQ(env.backend.stats().nr_threads(), 1);
  }
  {
    Env env;
    MonitorConfig cfg;
    cfg.scheme = Scheme::RdmaAsync;
    MonitorChannel chan(env.fabric, env.frontend, env.backend, cfg);
    env.simu.run_for(msec(10));
    EXPECT_EQ(env.backend.stats().nr_threads(), 1);
  }
}

TEST(BackendThreads, StopKillsDaemons) {
  Env env;
  MonitorConfig cfg;
  cfg.scheme = Scheme::SocketAsync;
  MonitorChannel chan(env.fabric, env.frontend, env.backend, cfg);
  env.simu.run_for(msec(10));
  chan.backend().stop();
  EXPECT_EQ(env.backend.stats().nr_threads(), 0);
}

TEST(Staleness, AsyncSchemesAreStaleByUpToT) {
  // RDMA-Async data is written every T=50ms; a fetch in between returns
  // data computed at the last update.
  Env env;
  MonitorConfig cfg;
  cfg.scheme = Scheme::RdmaAsync;
  cfg.period = msec(50);
  MonitorChannel chan(env.fabric, env.frontend, env.backend, cfg);
  sim::OnlineStats staleness_ms;
  env.frontend.spawn("mon", [&](SimThread& self) -> Program {
    for (int i = 0; i < 40; ++i) {
      co_await SleepFor{msec(13)};  // deliberately out of phase with T
      MonitorSample s;
      co_await chan.frontend().fetch(self, s);
      if (s.ok) staleness_ms.add(s.staleness().millis());
    }
  });
  env.simu.run_for(seconds(2));
  ASSERT_GT(staleness_ms.count(), 10u);
  EXPECT_GT(staleness_ms.mean(), 5.0);   // typically ~T/2
  EXPECT_LT(staleness_ms.max(), 60.0);   // never older than ~T
}

TEST(Staleness, RdmaSyncIsFreshAtDmaInstant) {
  Env env;
  MonitorConfig cfg;
  cfg.scheme = Scheme::RdmaSync;
  MonitorChannel chan(env.fabric, env.frontend, env.backend, cfg);
  sim::OnlineStats staleness_us;
  env.frontend.spawn("mon", [&](SimThread& self) -> Program {
    for (int i = 0; i < 20; ++i) {
      co_await SleepFor{msec(13)};
      MonitorSample s;
      co_await chan.frontend().fetch(self, s);
      if (s.ok) staleness_us.add(s.staleness().micros());
    }
  });
  env.simu.run_for(seconds(2));
  ASSERT_GT(staleness_us.count(), 10u);
  // Staleness is only the response flight time: microseconds.
  EXPECT_LT(staleness_us.max(), 100.0);
}

TEST(Latency, SocketDegradesUnderLoadRdmaDoesNot) {
  // Fig 3 in miniature, through the real monitoring stack.
  auto mean_latency_ms = [](Scheme scheme, int bg_threads) {
    Env env;
    if (bg_threads > 0) env.add_background(bg_threads);
    MonitorConfig cfg;
    cfg.scheme = scheme;
    MonitorChannel chan(env.fabric, env.frontend, env.backend, cfg);
    sim::OnlineStats lat_ms;
    env.frontend.spawn("mon", [&](SimThread& self) -> Program {
      for (int i = 0; i < 30; ++i) {
        co_await SleepFor{msec(50)};
        MonitorSample s;
        co_await chan.frontend().fetch(self, s);
        if (s.ok) lat_ms.add(s.latency().millis());
      }
    });
    env.simu.run_for(seconds(3));
    return lat_ms.mean();
  };
  const double sock_idle = mean_latency_ms(Scheme::SocketSync, 0);
  const double sock_loaded = mean_latency_ms(Scheme::SocketSync, 8);
  const double rdma_idle = mean_latency_ms(Scheme::RdmaSync, 0);
  const double rdma_loaded = mean_latency_ms(Scheme::RdmaSync, 8);
  EXPECT_GT(sock_loaded, sock_idle * 3);
  EXPECT_NEAR(rdma_loaded, rdma_idle, rdma_idle * 0.1);
}

TEST(Accuracy, RdmaSyncTracksThreadCountExactly) {
  // Fig 5a in miniature: a load ramp on the back end; RDMA-Sync reports
  // the kernel's nr_running exactly (modulo the microsecond DMA flight),
  // while Socket-Async reports values up to T stale.
  auto mean_dev = [](Scheme scheme) {
    Env env;
    MonitorConfig cfg;
    cfg.scheme = scheme;
    cfg.period = msec(50);
    MonitorChannel chan(env.fabric, env.frontend, env.backend, cfg);
    // Load ramp: add a hog every 100ms.
    for (int i = 0; i < 10; ++i) {
      env.simu.after(msec(100 * (i + 1)), [&env] { env.add_hogs(1); });
    }
    AccuracyTracker acc;
    env.frontend.spawn("mon", [&](SimThread& self) -> Program {
      for (int i = 0; i < 50; ++i) {
        co_await SleepFor{msec(23)};
        MonitorSample s;
        co_await chan.frontend().fetch(self, s);
        acc.record(s, chan.frontend().ground_truth());
      }
    });
    env.simu.run_for(seconds(2));
    return acc.nr_running_deviation().mean();
  };
  const double rdma_sync_dev = mean_dev(Scheme::RdmaSync);
  const double socket_async_dev = mean_dev(Scheme::SocketAsync);
  EXPECT_LT(rdma_sync_dev, 0.05);
  EXPECT_GT(socket_async_dev, rdma_sync_dev);
}

TEST(Accuracy, TrackerIgnoresFailedSamples) {
  AccuracyTracker acc;
  MonitorSample bad;  // ok == false
  acc.record(bad, os::LoadSnapshot{});
  EXPECT_EQ(acc.nr_running_deviation().count(), 0u);
}

TEST(Allocation, RdmaSyncFetchAllocatesOnlyItsSnapshotBlock) {
  // Once warm, the one heap allocation per RDMA-Sync fetch is the byte
  // block the 80-byte snapshot arrives in (ROADMAP item 3 pools it): the
  // op, its events, the completion and the coroutine frames allocate
  // nothing.
  Env env;
  MonitorConfig cfg;
  cfg.scheme = Scheme::RdmaSync;
  MonitorChannel chan(env.fabric, env.frontend, env.backend, cfg);
  constexpr int kFetches = 64;
  int ok = 0;
  std::uint64_t before = 0, after = 0;
  env.frontend.spawn("mon", [&](SimThread& self) -> Program {
    MonitorSample s;
    for (int round = 0; round < 2; ++round) {  // warm-up, then measured
      if (round == 1) before = allocation_count();
      for (int i = 0; i < kFetches; ++i) {
        co_await chan.frontend().fetch(self, s);
        ok += s.ok;
      }
      if (round == 1) after = allocation_count();
    }
  });
  env.simu.run_for(seconds(1));
  EXPECT_EQ(ok, 2 * kFetches);
  EXPECT_EQ(after - before, static_cast<std::uint64_t>(kFetches));
}

TEST(Allocation, WarmPollRoundAllocatesOnlyItsReadBlocks) {
  // pull_fanout's path at N = 64: RDMA-Sync back ends polled by scatter
  // rounds every 1 ms, registry installed. Once warm, a round allocates
  // one block per READ and nothing else: the round's targets and slots
  // reuse their vectors, and the doorbell instruments are resolved once.
  sim::Simulation simu;
  telemetry::Registry reg;
  reg.install(simu);
  net::Fabric fabric(simu, {});
  os::Node fe(simu, {.name = "fe"});
  fabric.attach(fe);
  lb::LoadBalancer lb(lb::WeightConfig::for_scheme(Scheme::RdmaSync));
  MonitorConfig mcfg;
  mcfg.scheme = Scheme::RdmaSync;
  std::vector<std::unique_ptr<os::Node>> backends;
  for (int i = 0; i < 64; ++i) {
    backends.push_back(std::make_unique<os::Node>(
        simu, os::NodeConfig{.name = "be" + std::to_string(i)}));
    fabric.attach(*backends.back());
    lb.add_backend(std::make_unique<MonitorChannel>(fabric, fe,
                                                    *backends.back(), mcfg));
  }
  std::size_t rounds = 0, polled = 0;
  lb.on_round([&](const std::vector<std::size_t>& targets) {
    ++rounds;
    polled += targets.size();
  });
  lb.start(fe, msec(1));
  // Warm up, then measure whole rounds: rounds start on scheduler ticks
  // and their READs land within microseconds, so a window edge half-way
  // between ticks cuts no round.
  simu.run_for(msec(50) + usec(500));
  const std::size_t rounds_before = rounds, polled_before = polled;
  const std::uint64_t before = allocation_count();
  simu.run_for(msec(20));
  EXPECT_EQ(allocation_count() - before, polled - polled_before);
  EXPECT_GE(rounds - rounds_before, 10u);
  EXPECT_EQ(polled - polled_before, 64 * (rounds - rounds_before));
}

TEST(Allocation, WarmPushPublisherAllocatesNothingPerPush) {
  // A push is one WRITE whose source is the publisher's own slot image,
  // read by the NIC at the DMA instant: once warm, pushing allocates
  // nothing, whatever the 112-byte image holds.
  Env env;
  PushInbox inbox(env.fabric, env.frontend, 4);
  PushPublisher pub(env.fabric, env.backend);
  pub.target(env.frontend.id, inbox.mr_key(), 2);
  pub.start();
  // A load that swings every 20 ms, so most pushes are change-triggered.
  env.backend.spawn("toggler", [](SimThread& self) -> Program {
    for (;;) {
      co_await Compute{msec(20)};
      co_await SleepFor{msec(20)};
    }
    (void)self;
  });
  env.simu.run_for(seconds(1));  // warm-up
  const std::uint64_t pushes_before = pub.pushes();
  const std::uint64_t before = allocation_count();
  env.simu.run_for(seconds(1));
  EXPECT_EQ(allocation_count() - before, 0u);
  EXPECT_GT(pub.pushes() - pushes_before, 20u);
  EXPECT_GT(pub.pushes() - pub.heartbeats(), pub.heartbeats());
  EXPECT_EQ(pub.errors(), 0u);
  EXPECT_EQ(inbox.writes_applied(), pub.pushes());
  MonitorSample s;
  EXPECT_EQ(inbox.scan(2, s), PushInbox::ScanResult::Fresh);
}

}  // namespace
}  // namespace rdmamon::monitor
