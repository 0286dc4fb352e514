// The scatter-gather monitoring plane: shared-CQ demux + centralized
// stale-completion handling, batched multi-READ posting, the
// issue/complete split on FrontendMonitor, and the ScatterFetcher round
// engine. The load-bearing property is PARITY: a scatter round must reach
// the same per-backend verdicts (ok/error/attempts) as blocking fetch()es
// run one after another — only the calendar time may differ.
#include <gtest/gtest.h>

#include <deque>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "fault/fault.hpp"
#include "lb/balancer.hpp"
#include "monitor/monitor.hpp"
#include "monitor/scatter.hpp"
#include "net/fabric.hpp"
#include "net/nic.hpp"
#include "net/verbs.hpp"
#include "os/node.hpp"
#include "sim/simulation.hpp"
#include "telemetry/registry.hpp"
#include "web/cluster.hpp"

namespace rdmamon {
namespace {

using monitor::FetchError;
using monitor::FrontendMonitor;
using monitor::MonitorConfig;
using monitor::MonitorSample;
using monitor::Scheme;
using os::Program;
using os::SimThread;
using sim::msec;
using sim::seconds;
using sim::usec;

MonitorConfig fast_cfg(Scheme scheme, sim::Duration timeout = msec(5)) {
  MonitorConfig cfg;
  cfg.scheme = scheme;
  cfg.fetch_timeout = timeout;
  cfg.fetch_retries = 2;
  cfg.retry_backoff = msec(2);
  return cfg;
}

// --- CompletionQueue: demux + centralized stale handling ---------------------

TEST(CompletionQueue, AllocWrIdIsUniqueAndMonotonic) {
  net::CompletionQueue cq;
  const std::uint64_t a = cq.alloc_wr_id();
  const std::uint64_t b = cq.alloc_wr_id();
  EXPECT_NE(a, b);
  EXPECT_GT(b, a);
}

TEST(CompletionQueue, TryPopFiltersByWrIdLeavingOthersQueued) {
  net::CompletionQueue cq;
  cq.deliver(/*ctx=*/0, /*seq=*/0, /*signaled=*/true, {.wr_id = 1});
  cq.deliver(/*ctx=*/0, /*seq=*/1, /*signaled=*/true, {.wr_id = 2});
  cq.deliver(/*ctx=*/0, /*seq=*/2, /*signaled=*/true, {.wr_id = 3});
  net::Completion c;
  ASSERT_TRUE(cq.try_pop(2, c));
  EXPECT_EQ(c.wr_id, 2u);
  EXPECT_EQ(cq.size(), 2u);
  EXPECT_FALSE(cq.try_pop(2, c));
  ASSERT_TRUE(cq.try_pop(3, c));
  EXPECT_EQ(c.wr_id, 3u);
  ASSERT_TRUE(cq.try_pop(1, c));
  EXPECT_EQ(c.wr_id, 1u);
  EXPECT_TRUE(cq.empty());
}

TEST(CompletionQueue, ForgetDropsQueuedCompletionImmediately) {
  net::CompletionQueue cq;
  cq.deliver(/*ctx=*/0, /*seq=*/0, /*signaled=*/true, {.wr_id = 7});
  cq.forget(7);
  EXPECT_TRUE(cq.empty());
  net::Completion c;
  EXPECT_FALSE(cq.try_pop(7, c));
}

TEST(CompletionQueue, ForgetDropsInFlightCompletionOnArrival) {
  net::CompletionQueue cq;
  cq.forget(9);
  // The late completion of an abandoned WR.
  cq.deliver(/*ctx=*/0, /*seq=*/0, /*signaled=*/true, {.wr_id = 9});
  EXPECT_TRUE(cq.empty());
  // The filter is one-shot: a later WR reusing nothing — a fresh id —
  // still lands, and so would a (never-issued) reuse of 9.
  cq.deliver(/*ctx=*/0, /*seq=*/1, /*signaled=*/true, {.wr_id = 9});
  EXPECT_EQ(cq.size(), 1u);
}

// --- batched posting ---------------------------------------------------------

struct RdmaEnv {
  sim::Simulation simu;
  net::Fabric fabric{simu, {}};
  os::Node frontend{simu, {.name = "frontend"}};
  std::vector<std::unique_ptr<os::Node>> backends;
  std::deque<os::LoadSnapshot> images;
  std::vector<net::MrKey> keys;

  explicit RdmaEnv(int n) {
    fabric.attach(frontend);
    for (int i = 0; i < n; ++i) {
      os::NodeConfig cfg;
      cfg.name = "backend" + std::to_string(i);
      backends.push_back(std::make_unique<os::Node>(simu, cfg));
      fabric.attach(*backends.back());
      // The kernel-page image, refreshed at each DMA instant.
      os::Node* node = backends.back().get();
      os::LoadSnapshot& image = images.emplace_back();
      keys.push_back(fabric.nic(node->id).register_mr(
          net::bytes_of(image),
          [node, &image](net::Verb, std::span<std::byte>&) {
            image = node->procfs().snapshot_dma();
          }));
    }
  }
};

TEST(PostReadBatch, OneQpChainCompletesEveryWr) {
  RdmaEnv env(1);
  net::CompletionQueue cq;
  net::QueuePair qp(env.fabric.nic(env.frontend.id), env.backends[0]->id, cq);
  std::vector<net::ReadBatchEntry> batch;
  for (std::uint64_t i = 0; i < 4; ++i) {
    batch.push_back(
        {&qp, {.rkey = env.keys[0], .len = 256, .wr_id = cq.alloc_wr_id()}});
  }
  env.frontend.spawn("poster", [&](SimThread& self) -> Program {
    co_await net::post_read_batch(self, batch);
  });
  env.simu.run_for(msec(10));
  ASSERT_EQ(cq.size(), 4u);
  for (const net::ReadBatchEntry& e : batch) {
    net::Completion c;
    ASSERT_TRUE(cq.try_pop(e.wr.wr_id, c));
    EXPECT_EQ(c.status, net::WcStatus::Success);
  }
}

TEST(PostReadBatch, CrossQpBatchSharesOneCqAndOneDoorbell) {
  RdmaEnv env(3);
  net::CompletionQueue cq;
  std::vector<std::unique_ptr<net::QueuePair>> qps;
  std::vector<net::ReadBatchEntry> batch;
  for (int i = 0; i < 3; ++i) {
    qps.push_back(std::make_unique<net::QueuePair>(
        env.fabric.nic(env.frontend.id), env.backends[i]->id, cq));
    batch.push_back({qps.back().get(),
                     {.rkey = env.keys[i], .len = 256,
                      .wr_id = cq.alloc_wr_id()}});
  }
  sim::Duration issue_time{};
  env.frontend.spawn("poster", [&](SimThread& self) -> Program {
    const sim::TimePoint t0 = env.simu.now();
    co_await net::post_read_batch(self, batch);
    issue_time = env.simu.now() - t0;
  });
  env.simu.run_for(msec(10));
  // One doorbell for the whole cross-QP chain (plus tick rounding slop).
  EXPECT_LT(issue_time.ns, 3 * net::kDoorbellCost.ns);
  ASSERT_EQ(cq.size(), 3u);
  for (const net::ReadBatchEntry& e : batch) {
    net::Completion c;
    ASSERT_TRUE(cq.try_pop(e.wr.wr_id, c));
    EXPECT_EQ(c.status, net::WcStatus::Success);
  }
}

// --- ScatterFetcher rounds ---------------------------------------------------

struct ChannelEnv {
  sim::Simulation simu;
  net::Fabric fabric{simu, {}};
  os::Node frontend{simu, {.name = "frontend"}};
  std::vector<std::unique_ptr<os::Node>> backends;
  std::vector<std::unique_ptr<monitor::MonitorChannel>> channels;

  ChannelEnv(const std::vector<MonitorConfig>& cfgs) {
    fabric.attach(frontend);
    for (std::size_t i = 0; i < cfgs.size(); ++i) {
      os::NodeConfig cfg;
      cfg.name = "backend" + std::to_string(i);
      backends.push_back(std::make_unique<os::Node>(simu, cfg));
      fabric.attach(*backends.back());
      channels.push_back(std::make_unique<monitor::MonitorChannel>(
          fabric, frontend, *backends.back(), cfgs[i]));
    }
  }
};

class SchemeRoundTest : public ::testing::TestWithParam<Scheme> {};

TEST_P(SchemeRoundTest, AllOkRoundFetchesEveryBackendInOneAttempt) {
  ChannelEnv env(std::vector<MonitorConfig>(4, fast_cfg(GetParam())));
  monitor::ScatterFetcher scatter;
  for (auto& ch : env.channels) scatter.add(ch->frontend());
  std::vector<MonitorSample> samples;
  sim::Duration round_time{};
  env.frontend.spawn("poller", [&](SimThread& self) -> Program {
    co_await os::SleepFor{msec(60)};  // let async daemons publish once
    const sim::TimePoint t0 = env.simu.now();
    co_await scatter.round_all(self, samples);
    round_time = env.simu.now() - t0;
  });
  env.simu.run_for(seconds(1));
  ASSERT_EQ(samples.size(), 4u);
  for (const MonitorSample& s : samples) {
    EXPECT_TRUE(s.ok) << monitor::to_string(GetParam());
    EXPECT_EQ(s.error, FetchError::None);
    EXPECT_EQ(s.attempts, 1);
    EXPECT_GE(s.retrieved_at.ns, s.requested_at.ns);
  }
  // Concurrency: the round is far below 4x a single fetch (sub-ms for
  // RDMA, sub-200us-per-target overlap for sockets).
  EXPECT_LT(round_time.ns, msec(1).ns) << monitor::to_string(GetParam());
}

TEST_P(SchemeRoundTest, BlockingFetchOfCrashedBackendResolvesAsOneTargetRound) {
  // A blocking fetch() is a one-target round of the same engine: against
  // a back end crashed at 49 ms and fetched after it, both spend every
  // attempt, reach the same error and resolve at the same instant. Each
  // backoff is retry_backoff * 2^(k-1) from the failed attempt's verdict,
  // not rounded up to the scheduler tick.
  const Scheme scheme = GetParam();
  auto run = [scheme](bool blocking) {
    ChannelEnv env({fast_cfg(scheme)});
    monitor::ScatterFetcher scatter;
    if (!blocking) scatter.add(env.channels[0]->frontend());
    env.simu.at(sim::TimePoint{msec(49).ns},
                [&] { env.fabric.inject_crash(env.backends[0]->id); });
    std::vector<MonitorSample> samples(1);
    env.frontend.spawn("poller", [&](SimThread& self) -> Program {
      co_await os::SleepFor{msec(50)};
      if (blocking) {
        co_await env.channels[0]->frontend().fetch(self, samples[0]);
      } else {
        co_await scatter.round_all(self, samples);
      }
    });
    env.simu.run_for(seconds(1));
    return samples[0];
  };
  const MonitorSample fetched = run(true);
  const MonitorSample round = run(false);
  const std::string name = monitor::to_string(scheme);
  EXPECT_FALSE(fetched.ok) << name;
  EXPECT_EQ(fetched.attempts, 3) << name;
  EXPECT_EQ(fetched.error, monitor::is_rdma(scheme) ? FetchError::Transport
                                                    : FetchError::Timeout)
      << name;
  EXPECT_GT(fetched.requested_at.ns, msec(49).ns) << name;  // after the crash
  EXPECT_EQ(fetched.attempts, round.attempts) << name;
  EXPECT_EQ(fetched.error, round.error) << name;
  EXPECT_EQ(fetched.requested_at.ns, round.requested_at.ns) << name;
  EXPECT_EQ(fetched.retrieved_at.ns, round.retrieved_at.ns) << name;
  // Three 5 ms attempts at most, plus 2 + 4 ms of backoff, plus wakeups.
  EXPECT_LT(fetched.latency().ns, (msec(21) + usec(100)).ns) << name;
}

INSTANTIATE_TEST_SUITE_P(AllTransports, SchemeRoundTest,
                         ::testing::ValuesIn(monitor::kTransportSchemes),
                         [](const auto& info) {
                           std::string n = monitor::to_string(info.param);
                           for (auto& ch : n)
                             if (ch == '-') ch = '_';
                           return n;
                         });

TEST(ScatterRound, FailuresOverlapInsteadOfSerializing) {
  // Three crashed back ends, one alive: the round costs ~one bounded
  // fetch (~21ms), not three of them back to back.
  std::vector<MonitorConfig> cfgs(4, fast_cfg(Scheme::SocketSync));
  ChannelEnv env(cfgs);
  for (int i = 1; i < 4; ++i) env.fabric.inject_crash(env.backends[i]->id);
  monitor::ScatterFetcher scatter;
  for (auto& ch : env.channels) scatter.add(ch->frontend());
  std::vector<MonitorSample> samples;
  sim::Duration round_time{};
  env.frontend.spawn("poller", [&](SimThread& self) -> Program {
    const sim::TimePoint t0 = env.simu.now();
    co_await scatter.round_all(self, samples);
    round_time = env.simu.now() - t0;
  });
  env.simu.run_for(seconds(1));
  EXPECT_TRUE(samples[0].ok);
  for (int i = 1; i < 4; ++i) {
    EXPECT_FALSE(samples[static_cast<std::size_t>(i)].ok);
    EXPECT_EQ(samples[static_cast<std::size_t>(i)].attempts, 3);
  }
  // Sequential would need ~3 x 21ms; concurrent resolution stays near one.
  EXPECT_LT(round_time.ns, msec(30).ns);
}

TEST(ScatterRound, MixedOutcomesMatchSequentialVerdictsExactly) {
  // The ISSUE's parity scenario: one back end whose short fetch_timeout
  // expires before the RC retry budget (Timeout), one whose longer
  // timeout lets the transport error-complete first (Transport), the
  // rest healthy. Scatter and sequential must reach identical
  // (ok, error, attempts) per back end.
  auto build_cfgs = [] {
    std::vector<MonitorConfig> cfgs(5, fast_cfg(Scheme::RdmaSync));
    // RC retry budget (fail_after_retries) error-completes at ~4ms.
    cfgs[1] = fast_cfg(Scheme::RdmaSync, msec(2));  // gives up first: Timeout
    cfgs[3] = fast_cfg(Scheme::RdmaSync, msec(6));  // hears the NIC: Transport
    return cfgs;
  };
  auto run = [&](bool scatter_mode) {
    ChannelEnv env(build_cfgs());
    env.fabric.inject_crash(env.backends[1]->id);
    env.fabric.inject_crash(env.backends[3]->id);
    monitor::ScatterFetcher scatter;
    for (auto& ch : env.channels) scatter.add(ch->frontend());
    std::vector<MonitorSample> samples(env.channels.size());
    env.frontend.spawn("poller", [&](SimThread& self) -> Program {
      if (scatter_mode) {
        co_await scatter.round_all(self, samples);
      } else {
        for (std::size_t i = 0; i < env.channels.size(); ++i) {
          co_await env.channels[i]->frontend().fetch(self, samples[i]);
        }
      }
    });
    env.simu.run_for(seconds(1));
    return samples;
  };
  const std::vector<MonitorSample> scat = run(true);
  const std::vector<MonitorSample> seq = run(false);
  ASSERT_EQ(scat.size(), seq.size());
  for (std::size_t i = 0; i < scat.size(); ++i) {
    EXPECT_EQ(scat[i].ok, seq[i].ok) << i;
    EXPECT_EQ(scat[i].error, seq[i].error) << i;
    EXPECT_EQ(scat[i].attempts, seq[i].attempts) << i;
  }
  EXPECT_EQ(scat[1].error, FetchError::Timeout);
  EXPECT_EQ(scat[1].attempts, 3);
  EXPECT_EQ(scat[3].error, FetchError::Transport);
  EXPECT_EQ(scat[3].attempts, 3);
  for (const std::size_t i : {0u, 2u, 4u}) {
    EXPECT_TRUE(scat[i].ok);
    EXPECT_EQ(scat[i].attempts, 1);
  }
}

TEST(ScatterRound, FastPathVerdictsMatchDedicatedUnderCrash) {
  // The verbs fast path (shared contexts + signal-every-k + CQ
  // moderation) may only change what a round COSTS, never what it
  // REPORTS: crash two of six targets and require per-backend verdicts
  // identical to the dedicated-context engine, and the fast path
  // deterministic against itself.
  auto run = [](bool fast) {
    sim::Simulation simu;
    net::Fabric fabric(simu, {});
    os::Node frontend(simu, {.name = "frontend"});
    fabric.attach(frontend);
    net::VerbsTuning vt;
    if (fast) {
      vt.signal_every = 4;
      vt.shared_contexts = 2;
      vt.cq_mod_count = 4;
    }
    const auto pool = net::make_context_pool(fabric.nic(frontend.id), vt);
    std::vector<std::unique_ptr<os::Node>> backends;
    std::vector<std::unique_ptr<monitor::MonitorChannel>> channels;
    for (int i = 0; i < 6; ++i) {
      os::NodeConfig cfg;
      cfg.name = "backend" + std::to_string(i);
      backends.push_back(std::make_unique<os::Node>(simu, cfg));
      fabric.attach(*backends.back());
      channels.push_back(std::make_unique<monitor::MonitorChannel>(
          fabric, frontend, *backends.back(), fast_cfg(Scheme::RdmaSync),
          pool.empty() ? nullptr
                       : pool[static_cast<std::size_t>(i) % pool.size()]));
    }
    monitor::ScatterFetcher scatter;
    for (auto& ch : channels) scatter.add(ch->frontend());
    if (fast) {
      scatter.cq().bind_moderation(simu, vt.cq_mod_count, net::kCqModPeriod);
    }
    fabric.inject_crash(backends[1]->id);
    fabric.inject_crash(backends[4]->id);
    std::vector<MonitorSample> samples;
    frontend.spawn("poller", [&](SimThread& self) -> Program {
      co_await scatter.round_all(self, samples);
    });
    simu.run_for(seconds(1));
    std::string out;
    for (const MonitorSample& s : samples) {
      out += s.ok ? "ok:" : "fail:";
      out += std::to_string(s.attempts);
      out += ' ';
    }
    return out;
  };
  const std::string fast_verdicts = run(true);
  EXPECT_EQ(fast_verdicts, run(true));   // deterministic replay
  EXPECT_EQ(fast_verdicts, run(false));  // parity with the plain engine
  EXPECT_NE(fast_verdicts.find("fail"), std::string::npos);
}

TEST(ScatterRound, BalancerRoundsRecordEveryFetchAndAttempt) {
  // The engine keeps the fetch records: in the front end's "monitor.<fe>"
  // ring, one "attempt.*" per attempt and one "fetch.*" per slot, with
  // a = back-end node and b = that monitor's fetch key (1, 2, ... per
  // monitor), then the round's own record (a = slots, b = failed).
  // monitor.backoff_waits counts the waits between a slot's attempts.
  if constexpr (!telemetry::kEnabled) GTEST_SKIP() << "telemetry off";
  sim::Simulation simu;
  telemetry::Registry reg;
  reg.install(simu);
  net::Fabric fabric(simu, {});
  os::Node frontend(simu, {.name = "frontend"});
  fabric.attach(frontend);
  lb::LoadBalancer lb(lb::WeightConfig::for_scheme(Scheme::RdmaSync));
  std::vector<std::unique_ptr<os::Node>> backends;
  for (int i = 0; i < 2; ++i) {
    backends.push_back(std::make_unique<os::Node>(
        simu, os::NodeConfig{.name = "backend" + std::to_string(i)}));
    fabric.attach(*backends.back());
    lb.add_backend(std::make_unique<monitor::MonitorChannel>(
        fabric, frontend, *backends.back(), fast_cfg(Scheme::RdmaSync)));
  }
  fabric.inject_crash(backends[1]->id);
  std::size_t rounds = 0;
  lb.on_round([&](const std::vector<std::size_t>&) { ++rounds; });
  // A crashed target's three attempts take about 18 ms, so two rounds
  // 30 ms apart finish inside 90 ms and the third has not started.
  lb.start(frontend, msec(30));
  simu.run_for(msec(90));
  ASSERT_EQ(rounds, 2u);

  std::vector<std::string> trail;
  for (const telemetry::FlightEvent& e :
       reg.recorder().ring("monitor.frontend")->events()) {
    trail.push_back(std::string(e.kind) + " " + std::to_string(e.a) + " " +
                    std::to_string(e.b));
  }
  const std::string up = " " + std::to_string(backends[0]->id) + " ";
  const std::string down = " " + std::to_string(backends[1]->id) + " ";
  std::vector<std::string> expected;
  for (const std::string key : {"1", "2"}) {
    expected.push_back("attempt.ok" + up + key);
    expected.push_back("fetch.ok" + up + key);
    for (int a = 0; a < 3; ++a) {
      expected.push_back("attempt.transport" + down + key);
    }
    expected.push_back("fetch.transport" + down + key);
    expected.push_back("round 2 1");
  }
  EXPECT_EQ(trail, expected);

  const telemetry::Snapshot snap = reg.snapshot();
  const telemetry::SnapshotEntry* waits = snap.find(
      "monitor.backoff_waits", "backend=backend1,scheme=RDMA-Sync");
  ASSERT_NE(waits, nullptr);
  EXPECT_DOUBLE_EQ(waits->value, 4.0);  // two per round
  waits = snap.find("monitor.backoff_waits",
                    "backend=backend0,scheme=RDMA-Sync");
  ASSERT_NE(waits, nullptr);
  EXPECT_DOUBLE_EQ(waits->value, 0.0);
}

// --- LoadBalancer on the engine ----------------------------------------------

struct LbEnv {
  static constexpr int kBackends = 3;
  sim::Simulation simu;
  telemetry::Registry reg;  ///< installed first: the "lb" ring is read
  net::Fabric fabric{simu, {}};
  os::Node frontend{simu, {.name = "frontend"}};
  std::vector<std::unique_ptr<os::Node>> backends;
  lb::LoadBalancer lb{lb::WeightConfig::for_scheme(Scheme::RdmaSync)};

  explicit LbEnv(Scheme scheme) {
    reg.install(simu);
    fabric.attach(frontend);
    for (int i = 0; i < kBackends; ++i) {
      os::NodeConfig cfg;
      cfg.name = "backend" + std::to_string(i);
      backends.push_back(std::make_unique<os::Node>(simu, cfg));
      fabric.attach(*backends.back());
      lb.add_backend(std::make_unique<monitor::MonitorChannel>(
          fabric, frontend, *backends.back(), fast_cfg(scheme)));
    }
    lb.start(frontend, msec(10));
  }
};

TEST(ScatterPoller, CrashRecoverWalksHealthLadder) {
  // Crash -> recover one back end: the poller walks it down the ladder
  // and back, and leaves every other back end alone.
  LbEnv env(Scheme::RdmaSync);
  std::vector<std::string> trace;
  env.lb.on_health_change([&](int b, lb::BackendHealth h) {
    trace.push_back(std::to_string(b) + ":" + lb::to_string(h));
  });
  const int victim_node = env.backends[1]->id;
  env.simu.at(sim::TimePoint{msec(50).ns},
              [&] { env.fabric.inject_crash(victim_node); });
  env.simu.at(sim::TimePoint{msec(400).ns},
              [&] { env.fabric.inject_recover(victim_node); });
  env.simu.run_for(seconds(1));
  trace.push_back("final:" + std::string(lb::to_string(env.lb.health_of(1))));
  EXPECT_EQ(trace, (std::vector<std::string>{"1:suspect", "1:dead",
                                             "1:healthy", "final:healthy"}));
}

TEST(HealthRing, EdgesAndTakeoverResetRecordBackendAndBothStates) {
  // The "lb" flight ring alone must tell the story: which back end, the
  // state it left and the state it entered — for detector edges and for
  // the scale-out takeover reset, which has a kind of its own.
  if constexpr (!telemetry::kEnabled) GTEST_SKIP() << "telemetry off";
  LbEnv env(Scheme::RdmaSync);
  env.fabric.inject_crash(env.backends[2]->id);
  env.simu.run_for(msec(200));
  ASSERT_EQ(env.lb.health_of(2), lb::BackendHealth::Dead);
  env.lb.reset_health(2);  // shard takeover: a clean detector
  std::vector<std::string> walk;
  for (const telemetry::FlightEvent& e :
       env.reg.recorder().ring("lb")->events()) {
    const auto from = static_cast<lb::BackendHealth>(e.x);
    const auto to = static_cast<lb::BackendHealth>(e.b);
    walk.push_back(std::string(e.kind) + " " + std::to_string(e.a) + " " +
                   lb::to_string(from) + "->" + lb::to_string(to));
  }
  EXPECT_EQ(walk, (std::vector<std::string>{
                      "health 2 healthy->suspect", "health 2 suspect->dead",
                      "health.reset 2 dead->healthy"}));
}

TEST(DeadProbeCadence, DeadBackendIsProbedEveryNthRoundOnly) {
  // Once Dead, the victim is fetched only every kDeadProbeEvery (8)
  // rounds instead of every round.
  LbEnv env(Scheme::RdmaSync);
  env.fabric.inject_crash(env.backends[1]->id);
  env.simu.run_for(msec(200));  // long past detection
  const std::uint64_t at_dead = env.lb.fetch_failures();
  EXPECT_EQ(env.lb.health_of(1), lb::BackendHealth::Dead);
  env.simu.run_for(msec(400));
  const std::uint64_t failures = env.lb.fetch_failures() - at_dead;
  // ~40 rounds fit the window at 10ms granularity; cadence 8 probes ~5x.
  EXPECT_GE(failures, 2u);
  EXPECT_LE(failures, 8u);
}

TEST(ScatterTelemetry, CqGaugesSumEveryEngineOfAFrontEnd) {
  // Every engine of a front end adds its CQ's counts into the same
  // scatter.cq.* gauges: a blocking fetch()'s one-target engine next to
  // the balancer's polling engine hides neither engine's completions.
  if constexpr (!telemetry::kEnabled) {
    GTEST_SKIP() << "telemetry compiled out";
  }
  sim::Simulation simu;
  telemetry::Registry reg;
  reg.install(simu);
  web::ClusterConfig cfg;
  cfg.backends = 3;
  cfg.lb_granularity = msec(10);
  web::ClusterTestbed bed(simu, cfg);
  monitor::MonitorChannel extra(bed.fabric(), bed.frontend(), bed.backend(0),
                                fast_cfg(Scheme::RdmaSync));
  MonitorSample probe;
  bed.frontend().spawn("probe", [&](SimThread& self) -> Program {
    co_await os::SleepFor{msec(500)};
    co_await extra.frontend().fetch(self, probe);
  });
  // Past the last 10 ms tick: every round has completed its READs.
  simu.run_for(seconds(1) + msec(5));
  ASSERT_TRUE(probe.ok);
  auto value = [&reg](const char* name, const std::string& labels) {
    const telemetry::Snapshot snap = reg.snapshot();
    const telemetry::SnapshotEntry* e = snap.find(name, labels);
    EXPECT_NE(e, nullptr) << name;
    return e != nullptr ? e->value : -1.0;
  };
  const std::string fe = "frontend=" + bed.frontend().name();
  const double rounds = value("scatter.rounds", "");
  EXPECT_GT(rounds, 50.0);
  // The balancer's rounds READ all three back ends; the probe's one
  // round READs one.
  const double pushed = value("scatter.cq.pushed", fe);
  EXPECT_EQ(pushed, 3.0 * (rounds - 1.0) + 1.0);
  EXPECT_EQ(value("scatter.cq.signaled", fe), pushed);
  // A later snapshot adds nothing twice.
  EXPECT_EQ(value("scatter.cq.pushed", fe), pushed);
}

TEST(Determinism, ScatterClusterRunWithRandomFaultPlanReplaysExactly) {
  // The engine's event interleavings (batched posts, shared-CQ wakeups,
  // per-slot timers) must replay bit-for-bit under a random fault plan.
  auto run = [](Scheme scheme) {
    sim::Simulation simu;
    web::ClusterConfig cfg;
    cfg.backends = 3;
    cfg.scheme = scheme;
    cfg.fetch_timeout = msec(10);
    cfg.fetch_retries = 1;
    cfg.retry_backoff = msec(2);
    cfg.seed = 777;
    web::ClusterTestbed bed(simu, cfg);
    web::ClientGroupConfig ccfg;
    ccfg.threads_per_node = 4;
    web::ClientGroup& g =
        bed.add_clients(1, web::make_rubis_generator(), ccfg);

    sim::Rng fault_rng(55);
    fault::FaultPlan plan =
        fault::FaultPlan::random(fault_rng, bed.fabric().num_nodes(),
                                 seconds(2), /*pairs=*/4);
    fault::FaultInjector inj(bed.fabric());
    inj.arm(plan);
    simu.run_for(seconds(2));

    std::string out = plan.describe();
    out += "completed=" + std::to_string(g.stats().completed());
    out += " rejected=" + std::to_string(g.stats().rejected());
    out += " forwarded=" + std::to_string(bed.dispatcher().forwarded());
    out += " fetch_failures=" + std::to_string(bed.balancer().fetch_failures());
    for (int b = 0; b < cfg.backends; ++b) {
      out += ' ';
      out += lb::to_string(bed.balancer().health_of(b));
    }
    return out;
  };
  for (const Scheme scheme : {Scheme::RdmaSync, Scheme::SocketSync}) {
    EXPECT_EQ(run(scheme), run(scheme)) << monitor::to_string(scheme);
  }
}

}  // namespace
}  // namespace rdmamon
