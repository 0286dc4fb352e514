// Fault-injection scenarios: the failure semantics of every monitoring
// transport (crash / freeze / link degradation), the front end's bounded
// fetch (timeout + retry/backoff), the balancer's failure detector, and
// the dispatcher's failover path. The headline case is the paper's: a
// back end whose kernel hangs stops answering socket probes, but its NIC
// keeps serving one-sided RDMA READs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cluster/scaleout.hpp"
#include "fault/fault.hpp"
#include "lb/balancer.hpp"
#include "monitor/monitor.hpp"
#include "net/fabric.hpp"
#include "net/nic.hpp"
#include "net/verbs.hpp"
#include "os/node.hpp"
#include "sim/simulation.hpp"
#include "sim/stats.hpp"
#include "web/cluster.hpp"
#include "workload/tenantstorm.hpp"

namespace rdmamon {
namespace {

using monitor::FetchError;
using monitor::MonitorConfig;
using monitor::MonitorSample;
using monitor::Scheme;
using os::Program;
using os::SimThread;
using sim::msec;
using sim::seconds;
using sim::usec;

/// Fast-failing monitor tuning so fault tests stay short: a full fetch
/// (1 try + 2 retries with 2/4 ms backoff) resolves within ~21 ms.
MonitorConfig fast_cfg(Scheme scheme) {
  MonitorConfig cfg;
  cfg.scheme = scheme;
  cfg.fetch_timeout = msec(5);
  cfg.fetch_retries = 2;
  cfg.retry_backoff = msec(2);
  return cfg;
}

struct Env {
  sim::Simulation simu;
  net::Fabric fabric{simu, {}};
  os::Node frontend{simu, {.name = "frontend"}};
  os::Node backend{simu, {.name = "backend"}};

  Env() {
    fabric.attach(frontend);  // id 0
    fabric.attach(backend);   // id 1
  }
};

// --- crash: every scheme fails fast, nothing hangs ---------------------------

class CrashSchemeTest : public ::testing::TestWithParam<Scheme> {};

TEST_P(CrashSchemeTest, FetchAgainstCrashedBackendResolvesQuickly) {
  Env env;
  monitor::MonitorChannel chan(env.fabric, env.frontend, env.backend,
                               fast_cfg(GetParam()));
  env.simu.at(sim::TimePoint{msec(49).ns},
              [&] { env.fabric.inject_crash(env.backend.id); });
  MonitorSample sample;
  sim::Duration resolve_time{};
  bool resolved = false;
  env.frontend.spawn("mon", [&](SimThread& self) -> Program {
    co_await os::SleepFor{msec(50)};
    const sim::TimePoint t0 = env.simu.now();
    co_await chan.frontend().fetch(self, sample);
    resolve_time = env.simu.now() - t0;
    resolved = true;
  });
  env.simu.run_for(seconds(2));
  ASSERT_TRUE(resolved);
  EXPECT_FALSE(sample.ok);
  EXPECT_NE(sample.error, FetchError::None);
  EXPECT_EQ(sample.attempts, 3);  // 1 try + fetch_retries
  // Bound: 3 attempts x 5ms timeout + 2ms + 4ms backoff, plus stack costs.
  EXPECT_LT(resolve_time.ns, msec(30).ns);
  EXPECT_EQ(sample.latency(), resolve_time);
}

INSTANTIATE_TEST_SUITE_P(AllTransports, CrashSchemeTest,
                         ::testing::ValuesIn(monitor::kTransportSchemes),
                         [](const auto& info) {
                           std::string n = monitor::to_string(info.param);
                           for (auto& ch : n)
                             if (ch == '-') ch = '_';
                           return n;
                         });

TEST(Crash, RdmaErrorCompletesAsTransportSocketAsTimeout) {
  // The RC transport error-completes a READ against a dead peer after the
  // retry budget (a signal!), while the socket path just hears silence.
  for (const Scheme scheme : {Scheme::RdmaSync, Scheme::SocketSync}) {
    Env env;
    monitor::MonitorChannel chan(env.fabric, env.frontend, env.backend,
                                 fast_cfg(scheme));
    env.fabric.inject_crash(env.backend.id);
    MonitorSample sample;
    env.frontend.spawn("mon", [&](SimThread& self) -> Program {
      co_await os::SleepFor{msec(10)};
      co_await chan.frontend().fetch(self, sample);
    });
    env.simu.run_for(seconds(1));
    ASSERT_FALSE(sample.ok) << monitor::to_string(scheme);
    EXPECT_EQ(sample.error, scheme == Scheme::RdmaSync
                                ? FetchError::Transport
                                : FetchError::Timeout);
  }
}

TEST(Crash, RecoveredBackendAnswersAgain) {
  Env env;
  monitor::MonitorChannel chan(env.fabric, env.frontend, env.backend,
                               fast_cfg(Scheme::RdmaSync));
  fault::FaultInjector inj(env.fabric);
  fault::FaultPlan plan;
  plan.crash_for(env.backend.id, sim::TimePoint{msec(40).ns}, msec(100));
  inj.arm(plan);
  MonitorSample during, after;
  env.frontend.spawn("mon", [&](SimThread& self) -> Program {
    co_await os::SleepFor{msec(50)};
    co_await chan.frontend().fetch(self, during);
    co_await os::SleepFor{msec(150)};  // past the recovery at t=140ms
    co_await chan.frontend().fetch(self, after);
  });
  env.simu.run_for(seconds(1));
  EXPECT_FALSE(during.ok);
  ASSERT_TRUE(after.ok);
  EXPECT_EQ(after.error, FetchError::None);
  EXPECT_EQ(after.attempts, 1);
  EXPECT_EQ(inj.injected(), 2u);
}

// --- freeze: the paper's one-sided-monitoring claim --------------------------

TEST(Freeze, RdmaSyncAnswersWhileSocketSyncTimesOut) {
  // Hung kernel, NIC alive: socket probes need the host to schedule the
  // reporting thread (it can't — no interrupt servicing), the one-sided
  // READ is served entirely by the NIC's DMA engine.
  Env env;
  monitor::MonitorChannel rdma(env.fabric, env.frontend, env.backend,
                               fast_cfg(Scheme::RdmaSync));
  monitor::MonitorChannel sock(env.fabric, env.frontend, env.backend,
                               fast_cfg(Scheme::SocketSync));
  env.simu.at(sim::TimePoint{msec(40).ns},
              [&] { env.fabric.inject_freeze(env.backend.id); });
  env.simu.at(sim::TimePoint{msec(300).ns},
              [&] { env.fabric.inject_unfreeze(env.backend.id); });
  MonitorSample rdma_frozen, sock_frozen, sock_thawed;
  env.frontend.spawn("mon", [&](SimThread& self) -> Program {
    co_await os::SleepFor{msec(50)};
    co_await rdma.frontend().fetch(self, rdma_frozen);
    co_await sock.frontend().fetch(self, sock_frozen);
    co_await os::SleepFor{msec(300)};  // well past the unfreeze
    co_await sock.frontend().fetch(self, sock_thawed);
  });
  env.simu.run_for(seconds(1));
  ASSERT_TRUE(rdma_frozen.ok);
  EXPECT_EQ(rdma_frozen.attempts, 1);
  EXPECT_LT(rdma_frozen.latency().ns, msec(1).ns);
  ASSERT_FALSE(sock_frozen.ok);
  EXPECT_EQ(sock_frozen.error, FetchError::Timeout);
  EXPECT_EQ(sock_frozen.attempts, 3);
  // Un-hung host drains the held requests and serves new ones again.
  ASSERT_TRUE(sock_thawed.ok);
  EXPECT_EQ(sock_thawed.attempts, 1);
}

// --- link degradation: retries win through loss ------------------------------

TEST(LinkFault, RetriesSurviveALossyDegradedLink) {
  Env env;
  MonitorConfig cfg = fast_cfg(Scheme::SocketSync);
  cfg.fetch_retries = 6;  // generous budget against 40% loss
  monitor::MonitorChannel chan(env.fabric, env.frontend, env.backend, cfg);
  env.fabric.inject_link_fault(env.backend.id, usec(200), 0.4);
  int okay = 0, total = 0;
  sim::OnlineStats attempts;
  env.frontend.spawn("mon", [&](SimThread& self) -> Program {
    for (int i = 0; i < 25; ++i) {
      co_await os::SleepFor{msec(10)};
      MonitorSample s;
      co_await chan.frontend().fetch(self, s);
      ++total;
      if (s.ok) ++okay;
      attempts.add(s.attempts);
    }
  });
  env.simu.run_for(seconds(5));
  EXPECT_EQ(total, 25);
  // P(all 7 attempts lose a packet) is tiny; the vast majority succeed.
  EXPECT_GE(okay, 20);
  // The loss actually bit: some fetches needed more than one attempt.
  EXPECT_GT(attempts.max(), 1.0);
}

// --- selective signaling under faults ----------------------------------------
//
// An unsignaled WR relies on a LATER completion to prove it retired; these
// scenarios kill the peer at every point of that dependency and check the
// chain still resolves deterministically — error-complete or forget, never
// a leaked shadow slot, never a hang.

TEST(VerbsFault, CrashBeforeUnsignaledWrsErrorCompletesEveryOne) {
  // Peer dead before anything lands: all four unsignaled WRs must
  // individually error-complete (RC generates error CQEs regardless of
  // the signal flag) — none may sit in the shadow buffer waiting for a
  // closer that cannot come.
  Env env;
  int word = 1;
  net::MrKey key = env.fabric.nic(1).register_mr(net::bytes_of(word));
  net::CompletionQueue cq;
  auto ctx = std::make_shared<net::QpContext>(env.fabric.nic(0),
                                              /*signal_every=*/8);
  net::QueuePair qp(env.fabric.nic(0), env.backend.id, cq, ctx);
  env.fabric.inject_crash(env.backend.id);
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 4; ++i) ids.push_back(cq.alloc_wr_id());
  for (const std::uint64_t id : ids) {
    qp.post({.rkey = key, .len = 64, .wr_id = id}, /*force_signal=*/false);
  }
  env.simu.run_for(seconds(1));
  net::Completion c;
  for (const std::uint64_t id : ids) {
    ASSERT_TRUE(cq.try_pop(id, c));
    EXPECT_EQ(c.status, net::WcStatus::RetryExceeded);
  }
  EXPECT_EQ(cq.shadowed(), 0u);
}

TEST(VerbsFault, CrashBetweenUnsignaledWrAndCloserStillReleasesIt) {
  // The nasty interleaving: WR A lands (success, unsignaled, shadowed),
  // THEN the peer dies, THEN the signaled closer B is posted into the
  // void. B's error completion must still prove A retired — A surfaces
  // as the success it was, B carries the transport error.
  Env env;
  int word = 7;
  net::MrKey key = env.fabric.nic(1).register_mr(net::bytes_of(word));
  net::CompletionQueue cq;
  auto ctx = std::make_shared<net::QpContext>(env.fabric.nic(0),
                                              /*signal_every=*/16);
  net::QueuePair qp(env.fabric.nic(0), env.backend.id, cq, ctx);
  const std::uint64_t a = cq.alloc_wr_id();
  qp.post({.rkey = key, .len = 64, .wr_id = a}, /*force_signal=*/false);
  env.simu.run_for(msec(5));
  ASSERT_EQ(cq.shadowed(), 1u);  // A is held awaiting a closer
  env.fabric.inject_crash(env.backend.id);
  const std::uint64_t b = cq.alloc_wr_id();
  qp.post({.rkey = key, .len = 64, .wr_id = b}, /*force_signal=*/true);
  env.simu.run_for(seconds(1));
  net::Completion c;
  ASSERT_TRUE(cq.try_pop(a, c));
  EXPECT_EQ(c.status, net::WcStatus::Success);
  EXPECT_EQ(c.data.as<int>(), 7);
  ASSERT_TRUE(cq.try_pop(b, c));
  EXPECT_EQ(c.status, net::WcStatus::RetryExceeded);
  EXPECT_EQ(cq.shadowed(), 0u);
}

TEST(VerbsFault, ForgottenUnsignaledWrsNeverSurfaceAfterCrash) {
  // Consumer gives up mid-chain: one WR already shadowed (reclaimed on
  // the spot), one still in flight against the dead peer (dropped when
  // its error completion lands). Exactly one reclaim each, no ghosts.
  Env env;
  int word = 1;
  net::MrKey key = env.fabric.nic(1).register_mr(net::bytes_of(word));
  net::CompletionQueue cq;
  auto ctx = std::make_shared<net::QpContext>(env.fabric.nic(0),
                                              /*signal_every=*/16);
  net::QueuePair qp(env.fabric.nic(0), env.backend.id, cq, ctx);
  const std::uint64_t a = cq.alloc_wr_id();
  qp.post({.rkey = key, .len = 64, .wr_id = a}, /*force_signal=*/false);
  env.simu.run_for(msec(5));
  ASSERT_EQ(cq.shadowed(), 1u);
  env.fabric.inject_crash(env.backend.id);
  const std::uint64_t b = cq.alloc_wr_id();
  qp.post({.rkey = key, .len = 64, .wr_id = b}, /*force_signal=*/false);
  cq.forget(a);  // shadowed: reclaimed immediately
  cq.forget(b);  // in flight: dropped on arrival
  EXPECT_EQ(cq.shadowed(), 0u);
  env.simu.run_for(seconds(1));
  EXPECT_TRUE(cq.empty());
  EXPECT_EQ(cq.stale_dropped(), 2u);
  net::Completion c;
  EXPECT_FALSE(cq.try_pop(a, c));
  EXPECT_FALSE(cq.try_pop(b, c));
}

// --- balancer failure detector ----------------------------------------------

struct LbEnv {
  static constexpr int kBackends = 3;
  sim::Simulation simu;
  net::Fabric fabric{simu, {}};
  os::Node frontend{simu, {.name = "frontend"}};
  std::vector<std::unique_ptr<os::Node>> backends;
  lb::LoadBalancer lb{lb::WeightConfig::for_scheme(Scheme::RdmaSync)};

  explicit LbEnv(Scheme scheme) {
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

TEST(HealthDetector, DeadBackendLeavesRotationAndReturns) {
  LbEnv env(Scheme::RdmaSync);
  const int victim = 1;
  const int victim_node = env.backends[victim]->id;
  std::vector<std::pair<int, lb::BackendHealth>> transitions;
  env.lb.on_health_change([&](int b, lb::BackendHealth h) {
    transitions.emplace_back(b, h);
  });
  env.fabric.simu().at(sim::TimePoint{msec(50).ns},
                       [&] { env.fabric.inject_crash(victim_node); });

  env.simu.run_for(msec(400));
  EXPECT_EQ(env.lb.health_of(victim), lb::BackendHealth::Dead);
  EXPECT_EQ(env.lb.alive_backends(), LbEnv::kBackends - 1);
  EXPECT_GE(env.lb.fetch_failures(),
            static_cast<std::uint64_t>(lb::kDeadAfter));
  for (int i = 0; i < 100; ++i) EXPECT_NE(env.lb.pick(), victim);

  env.fabric.inject_recover(victim_node);
  env.simu.run_for(msec(400));
  EXPECT_EQ(env.lb.health_of(victim), lb::BackendHealth::Healthy);
  EXPECT_EQ(env.lb.alive_backends(), LbEnv::kBackends);
  bool picked_again = false;
  for (int i = 0; i < 100 && !picked_again; ++i) {
    picked_again = env.lb.pick() == victim;
  }
  EXPECT_TRUE(picked_again);

  // Transition order: Suspect, then Dead, then (post-recovery) Healthy.
  std::vector<lb::BackendHealth> victim_states;
  for (const auto& [b, h] : transitions) {
    if (b == victim) victim_states.push_back(h);
  }
  ASSERT_EQ(victim_states.size(), 3u);
  EXPECT_EQ(victim_states[0], lb::BackendHealth::Suspect);
  EXPECT_EQ(victim_states[1], lb::BackendHealth::Dead);
  EXPECT_EQ(victim_states[2], lb::BackendHealth::Healthy);
}

TEST(HealthDetector, FrozenBackendStaysHealthyUnderRdmaSync) {
  // The detector sees only fetch outcomes — and under RDMA-Sync a frozen
  // back end still answers, so it (correctly) stays in rotation while a
  // socket-monitored cluster declares it dead.
  for (const Scheme scheme : {Scheme::RdmaSync, Scheme::SocketSync}) {
    LbEnv env(scheme);
    const int victim_node = env.backends[1]->id;
    env.fabric.simu().at(sim::TimePoint{msec(50).ns},
                         [&] { env.fabric.inject_freeze(victim_node); });
    env.simu.run_for(msec(400));
    if (scheme == Scheme::RdmaSync) {
      EXPECT_EQ(env.lb.health_of(1), lb::BackendHealth::Healthy);
      EXPECT_EQ(env.lb.fetch_failures(), 0u);
    } else {
      EXPECT_EQ(env.lb.health_of(1), lb::BackendHealth::Dead);
      EXPECT_GT(env.lb.fetch_failures(), 0u);
    }
  }
}

// --- dispatcher failover (whole-cluster) -------------------------------------

TEST(Failover, PendingRequestsAreRejectedAndRoutingResumesAfterRecovery) {
  sim::Simulation simu;
  web::ClusterConfig cfg;
  cfg.backends = 3;
  cfg.scheme = Scheme::RdmaSync;
  cfg.lb_granularity = msec(10);
  cfg.fetch_timeout = msec(5);
  cfg.fetch_retries = 1;
  cfg.retry_backoff = msec(1);
  cfg.seed = 7;
  web::ClusterTestbed bed(simu, cfg);
  web::ClientGroupConfig ccfg;
  ccfg.threads_per_node = 8;
  ccfg.think = msec(1);  // keep requests in flight at the crash instant
  web::ClientGroup& g = bed.add_clients(1, web::make_rubis_generator(), ccfg);

  fault::FaultInjector inj(bed.fabric());
  fault::FaultPlan plan;
  plan.crash_for(bed.backend(0).id, sim::TimePoint{msec(300).ns}, msec(400));
  inj.arm(plan);

  std::uint64_t fwd_at_500 = 0, fwd_at_700 = 0, fwd_at_900 = 0;
  lb::BackendHealth health_at_500 = lb::BackendHealth::Healthy;
  simu.at(sim::TimePoint{msec(500).ns}, [&] {
    fwd_at_500 = bed.dispatcher().per_backend()[0];
    health_at_500 = bed.balancer().health_of(0);
  });
  simu.at(sim::TimePoint{msec(700).ns},
          [&] { fwd_at_700 = bed.dispatcher().per_backend()[0]; });
  simu.at(sim::TimePoint{msec(900).ns},
          [&] { fwd_at_900 = bed.dispatcher().per_backend()[0]; });

  simu.run_for(seconds(2));

  // Detector fired and the dead window saw no new traffic to backend 0.
  EXPECT_EQ(health_at_500, lb::BackendHealth::Dead);
  EXPECT_EQ(fwd_at_500, fwd_at_700);
  // Pending requests were failed over as rejections the clients saw.
  EXPECT_GT(bed.dispatcher().failed_over(), 0u);
  EXPECT_EQ(g.stats().rejected(), bed.dispatcher().failed_over());
  // After recovery (t=700ms) backend 0 is re-admitted and serves again.
  EXPECT_EQ(bed.balancer().health_of(0), lb::BackendHealth::Healthy);
  EXPECT_GT(fwd_at_900, fwd_at_700);
  EXPECT_GT(g.stats().completed(), 0u);
}

// --- multi-front-end scale-out under faults ----------------------------------
//
// The owner of a shard dies mid-round: peers must notice (failed or
// stale view READs), evict it from the ring, take its shard over, and
// keep every back end's monitoring gap bounded. Front ends are fabric
// nodes 0..M-1 (they attach before the back ends).

/// Fast scale-out cadences mirroring scaleout_test.cpp: 10 ms polling
/// and gossip, so eviction (3 failed reads) matures in ~45 ms.
web::ClusterConfig scaleout_cfg(
    int frontends, int backends, sim::Duration staleness,
    monitor::MonitorStrategy strategy = monitor::MonitorStrategy::Pull) {
  web::ClusterConfig cfg;
  cfg.frontends = frontends;
  cfg.backends = backends;
  cfg.scheme = Scheme::RdmaSync;
  cfg.monitor_period = msec(10);
  cfg.lb_granularity = msec(10);
  cfg.fetch_timeout = msec(5);
  cfg.fetch_retries = 2;
  cfg.retry_backoff = msec(2);
  cfg.scaleout.gossip_period = msec(10);
  cfg.scaleout.read_timeout = msec(5);
  cfg.scaleout.staleness_bound = staleness;
  cfg.scaleout.push.strategy = strategy;
  return cfg;
}

/// The eviction contract must hold however the owners refresh their
/// shards: wire polls, pushed WRITEs, or the adaptive mix of both.
class ScaleOutFaultP
    : public ::testing::TestWithParam<monitor::MonitorStrategy> {};

TEST_P(ScaleOutFaultP, OwnerCrashEvictsAndSurvivorTakesOver) {
  sim::Simulation simu;
  web::ClusterTestbed bed(simu, scaleout_cfg(2, 8, msec(60), GetParam()));
  cluster::ScaleOutPlane& plane = *bed.plane();
  simu.at(sim::TimePoint{msec(200).ns},
          [&] { bed.fabric().inject_crash(plane.frontend(0).node().id); });
  simu.run_for(msec(700));

  // The survivor evicted the dead owner and owns the whole cluster.
  EXPECT_FALSE(plane.membership().is_member(0));
  EXPECT_TRUE(plane.membership().is_member(1));
  EXPECT_GE(plane.frontend(1).evictions(), 1u);
  EXPECT_GE(plane.frontend(1).takeovers(), 1u);
  for (int b = 0; b < 8; ++b) {
    EXPECT_EQ(plane.owner_of(b), 1);
    EXPECT_GT(plane.frontend(1).poll_counts()[static_cast<std::size_t>(b)],
              0u);
    EXPECT_EQ(plane.frontend(1).balancer().health_of(b),
              lb::BackendHealth::Healthy);
  }
  // The crashed front end may NOT counter-evict the survivor: its own
  // polls stopped landing, so the self-isolation guard silences it.
  EXPECT_EQ(plane.frontend(0).evictions(), 0u);
}

TEST(ScaleOutFault, CrashedOwnerRejoinsAndReclaimsItsShard) {
  sim::Simulation simu;
  web::ClusterTestbed bed(simu, scaleout_cfg(2, 8, msec(60)));
  cluster::ScaleOutPlane& plane = *bed.plane();
  const int fe0_shard = plane.frontend(0).owned_count();
  ASSERT_GT(fe0_shard, 0);

  fault::FaultInjector inj(bed.fabric());
  fault::FaultPlan plan;
  plan.crash_for(plane.frontend(0).node().id, sim::TimePoint{msec(200).ns},
                 msec(200));
  inj.arm(plan);
  simu.run_for(msec(800));

  // Evicted while dead, rejoined on the first successful peer read
  // after recovery, and the ring's stable hash restored its old shard.
  EXPECT_TRUE(plane.membership().is_member(0));
  EXPECT_GE(plane.frontend(1).evictions(), 1u);
  EXPECT_GE(plane.frontend(0).rejoins(), 1u);
  EXPECT_EQ(plane.frontend(0).owned_count(), fe0_shard);
  for (int m = 0; m < 2; ++m) {
    for (int b = 0; b < 8; ++b) {
      EXPECT_EQ(plane.frontend(m).balancer().health_of(b),
                lb::BackendHealth::Healthy)
          << "frontend " << m << " backend " << b;
    }
  }
}

TEST(ScaleOutFault, FrozenFrontendKeepsMonitoringOverRdma) {
  // The paper's claim, applied to the plane itself: one-sided ops need
  // no host CPU at either end, so a FROZEN front end (inbound socket
  // packets parked at ingress) keeps polling its shard, keeps serving
  // its view MR, and keeps reading peers — nothing degrades, nobody is
  // evicted. Contrast ScaleOutFaultP.OwnerCrash*: death is a crash.
  sim::Simulation simu;
  web::ClusterTestbed bed(simu, scaleout_cfg(2, 8, msec(60)));
  cluster::ScaleOutPlane& plane = *bed.plane();
  simu.run_for(msec(200));
  const std::vector<std::uint64_t> before = plane.frontend(0).poll_counts();
  bed.fabric().inject_freeze(plane.frontend(0).node().id);
  simu.run_for(msec(200));
  bed.fabric().inject_unfreeze(plane.frontend(0).node().id);
  const std::vector<std::uint64_t> during = plane.frontend(0).poll_counts();
  simu.run_for(msec(100));

  EXPECT_TRUE(plane.membership().is_member(0));
  EXPECT_TRUE(plane.membership().is_member(1));
  EXPECT_EQ(plane.frontend(0).evictions() + plane.frontend(1).evictions(),
            0u);
  for (int b = 0; b < 8; ++b) {
    const std::size_t i = static_cast<std::size_t>(b);
    if (plane.owner_of(b) == 0) {
      // ~20 poll rounds fit the freeze window; all kept landing.
      EXPECT_GE(during[i], before[i] + 10) << "backend " << b;
    }
    for (int m = 0; m < 2; ++m) {
      EXPECT_EQ(plane.frontend(m).balancer().health_of(b),
                lb::BackendHealth::Healthy)
          << "frontend " << m << " backend " << b;
    }
  }
}

TEST_P(ScaleOutFaultP, StalledPollerIsEvictedOnStaleView) {
  // A hung monitoring PROCESS on a live host: the NIC keeps DMA-serving
  // the view MR (peer READs succeed), but published_at stops advancing.
  // Peers must detect staleness — first per back end (note_stale
  // strikes from the sweep), then of the publisher itself (stale-view
  // fail streak -> eviction) — and take the shard over.
  sim::Simulation simu;
  web::ClusterTestbed bed(simu, scaleout_cfg(2, 8, msec(60), GetParam()));
  cluster::ScaleOutPlane& plane = *bed.plane();
  ASSERT_GT(plane.frontend(0).owned_count(), 0);
  simu.run_for(msec(200));
  plane.frontend(0).stall();
  const std::uint64_t stalled_round = plane.frontend(0).view().round;
  simu.run_for(msec(400));

  // The view really did stop being published...
  EXPECT_EQ(plane.frontend(0).view().round, stalled_round);
  // ...its reads kept succeeding (one-sided, no publisher CPU)...
  EXPECT_GT(plane.frontend(1).gossip_reads_ok(), 0u);
  // ...and the survivor detected the staleness and took over.
  EXPECT_GE(plane.frontend(1).stale_marks(), 1u);
  EXPECT_GE(plane.frontend(1).evictions(), 1u);
  EXPECT_FALSE(plane.membership().is_member(0));
  bool saw_stale_view = false;
  for (const std::string& line : plane.membership().log()) {
    if (line.find("stale view") != std::string::npos) saw_stale_view = true;
  }
  EXPECT_TRUE(saw_stale_view);
  for (int b = 0; b < 8; ++b) {
    EXPECT_EQ(plane.owner_of(b), 1);
    EXPECT_EQ(plane.frontend(1).balancer().health_of(b),
              lb::BackendHealth::Healthy);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllStrategies, ScaleOutFaultP,
    ::testing::Values(monitor::MonitorStrategy::Pull,
                      monitor::MonitorStrategy::Push,
                      monitor::MonitorStrategy::Adaptive),
    [](const auto& info) {
      return std::string(monitor::to_string(info.param));
    });

TEST(ScaleOutFault, RandomFrontendCrashPlanKeepsEveryBackendMonitored) {
  // The headline guarantee under a randomized fault plan: staggered
  // random crash windows keep killing owners mid-round, and still no
  // back end's freshest successful sample (across ALL front ends) ever
  // ages past the staleness bound. Detection (3 failed 10 ms gossip
  // reads + retry completions) plus the takeover poll round needs
  // ~65 ms worst-case, inside the 80 ms bound used here.
  constexpr int kFrontends = 3;
  constexpr int kBackends = 12;
  const sim::Duration staleness = msec(80);
  sim::Simulation simu;
  web::ClusterTestbed bed(simu, scaleout_cfg(kFrontends, kBackends,
                                             staleness));
  cluster::ScaleOutPlane& plane = *bed.plane();

  // Random victims and offsets, staggered so windows never overlap (a
  // second simultaneous front-end death is indistinguishable from a
  // partition at M=3 and out of scope for the bound).
  sim::Rng rng(2024);
  fault::FaultPlan plan;
  constexpr int kWindows = 4;
  for (int k = 0; k < kWindows; ++k) {
    const int victim = static_cast<int>(rng.uniform_int(0, kFrontends - 1));
    const auto start = msec(250 + 450 * k +
                            static_cast<std::int64_t>(rng.uniform(0.0, 100.0)));
    const auto dur =
        msec(100 + static_cast<std::int64_t>(rng.uniform(0.0, 100.0)));
    plan.crash_for(victim, sim::TimePoint{start.ns}, dur);
  }
  fault::FaultInjector inj(bed.fabric());
  inj.arm(plan);

  // Probe from a neutral (never-faulted) back-end node: every 5 ms,
  // the age of each back end's freshest OK sample across front ends.
  std::int64_t worst_gap_ns = 0;
  bed.backend(0).spawn("probe", [&](SimThread&) -> Program {
    for (;;) {
      co_await os::SleepFor{msec(5)};
      const sim::TimePoint now = simu.now();
      if (now.ns < msec(150).ns) continue;  // startup: first polls land
      for (int b = 0; b < kBackends; ++b) {
        std::int64_t newest = 0;
        for (int m = 0; m < kFrontends; ++m) {
          const auto& s = plane.frontend(m).balancer().last_sample(b);
          if (s.ok) newest = std::max(newest, s.retrieved_at.ns);
        }
        worst_gap_ns = std::max(worst_gap_ns, now.ns - newest);
      }
    }
  });
  simu.run_for(msec(2200));

  EXPECT_LE(worst_gap_ns, staleness.ns)
      << "a backend went unmonitored past the staleness bound";
  // Every crash was detected (ring rebalanced) and every victim healed
  // back in: full membership, every back end owned and freshly polled.
  std::uint64_t evictions = 0, takeovers = 0, rejoins = 0;
  for (int m = 0; m < kFrontends; ++m) {
    evictions += plane.frontend(m).evictions();
    takeovers += plane.frontend(m).takeovers();
    rejoins += plane.frontend(m).rejoins();
    EXPECT_TRUE(plane.membership().is_member(m));
  }
  EXPECT_GE(evictions, 1u);
  EXPECT_GE(takeovers, 1u);
  EXPECT_GE(rejoins, 1u);
  for (int b = 0; b < kBackends; ++b) {
    const int owner = plane.owner_of(b);
    ASSERT_GE(owner, 0);
    EXPECT_EQ(plane.frontend(owner).balancer().health_of(b),
              lb::BackendHealth::Healthy);
  }
}

// --- tenant storms composed with faults --------------------------------------
//
// Noisy-neighbor pressure is a fault-plane citizen: storms schedule
// through the same FaultPlan as crashes and lossy links, so these
// scenarios check the COMPOSITIONS — an aggressor that dies mid-storm,
// a link fault hiding inside congestion, and cache-thrash attribution.

/// A small monitored cluster with a dedicated aggressor node storming
/// the backends. Node ids: frontend 0, backends 1..kBackends, aggressor
/// kBackends+1 — so fault plans can target backends and the aggressor
/// independently.
struct TenantLbEnv {
  static constexpr int kBackends = 3;
  static constexpr net::TenantId kMonTenant = 1;
  static constexpr net::TenantId kHogTenant = 9;

  sim::Simulation simu;
  net::Fabric fabric;
  os::Node frontend{simu, {.name = "frontend"}};
  std::vector<std::unique_ptr<os::Node>> backends;
  std::unique_ptr<os::Node> aggressor;
  lb::LoadBalancer lb{lb::WeightConfig::for_scheme(Scheme::RdmaSync)};
  std::unique_ptr<workload::TenantStorm> storm;
  fault::FaultInjector injector;
  /// Per-backend health-ladder log, by backend index.
  std::vector<std::vector<std::string>> ladders;

  TenantLbEnv(net::FabricConfig fcfg, workload::TenantStormConfig scfg)
      : fabric(simu, fcfg), injector(fabric) {
    fabric.attach(frontend);
    ladders.resize(kBackends);
    MonitorConfig mcfg = fast_cfg(Scheme::RdmaSync);
    mcfg.tenant = kMonTenant;
    std::vector<workload::StormTarget> targets;
    for (int i = 0; i < kBackends; ++i) {
      os::NodeConfig ncfg;
      ncfg.name = "backend" + std::to_string(i);
      backends.push_back(std::make_unique<os::Node>(simu, ncfg));
      fabric.attach(*backends.back());
      lb.add_backend(std::make_unique<monitor::MonitorChannel>(
          fabric, frontend, *backends.back(), mcfg));
      targets.push_back(
          {backends.back()->id,
           fabric.nic(backends.back()->id)
               .register_mr({}, nullptr, /*remote_writable=*/false,
                            kHogTenant)});
    }
    aggressor = std::make_unique<os::Node>(simu, os::NodeConfig{.name = "agg"});
    fabric.attach(*aggressor);
    storm = std::make_unique<workload::TenantStorm>(fabric, *aggressor,
                                                    std::move(targets), scfg);
    workload::drive_storms(injector, {storm.get()});
    lb.on_health_change([this](int b, lb::BackendHealth h) {
      ladders[static_cast<std::size_t>(b)].push_back(lb::to_string(h));
    });
    lb.start(frontend, msec(10));
  }
};

TEST(TenantFault, AggressorCrashMidStormLetsVictimsRecover) {
  // No QoS: the storm legitimately buries the backends (fetches fail,
  // the detector demotes them) — then the AGGRESSOR crashes. Standing
  // queues drain at the victims' service rate and every backend must
  // climb back to Healthy; the dead aggressor's still-running posters
  // error-complete against their own dead NIC.
  workload::TenantStormConfig scfg =
      workload::TenantStormConfig::bandwidth_hog();
  scfg.tenant = TenantLbEnv::kHogTenant;
  scfg.max_outstanding = 256;
  scfg.post_period = usec(1);
  TenantLbEnv env({}, scfg);
  fault::FaultPlan plan;
  plan.storm_for(0, sim::TimePoint{msec(100).ns}, seconds(5));
  plan.crash_for(env.aggressor->id, sim::TimePoint{msec(500).ns}, seconds(5));
  env.injector.arm(plan);
  env.simu.run_for(seconds(2));

  // The storm really hurt: fetch failures and demotions happened.
  EXPECT_GT(env.lb.fetch_failures(), 0u);
  std::size_t demotions = 0;
  for (const auto& seq : env.ladders) demotions += seq.size();
  EXPECT_GT(demotions, 0u) << "storm never demoted anyone";
  // The crash really hit the aggressor: its posts error-complete.
  EXPECT_GT(env.storm->failed(), 0u);
  // And the victims recovered once the pressure source died.
  EXPECT_EQ(env.lb.alive_backends(), TenantLbEnv::kBackends);
  for (int i = 0; i < TenantLbEnv::kBackends; ++i) {
    EXPECT_EQ(env.lb.health_of(i), lb::BackendHealth::Healthy)
        << "backend " << i;
    ASSERT_FALSE(env.ladders[static_cast<std::size_t>(i)].empty());
    EXPECT_EQ(env.ladders[static_cast<std::size_t>(i)].back(), "healthy");
  }
}

TEST(TenantFault, LossyLinkUnderThrottledStormIsolatesTheFaultyBackend) {
  // QoS on: the rate-capped storm is background noise, and a total-loss
  // window on ONE backend's link must demote exactly that backend —
  // congestion may not smear the fault across its neighbours.
  net::FabricConfig fcfg;
  fcfg.qos.enabled = true;
  net::TenantQosSpec mon;
  mon.tenant = TenantLbEnv::kMonTenant;
  mon.weight = 8.0;
  fcfg.qos.tenants.push_back(mon);
  net::TenantQosSpec hog;
  hog.tenant = TenantLbEnv::kHogTenant;
  hog.weight = 1.0;
  hog.rate_bps = 50e6;
  hog.burst_bytes = (1u << 20) + 64;
  hog.queue_cap = 512;
  fcfg.qos.tenants.push_back(hog);

  workload::TenantStormConfig scfg =
      workload::TenantStormConfig::bandwidth_hog();
  scfg.tenant = TenantLbEnv::kHogTenant;
  scfg.max_outstanding = 256;
  scfg.post_period = usec(1);
  TenantLbEnv env(fcfg, scfg);
  const int victim = 1;
  fault::FaultPlan plan;
  plan.storm_for(0, sim::TimePoint{msec(100).ns}, seconds(3));
  plan.degrade_link_for(env.backends[victim]->id,
                        sim::TimePoint{msec(300).ns}, msec(400), msec(0),
                        /*loss=*/1.0);
  env.injector.arm(plan);
  env.simu.run_for(msec(1500));

  const auto& victim_seq = env.ladders[static_cast<std::size_t>(victim)];
  ASSERT_FALSE(victim_seq.empty()) << "blackout left no trace";
  EXPECT_EQ(victim_seq.front(), "suspect");
  EXPECT_EQ(victim_seq.back(), "healthy");  // recovered after restore
  for (int i = 0; i < TenantLbEnv::kBackends; ++i) {
    if (i == victim) continue;
    EXPECT_TRUE(env.ladders[static_cast<std::size_t>(i)].empty())
        << "congestion smeared onto backend " << i;
  }
  EXPECT_GT(env.storm->completed(), 0u);  // the noise was real
}

TEST(TenantFault, MrThrashEvictionsAreAttributedPerTenant) {
  // An MR-churning tenant on a bounded NIC context cache displaces the
  // monitoring plane's entries at the victim NIC. The cache must charge
  // the evictions to the EVICTED entry's tenant, so operators can see
  // whose state a thrasher destroyed — and monitoring itself must keep
  // succeeding (evictions cost reload latency, not correctness).
  sim::Simulation simu;
  net::FabricConfig fcfg;
  fcfg.nic_ctx_cache_entries = 32;
  net::Fabric fabric{simu, fcfg};
  os::Node frontend{simu, {.name = "frontend"}};
  os::Node backend{simu, {.name = "backend"}};
  os::Node aggressor{simu, {.name = "agg"}};
  fabric.attach(frontend);
  fabric.attach(backend);
  fabric.attach(aggressor);
  MonitorConfig mcfg = fast_cfg(Scheme::RdmaSync);
  mcfg.tenant = 1;
  monitor::MonitorChannel chan(fabric, frontend, backend, mcfg);

  workload::TenantStormConfig scfg = workload::TenantStormConfig::mr_thrash();
  scfg.tenant = 9;
  workload::TenantStorm storm(fabric, aggressor,
                              {workload::StormTarget{backend.id, {}}}, scfg);
  int ok_fetches = 0;
  frontend.spawn("mon", [&](SimThread& self) -> Program {
    for (;;) {
      co_await os::SleepFor{msec(5)};
      MonitorSample s;
      co_await chan.frontend().fetch(self, s);
      if (s.ok) ++ok_fetches;
    }
  });
  simu.at(sim::TimePoint{msec(50).ns}, [&] { storm.start(); });
  simu.run_for(msec(500));

  const net::Nic& bnic = fabric.nic(backend.id);
  EXPECT_GT(bnic.qpc_evictions_for(1), 0u)
      << "victim evictions not attributed to the monitoring tenant";
  EXPECT_GT(bnic.qpc_evictions_for(9), 0u)
      << "the thrasher's own churn should self-evict past the cache";
  EXPECT_GT(storm.posted(), 0u);
  EXPECT_GT(ok_fetches, 50) << "monitoring stopped succeeding under thrash";
}

// --- determinism -------------------------------------------------------------

TEST(Determinism, RetryScheduleReplaysExactly) {
  auto run = [] {
    Env env;
    monitor::MonitorChannel chan(env.fabric, env.frontend, env.backend,
                                 fast_cfg(Scheme::SocketSync));
    env.fabric.inject_link_fault(env.backend.id, usec(500), 0.5);
    std::string trace;
    env.frontend.spawn("mon", [&](SimThread& self) -> Program {
      for (int i = 0; i < 20; ++i) {
        co_await os::SleepFor{msec(10)};
        MonitorSample s;
        co_await chan.frontend().fetch(self, s);
        trace += sim::to_string(s.retrieved_at);
        trace += s.ok ? " ok " : " fail ";
        trace += std::to_string(s.attempts);
        trace += '\n';
      }
    });
    env.simu.run_for(seconds(2));
    return trace;
  };
  const std::string first = run();
  EXPECT_EQ(first, run());
  EXPECT_NE(first.find("fail"), std::string::npos);  // the loss actually bit
}

TEST(Determinism, ClusterRunWithRandomFaultPlanReplaysExactly) {
  auto run = [] {
    sim::Simulation simu;
    web::ClusterConfig cfg;
    cfg.backends = 3;
    cfg.scheme = Scheme::SocketSync;
    cfg.fetch_timeout = msec(10);
    cfg.fetch_retries = 1;
    cfg.retry_backoff = msec(2);
    cfg.seed = 4242;
    web::ClusterTestbed bed(simu, cfg);
    web::ClientGroupConfig ccfg;
    ccfg.threads_per_node = 4;
    web::ClientGroup& g =
        bed.add_clients(1, web::make_rubis_generator(), ccfg);

    sim::Rng fault_rng(99);
    fault::FaultPlan plan =
        fault::FaultPlan::random(fault_rng, bed.fabric().num_nodes(),
                                 seconds(2), /*pairs=*/4);
    fault::FaultInjector inj(bed.fabric());
    inj.arm(plan);
    simu.run_for(seconds(2));

    std::string out = plan.describe();
    out += "completed=" + std::to_string(g.stats().completed());
    out += " rejected=" + std::to_string(g.stats().rejected());
    out += " mean_ns=" + std::to_string(g.stats().overall().mean());
    out += " forwarded=" + std::to_string(bed.dispatcher().forwarded());
    out += " failed_over=" + std::to_string(bed.dispatcher().failed_over());
    out += " fetch_failures=" + std::to_string(bed.balancer().fetch_failures());
    for (int b = 0; b < cfg.backends; ++b) {
      out += ' ';
      out += lb::to_string(bed.balancer().health_of(b));
    }
    return out;
  };
  const std::string first = run();
  const std::string second = run();
  EXPECT_EQ(first, second);
}

}  // namespace
}  // namespace rdmamon
