// Cross-scheme behavioral contract: pull, push and adaptive monitoring
// are different TRANSPORTS for the same information, so — fed the same
// load trace — they must converge to the same view, respect the same
// staleness bound, and walk the Healthy/Suspect/Dead ladder through the
// same per-backend transitions under the same fault schedule. Anything
// scheme-specific (bytes on the wire, WHEN a transition fires) is
// explicitly out of contract; WHAT the dispatcher ends up believing is
// in it.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "fault/fault.hpp"
#include "lb/balancer.hpp"
#include "monitor/adaptive.hpp"
#include "monitor/inbox.hpp"
#include "monitor/monitor.hpp"
#include "net/fabric.hpp"
#include "os/node.hpp"
#include "sim/random.hpp"
#include "sim/simulation.hpp"
#include "workload/tenantstorm.hpp"

namespace rdmamon {
namespace {

using monitor::MonitorStrategy;
using monitor::Scheme;
using sim::msec;
using sim::seconds;

/// One cluster under one refresh strategy. The seed drives only the LOAD
/// trace (toggler phase offsets), so two environments with the same seed
/// and different strategies see the same ground truth.
struct ConformanceEnv {
  sim::Simulation simu;
  net::Fabric fabric;
  os::Node frontend{simu, {.name = "fe"}};
  std::vector<std::unique_ptr<os::Node>> backends;
  lb::LoadBalancer lb{lb::WeightConfig::for_scheme(Scheme::RdmaSync)};
  std::unique_ptr<monitor::PushInbox> inbox;
  std::vector<std::unique_ptr<monitor::PushPublisher>> pubs;
  /// Per-backend health transition log ("suspect", "dead", ...). Indexed
  /// by backend so cross-backend interleaving (a timing artifact) cannot
  /// fail the comparison.
  std::vector<std::vector<std::string>> transitions;

  /// `fcfg` lets the tenant-pressure axis enable fabric QoS; the default
  /// keeps the historical fabric exactly.
  ConformanceEnv(MonitorStrategy strategy, int n, std::uint64_t seed,
                 sim::Duration toggle_phase = seconds(2),
                 net::FabricConfig fcfg = {})
      : fabric{simu, fcfg} {
    fabric.attach(frontend);
    transitions.resize(static_cast<std::size_t>(n));
    sim::Rng rng(seed);
    monitor::MonitorConfig mcfg;
    mcfg.scheme = Scheme::RdmaSync;
    // The monitoring plane is tenant 1 everywhere: inert without QoS,
    // a protected class with it.
    mcfg.tenant = 1;
    for (int i = 0; i < n; ++i) {
      os::NodeConfig cfg;
      cfg.name = "be" + std::to_string(i);
      backends.push_back(std::make_unique<os::Node>(simu, cfg));
      fabric.attach(*backends.back());
      lb.add_backend(std::make_unique<monitor::MonitorChannel>(
          fabric, frontend, *backends.back(), mcfg));
      const sim::Duration offset{rng.uniform_int(0, 2 * toggle_phase.ns)};
      backends.back()->spawn(
          "toggler", [toggle_phase, offset](os::SimThread&) -> os::Program {
            co_await os::SleepFor{offset};
            for (;;) {
              co_await os::Compute{toggle_phase};
              co_await os::SleepFor{toggle_phase};
            }
          });
    }
    lb.on_health_change([this](int b, lb::BackendHealth h) {
      transitions[static_cast<std::size_t>(b)].push_back(lb::to_string(h));
    });
    if (strategy != MonitorStrategy::Pull) {
      inbox = std::make_unique<monitor::PushInbox>(fabric, frontend, n);
      lb.enable_push(*inbox, {strategy});
      for (int i = 0; i < n; ++i) {
        pubs.push_back(std::make_unique<monitor::PushPublisher>(
            fabric, *backends[static_cast<std::size_t>(i)]));
        pubs.back()->target(*inbox, i);
      }
      for (auto& p : pubs) p->start();
    }
    lb.start(frontend, msec(50));
  }

  double truth_index(int i) const {
    return lb::load_index(
        backends[static_cast<std::size_t>(i)]->procfs().snapshot(),
        lb::WeightConfig::for_scheme(Scheme::RdmaSync));
  }
  double view_index(int i) const {
    return lb::load_index(lb.last_sample(i).info,
                          lb::WeightConfig::for_scheme(Scheme::RdmaSync));
  }
};

constexpr MonitorStrategy kAllStrategies[] = {
    MonitorStrategy::Pull, MonitorStrategy::Push, MonitorStrategy::Adaptive};

// --- contract 1: same trace in, same converged view out ----------------------

class ConformanceP : public ::testing::TestWithParam<MonitorStrategy> {};

TEST_P(ConformanceP, ConvergedViewMatchesGroundTruth) {
  ConformanceEnv env(GetParam(), 4, /*seed=*/7);
  env.simu.run_for(seconds(3));
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(env.lb.last_sample(i).ok) << "backend " << i;
    // The toggle phase is 2s and the slowest refresh path (heartbeat +
    // scan) is ~105ms, so away from a flip edge view and truth agree to
    // well under one threshold step. 0.15 gives flip-edge slack.
    EXPECT_NEAR(env.view_index(i), env.truth_index(i), 0.15)
        << "backend " << i;
  }
}

TEST_P(ConformanceP, StalenessBoundRespected) {
  ConformanceEnv env(GetParam(), 4, /*seed=*/11);
  // Probe between 1s and 3s, every 100ms: no sample may be older than the
  // worst refresh path of any scheme (pull round 50ms, push heartbeat
  // 100ms + scan 5ms) plus scheduling slack.
  const sim::Duration bound = msec(250);
  for (int k = 10; k <= 30; ++k) {
    env.simu.at(sim::TimePoint{} + msec(100) * k, [&env, bound] {
      for (int i = 0; i < 4; ++i) {
        const monitor::MonitorSample& s = env.lb.last_sample(i);
        ASSERT_TRUE(s.ok) << "backend " << i;
        EXPECT_LE((env.simu.now() - s.retrieved_at).ns, bound.ns)
            << "backend " << i;
      }
    });
  }
  env.simu.run_for(seconds(3) + msec(100));
}

TEST_P(ConformanceP, QuietClusterHasNoHealthTransitions) {
  ConformanceEnv env(GetParam(), 4, /*seed=*/3);
  env.simu.run_for(seconds(4));
  for (const auto& seq : env.transitions) {
    EXPECT_TRUE(seq.empty()) << "spurious transitions under "
                             << monitor::to_string(GetParam());
  }
}

INSTANTIATE_TEST_SUITE_P(AllStrategies, ConformanceP,
                         ::testing::ValuesIn(kAllStrategies),
                         [](const auto& info) {
                           return std::string(monitor::to_string(info.param));
                         });

// --- contract 2: identical ladder walks under the fault matrix ---------------

/// Runs one strategy under one fault plan and returns the per-backend
/// transition sequences.
std::vector<std::vector<std::string>> run_faulted(
    MonitorStrategy strategy, int n, const fault::FaultPlan& plan,
    sim::Duration horizon, std::uint64_t seed) {
  ConformanceEnv env(strategy, n, seed);
  fault::FaultInjector injector(env.fabric);
  injector.arm(plan);
  env.simu.run_for(horizon);
  return env.transitions;
}

/// Asserts identical per-backend ladders across the three strategies and
/// returns the (agreed) pull ladders so callers can assert non-vacuity —
/// an all-empty log would make the equality trivially true.
std::vector<std::vector<std::string>> expect_identical_ladders(
    int n, const fault::FaultPlan& plan, sim::Duration horizon,
    std::uint64_t seed) {
  const auto pull =
      run_faulted(MonitorStrategy::Pull, n, plan, horizon, seed);
  const auto push =
      run_faulted(MonitorStrategy::Push, n, plan, horizon, seed);
  const auto adaptive =
      run_faulted(MonitorStrategy::Adaptive, n, plan, horizon, seed);
  for (int i = 0; i < n; ++i) {
    const auto idx = static_cast<std::size_t>(i);
    EXPECT_EQ(pull[idx], push[idx]) << "pull vs push, backend " << i;
    EXPECT_EQ(pull[idx], adaptive[idx]) << "pull vs adaptive, backend " << i;
  }
  return pull;
}

TEST(ConformanceFaults, BackendCrashWalksSameLadder) {
  // Crash long enough for Suspect AND Dead under every scheme, then
  // recover: expect suspect, dead, healthy — identically everywhere.
  // While crashed, the publisher keeps being scheduled and its WRITEs
  // error-complete at the dead initiator NIC (the crashed-initiator path).
  fault::FaultPlan plan;
  plan.crash_for(/*node=*/1, sim::TimePoint{} + seconds(1), seconds(2));
  const auto ladders = expect_identical_ladders(4, plan, seconds(6),
                                                /*seed=*/21);
  const std::vector<std::string> want = {"suspect", "dead", "healthy"};
  EXPECT_EQ(ladders[0], want);  // node 1 is backend index 0
  for (std::size_t i = 1; i < 4; ++i) {
    EXPECT_TRUE(ladders[i].empty()) << "collateral transitions, backend " << i;
  }
}

TEST(ConformanceFaults, KernelFreezeIsInvisibleToOneSidedMonitoring) {
  // The paper's core claim: a hung kernel with a live NIC keeps serving
  // one-sided READs, and (in the push scheme) its report threads keep
  // running — no scheme may raise ANY transition.
  fault::FaultPlan plan;
  plan.freeze_for(/*node=*/2, sim::TimePoint{} + seconds(1), seconds(1));
  const sim::Duration horizon = seconds(4);
  for (const MonitorStrategy s : kAllStrategies) {
    const auto t = run_faulted(s, 4, plan, horizon, /*seed=*/21);
    for (const auto& seq : t) {
      EXPECT_TRUE(seq.empty())
          << "freeze visible under " << monitor::to_string(s);
    }
  }
}

TEST(ConformanceFaults, LinkBlackoutWalksSameLadder) {
  // Total loss on one back end's access link: pull fetches retry out,
  // pushes vanish (silence -> verification READs, which also retry out).
  // Same ladder either way, and recovery after restore.
  fault::FaultPlan plan;
  plan.degrade_link_for(/*node=*/1, sim::TimePoint{} + seconds(1),
                        seconds(2), msec(0), /*loss=*/1.0);
  const auto ladders = expect_identical_ladders(4, plan, seconds(6),
                                                /*seed=*/21);
  ASSERT_FALSE(ladders[0].empty()) << "blackout produced no transitions";
  EXPECT_EQ(ladders[0].front(), "suspect");
  EXPECT_EQ(ladders[0].back(), "healthy");  // recovered after restore
}

TEST(ConformanceFaults, RandomFaultMatrixWalksSameLadder) {
  // Seeded random crash/freeze/blackout windows against random back ends
  // (never the front end — a front-end fault is a different contract).
  const int n = 5;
  const sim::Duration horizon = seconds(8);
  for (const std::uint64_t seed : {101ull, 202ull, 303ull}) {
    sim::Rng rng(seed);
    fault::FaultPlan plan;
    for (int k = 0; k < 3; ++k) {
      const int node = 1 + static_cast<int>(rng.uniform_int(0, n - 1));
      const auto start =
          sim::TimePoint{} + msec(500 + 100 * rng.uniform_int(0, 40));
      const auto window = msec(600 + 100 * rng.uniform_int(0, 14));
      switch (rng.uniform_int(0, 2)) {
        case 0: plan.crash_for(node, start, window); break;
        case 1: plan.freeze_for(node, start, window); break;
        default:
          plan.degrade_link_for(node, start, window, msec(0), 1.0);
      }
    }
    expect_identical_ladders(n, plan, horizon, seed);
  }
}

// --- contract 3: the staleness contract under tenant pressure ----------------
//
// A noisy neighbor hammering the backends' NICs must not break the
// monitoring plane's staleness bound WHEN fabric QoS protects it — and,
// as the companion negative, the same storm with QoS off must visibly
// breach the bound (otherwise the positive test is vacuous).

constexpr net::TenantId kHogTenant = 9;

/// QoS policy for the pressure axis: the monitoring plane (tenant 1) is
/// a heavily weighted protected class; the hog gets weight 1 plus a
/// 50 MB/s token-bucket cap. The bucket is one op-footprint deep so the
/// cap really binds per op.
net::FabricConfig qos_fabric() {
  net::FabricConfig fcfg;
  fcfg.qos.enabled = true;
  net::TenantQosSpec mon;
  mon.tenant = 1;
  mon.weight = 8.0;
  fcfg.qos.tenants.push_back(mon);
  net::TenantQosSpec hog;
  hog.tenant = kHogTenant;
  hog.weight = 1.0;
  hog.rate_bps = 50e6;
  hog.burst_bytes = (1u << 20) + 64;
  hog.queue_cap = 512;
  fcfg.qos.tenants.push_back(hog);
  return fcfg;
}

/// A bandwidth-hog aggressor on its own node, READing 1 MiB regions on
/// every backend. One-sided ops serialize at the TARGET's DMA engine, so
/// the standing window buries exactly the queues the monitor's tiny
/// READs must cross. Driven through FaultPlan storm events so tests
/// schedule pressure windows alongside crash/loss faults declaratively.
struct StormRig {
  os::Node aggressor;
  fault::FaultInjector injector;
  std::vector<workload::StormTarget> targets;
  std::unique_ptr<workload::TenantStorm> storm;

  StormRig(ConformanceEnv& env, std::size_t max_outstanding)
      : aggressor(env.simu, {.name = "aggressor"}), injector(env.fabric) {
    env.fabric.attach(aggressor);
    workload::TenantStormConfig scfg =
        workload::TenantStormConfig::bandwidth_hog();
    scfg.tenant = kHogTenant;
    scfg.max_outstanding = max_outstanding;
    scfg.post_period = sim::usec(1);
    for (const auto& b : env.backends) {
      targets.push_back({b->id, env.fabric.nic(b->id).register_mr(
                                    {}, nullptr, /*remote_writable=*/false,
                                    kHogTenant)});
    }
    storm = std::make_unique<workload::TenantStorm>(env.fabric, aggressor,
                                                    targets, scfg);
    workload::drive_storms(injector, {storm.get()});
  }
};

class TenantPressureP : public ::testing::TestWithParam<MonitorStrategy> {};

TEST_P(TenantPressureP, StalenessBoundHoldsUnderStormWithQos) {
  // Same probe as StalenessBoundRespected, but with a hog storming the
  // backends from 1s to 3s. The hog's rate cap (applied at ITS initiator
  // NIC) keeps the victims' DMA queues shallow, so every scheme must
  // still meet the quiet-cluster bound.
  ConformanceEnv env(GetParam(), 4, /*seed=*/11, seconds(2), qos_fabric());
  StormRig rig(env, /*max_outstanding=*/256);
  fault::FaultPlan plan;
  plan.storm_for(0, sim::TimePoint{} + seconds(1), seconds(2));
  rig.injector.arm(plan);
  const sim::Duration bound = msec(250);
  for (int k = 12; k <= 30; ++k) {
    env.simu.at(sim::TimePoint{} + msec(100) * k, [&env, bound] {
      for (int i = 0; i < 4; ++i) {
        const monitor::MonitorSample& s = env.lb.last_sample(i);
        ASSERT_TRUE(s.ok) << "backend " << i;
        EXPECT_LE((env.simu.now() - s.retrieved_at).ns, bound.ns)
            << "backend " << i;
      }
    });
  }
  env.simu.run_for(seconds(3) + msec(100));
  // Non-vacuity: the hog really ran and really moved bytes.
  EXPECT_GT(rig.storm->completed(), 0u);
  // And nobody walked the health ladder over mere congestion.
  for (const auto& seq : env.transitions) EXPECT_TRUE(seq.empty());
}

TEST(ConformanceTenantPressure, PullStalenessBreachesWithoutQos) {
  // Companion negative: the identical storm with a deeper window and NO
  // arbiter buries the backends' DMA engines (~380 ops x ~0.85 ms per
  // backend is a ~320 ms standing queue), so monitor READs blow their
  // 200 ms fetch deadline and the freshest sample ages past the bound.
  ConformanceEnv env(MonitorStrategy::Pull, 4, /*seed=*/11);
  StormRig rig(env, /*max_outstanding=*/1536);
  fault::FaultPlan plan;
  plan.storm_for(0, sim::TimePoint{} + seconds(1), seconds(2));
  rig.injector.arm(plan);
  std::int64_t worst_age_ns = 0;
  for (int k = 15; k <= 30; ++k) {
    env.simu.at(sim::TimePoint{} + msec(100) * k, [&env, &worst_age_ns] {
      for (int i = 0; i < 4; ++i) {
        const monitor::MonitorSample& s = env.lb.last_sample(i);
        if (!s.ok) continue;
        worst_age_ns =
            std::max(worst_age_ns, (env.simu.now() - s.retrieved_at).ns);
      }
    });
  }
  env.simu.run_for(seconds(3) + msec(100));
  EXPECT_GT(worst_age_ns, msec(250).ns)
      << "unthrottled storm failed to breach the staleness bound";
  EXPECT_GT(env.lb.fetch_failures(), 0u);
  EXPECT_GT(rig.storm->completed(), 0u);
}

INSTANTIATE_TEST_SUITE_P(AllStrategies, TenantPressureP,
                         ::testing::ValuesIn(kAllStrategies),
                         [](const auto& info) {
                           return std::string(monitor::to_string(info.param));
                         });

// --- contract 4: ladders stay identical when storms and faults compose -------

/// run_faulted, but under QoS and with a rate-capped hog storming the
/// backends for the whole fault window.
std::vector<std::vector<std::string>> run_storm_faulted(
    MonitorStrategy strategy, int n, const fault::FaultPlan& plan,
    sim::Duration horizon, std::uint64_t seed) {
  ConformanceEnv env(strategy, n, seed, seconds(2), qos_fabric());
  StormRig rig(env, /*max_outstanding=*/256);
  rig.injector.arm(plan);
  env.simu.run_for(horizon);
  return env.transitions;
}

TEST(ConformanceTenantPressure, LaddersIdenticalUnderStormAndFaultMatrix) {
  // Seeded random crash/freeze/blackout windows AGAINST a standing
  // (throttled) storm: congestion must not make the schemes disagree
  // about what the faults did.
  const int n = 4;
  const sim::Duration horizon = seconds(6);
  std::size_t total_transitions = 0;
  for (const std::uint64_t seed : {404ull, 505ull}) {
    sim::Rng rng(seed);
    fault::FaultPlan plan;
    plan.storm_for(0, sim::TimePoint{} + msec(500), seconds(4));
    for (int k = 0; k < 2; ++k) {
      const int node = 1 + static_cast<int>(rng.uniform_int(0, n - 1));
      const auto start =
          sim::TimePoint{} + msec(800 + 100 * rng.uniform_int(0, 20));
      const auto window = msec(600 + 100 * rng.uniform_int(0, 14));
      switch (rng.uniform_int(0, 2)) {
        case 0: plan.crash_for(node, start, window); break;
        case 1: plan.freeze_for(node, start, window); break;
        default:
          plan.degrade_link_for(node, start, window, msec(0), 1.0);
      }
    }
    const auto pull =
        run_storm_faulted(MonitorStrategy::Pull, n, plan, horizon, seed);
    const auto push =
        run_storm_faulted(MonitorStrategy::Push, n, plan, horizon, seed);
    const auto adaptive =
        run_storm_faulted(MonitorStrategy::Adaptive, n, plan, horizon, seed);
    for (int i = 0; i < n; ++i) {
      const auto idx = static_cast<std::size_t>(i);
      EXPECT_EQ(pull[idx], push[idx])
          << "pull vs push, backend " << i << ", seed " << seed;
      EXPECT_EQ(pull[idx], adaptive[idx])
          << "pull vs adaptive, backend " << i << ", seed " << seed;
      total_transitions += pull[idx].size();
    }
  }
  EXPECT_GT(total_transitions, 0u) << "fault matrix produced no transitions";
}

}  // namespace
}  // namespace rdmamon
