// Scale-out plane behavior: M front ends over one back-end set, polling
// partitioned by the consistent-hash ring, every front end seeing every
// back end through gossiped shard views (one-sided READs of peer view
// MRs), and ring rebalance on membership change. Fault-driven scenarios
// (owner crash mid-round, staleness strikes) live in fault_test.cpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <string>
#include <vector>

#include "cluster/scaleout.hpp"
#include "monitor/adaptive.hpp"
#include "monitor/scheme.hpp"
#include "net/nic.hpp"
#include "sim/simulation.hpp"
#include "telemetry/export.hpp"
#include "telemetry/registry.hpp"
#include "web/cluster.hpp"

namespace rdmamon {
namespace {

using monitor::Scheme;
using sim::msec;
using sim::seconds;

/// Fast cadences so scale-out tests converge in simulated tenths of a
/// second: 10 ms polling and gossip, 60 ms staleness bound.
web::ClusterConfig scale_cfg(int frontends, int backends,
                             Scheme scheme = Scheme::RdmaSync) {
  web::ClusterConfig cfg;
  cfg.frontends = frontends;
  cfg.backends = backends;
  cfg.scheme = scheme;
  cfg.monitor_period = msec(10);
  cfg.lb_granularity = msec(10);
  cfg.fetch_timeout = msec(5);
  cfg.fetch_retries = 2;
  cfg.retry_backoff = msec(2);
  cfg.scaleout.gossip_period = msec(10);
  cfg.scaleout.read_timeout = msec(5);
  cfg.scaleout.staleness_bound = msec(60);
  return cfg;
}

TEST(ScaleOut, OwnershipPartitionsThePolling) {
  sim::Simulation simu;
  web::ClusterTestbed bed(simu, scale_cfg(3, 8));
  ASSERT_NE(bed.plane(), nullptr);
  simu.run_for(msec(500));

  cluster::ScaleOutPlane& plane = *bed.plane();
  for (int b = 0; b < plane.backend_count(); ++b) {
    const int owner = plane.owner_of(b);
    ASSERT_GE(owner, 0);
    for (int m = 0; m < plane.frontend_count(); ++m) {
      const std::uint64_t polls =
          plane.frontend(m).poll_counts()[static_cast<std::size_t>(b)];
      if (m == owner) {
        EXPECT_GT(polls, 10u) << "owner " << m << " backend " << b;
      } else {
        EXPECT_EQ(polls, 0u) << "non-owner " << m << " backend " << b;
      }
    }
  }
}

TEST(ScaleOut, EveryFrontendSeesEveryBackendThroughGossip) {
  sim::Simulation simu;
  web::ClusterTestbed bed(simu, scale_cfg(3, 8));
  simu.run_for(msec(500));

  cluster::ScaleOutPlane& plane = *bed.plane();
  for (int m = 0; m < plane.frontend_count(); ++m) {
    cluster::FrontendPlane& fp = plane.frontend(m);
    EXPECT_GT(fp.gossip_reads_ok(), 0u);
    EXPECT_EQ(fp.stale_marks(), 0u) << "healthy run should never go stale";
    for (int b = 0; b < plane.backend_count(); ++b) {
      EXPECT_TRUE(fp.balancer().last_sample(b).ok)
          << "frontend " << m << " backend " << b;
      EXPECT_EQ(fp.balancer().health_of(b), lb::BackendHealth::Healthy);
    }
    // The peer-view cache is bounded: nothing this front end learns
    // second-hand is older than the staleness bound.
    EXPECT_LE(fp.max_peer_view_age().ns,
              bed.config().scaleout.staleness_bound.ns);
  }
}

TEST(ScaleOut, SocketSchemesShareOneBackendDaemonSet) {
  // M front ends attach to ONE BackendMonitor per back end; each socket
  // bind spawns its own reporting thread, so both front ends' fetches
  // are answered. (The RDMA schemes share one registered MR the same
  // way — covered by the gossip test above.)
  sim::Simulation simu;
  web::ClusterTestbed bed(simu, scale_cfg(2, 4, Scheme::SocketAsync));
  simu.run_for(msec(500));

  cluster::ScaleOutPlane& plane = *bed.plane();
  for (int m = 0; m < 2; ++m) {
    for (int b = 0; b < 4; ++b) {
      EXPECT_TRUE(plane.frontend(m).balancer().last_sample(b).ok)
          << "frontend " << m << " backend " << b;
    }
  }
}

TEST(ScaleOut, GracefulLeaveRehomesTheShardToSurvivors) {
  sim::Simulation simu;
  web::ClusterTestbed bed(simu, scale_cfg(2, 8));
  cluster::ScaleOutPlane& plane = *bed.plane();

  simu.run_for(msec(200));
  std::vector<std::uint64_t> fe1_polls_before =
      plane.frontend(1).poll_counts();
  const std::uint64_t epoch_before = plane.membership().epoch();
  plane.frontend(0).leave("drain");
  ASSERT_EQ(plane.membership().epoch(), epoch_before + 1);

  const std::vector<std::uint64_t> fe0_at_leave =
      plane.frontend(0).poll_counts();
  simu.run_for(msec(300));

  // Every back end now belongs to the survivor, whose poll counters all
  // advance; the departed front end polls nothing further.
  for (int b = 0; b < 8; ++b) {
    EXPECT_EQ(plane.owner_of(b), 1);
    const std::size_t i = static_cast<std::size_t>(b);
    EXPECT_GT(plane.frontend(1).poll_counts()[i], fe1_polls_before[i]);
    EXPECT_EQ(plane.frontend(0).poll_counts()[i], fe0_at_leave[i]);
    EXPECT_EQ(plane.frontend(1).balancer().health_of(b),
              lb::BackendHealth::Healthy);
  }
  EXPECT_GE(plane.frontend(1).takeovers(), 1u);
}

TEST(ScaleOut, VerbsTuningReachesEveryFrontend) {
  // cfg.scaleout.verbs is the scale-out plane's verbs fast path: with
  // signal-every-8 over 2 shared contexts, each front end's monitoring
  // READs go out partly unsignaled.
  sim::Simulation simu;
  web::ClusterConfig cfg = scale_cfg(2, 16);
  cfg.scaleout.verbs.signal_every = 8;
  cfg.scaleout.verbs.shared_contexts = 2;
  web::ClusterTestbed bed(simu, cfg);
  simu.run_for(msec(200));
  for (int m = 0; m < bed.frontend_count(); ++m) {
    EXPECT_GT(bed.fabric().nic(bed.frontend(m).id).unsignaled_posted(), 0u)
        << "frontend " << m;
  }
}

TEST(ScaleOut, ExportsRingOwnershipAndPeerViewAgeGauges) {
  sim::Simulation simu;
  telemetry::Registry reg;
  reg.install(simu);
  web::ClusterTestbed bed(simu, scale_cfg(2, 8));
  simu.run_for(msec(300));

  int owned_total = 0;
  for (int m = 0; m < 2; ++m) {
    owned_total += bed.plane()->frontend(m).owned_count();
  }
  EXPECT_EQ(owned_total, 8);

  // The exported series exist only with telemetry compiled in.
  if constexpr (telemetry::kEnabled) {
    const std::string json = telemetry::to_json(reg.snapshot()).dump(2);
    EXPECT_NE(json.find("cluster.ring.owned"), std::string::npos);
    EXPECT_NE(json.find("cluster.peer_view.age_ns"), std::string::npos);
    EXPECT_NE(json.find("cluster.gossip.reads"), std::string::npos);
    // Per-front-end balancer series are label-disambiguated.
    EXPECT_NE(json.find("frontend=frontend0"), std::string::npos);
    EXPECT_NE(json.find("frontend=frontend1"), std::string::npos);
  }
}

// --- the fault-free contract under every refresh strategy --------------------

class ScaleOutP : public ::testing::TestWithParam<monitor::MonitorStrategy> {};

TEST_P(ScaleOutP, FaultFreeRunMarksNothingAndKeepsPeerViewsFresh) {
  // A healthy cluster under RUBiS load: however an owner refreshes its
  // shard (wire polls, pushed WRITEs, or the adaptive mix), its peers
  // must see that freshness through gossip. No front end ever holds a
  // back end Suspect or Dead, no staleness strike is counted, and no
  // foreign back end's view ages past the staleness bound.
  sim::Simulation simu;
  web::ClusterConfig cfg = scale_cfg(3, 12);
  cfg.scaleout.staleness_bound = msec(200);
  cfg.scaleout.push.strategy = GetParam();
  web::ClusterTestbed bed(simu, cfg);
  bed.add_clients(1, web::make_rubis_generator());
  cluster::ScaleOutPlane& plane = *bed.plane();

  std::vector<std::string> transitions;
  for (int m = 0; m < plane.frontend_count(); ++m) {
    plane.frontend(m).balancer().on_health_change(
        [&transitions, m](int b, lb::BackendHealth h) {
          transitions.push_back("frontend " + std::to_string(m) +
                                " backend " + std::to_string(b) + " -> " +
                                lb::to_string(h));
        });
  }
  sim::Duration worst_age{0};
  for (int k = 1; k <= 200; ++k) {
    simu.at(sim::TimePoint{} + msec(10) * k, [&plane, &worst_age] {
      for (int m = 0; m < plane.frontend_count(); ++m) {
        worst_age = std::max(worst_age, plane.frontend(m).max_peer_view_age());
      }
    });
  }
  simu.run_for(seconds(2));

  EXPECT_TRUE(transitions.empty())
      << transitions.size() << " health transitions, first: "
      << transitions.front();
  for (int m = 0; m < plane.frontend_count(); ++m) {
    cluster::FrontendPlane& fp = plane.frontend(m);
    EXPECT_EQ(fp.stale_marks(), 0u) << "frontend " << m;
    for (int b = 0; b < plane.backend_count(); ++b) {
      EXPECT_EQ(fp.balancer().health_of(b), lb::BackendHealth::Healthy)
          << "frontend " << m << " backend " << b;
    }
  }
  EXPECT_LT(worst_age.ns, cfg.scaleout.staleness_bound.ns);
}

INSTANTIATE_TEST_SUITE_P(
    AllStrategies, ScaleOutP,
    ::testing::Values(monitor::MonitorStrategy::Pull,
                      monitor::MonitorStrategy::Push,
                      monitor::MonitorStrategy::Adaptive),
    [](const auto& info) {
      return std::string(monitor::to_string(info.param));
    });

TEST(ScaleOut, SingleFrontendConfigUsesTheClassicTestbed) {
  sim::Simulation simu;
  web::ClusterTestbed bed(simu, web::ClusterConfig{});
  EXPECT_EQ(bed.plane(), nullptr);
  EXPECT_EQ(bed.frontend_count(), 1);
  EXPECT_EQ(bed.frontend().name(), "frontend");
}

}  // namespace
}  // namespace rdmamon
