// Scale-out plane behavior: M front ends over one back-end set, polling
// partitioned by the consistent-hash ring, every front end seeing every
// back end through gossiped shard views (one-sided READs of peer view
// MRs), and ring rebalance on membership change. Fault-driven scenarios
// (owner crash mid-round, staleness strikes) live in fault_test.cpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <string>
#include <type_traits>
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

// --- telemetry: distributions per front end, counts per back end ------------

TEST(ScaleOut, AdaptivePushRegistersNoInstrumentAfterWarmUp) {
  // Every instrument a warm front end feeds already exists: Adaptive
  // moving back ends between pull and push, gossip and picks register
  // nothing more after warm-up (no labels, no map nodes).
  if constexpr (!telemetry::kEnabled) GTEST_SKIP() << "telemetry compiled out";
  sim::Simulation simu;
  telemetry::Registry reg;
  reg.install(simu);
  web::ClusterConfig cfg = scale_cfg(4, 32);
  cfg.scaleout.push.strategy = monitor::MonitorStrategy::Adaptive;
  web::ClusterTestbed bed(simu, cfg);
  bed.add_clients(2, web::make_rubis_generator());
  cluster::ScaleOutPlane& plane = *bed.plane();
  auto switches = [&plane] {
    std::uint64_t n = 0;
    for (int m = 0; m < plane.frontend_count(); ++m) {
      n += plane.frontend(m).balancer().adaptive()->total_switches();
    }
    return n;
  };
  simu.run_for(msec(200));
  const std::size_t warm = reg.instrument_count();
  const std::uint64_t warm_switches = switches();
  simu.run_for(seconds(2));
  EXPECT_GT(switches(), warm_switches) << "no back end changed mode";
  EXPECT_EQ(reg.instrument_count(), warm);
}

TEST(ScaleOut, HistogramCountDoesNotGrowWithBackends) {
  // Watching 8 times more back ends adds per-back-end counters
  // (monitor.fetch.outcome, lb.pick, ...) but not one histogram.
  if constexpr (!telemetry::kEnabled) GTEST_SKIP() << "telemetry compiled out";
  struct Census {
    std::size_t histograms = 0;
    std::size_t outcomes = 0;  ///< monitor.fetch.outcome series
  };
  auto census = [](int backends) {
    sim::Simulation simu;
    telemetry::Registry reg;
    reg.install(simu);
    web::ClusterTestbed bed(simu, scale_cfg(2, backends));
    bed.add_clients(1, web::make_rubis_generator());
    simu.run_for(msec(300));
    Census c;
    for (const telemetry::SnapshotEntry& e : reg.snapshot().entries) {
      c.histograms += e.kind == telemetry::SnapshotEntry::Kind::Histogram;
      c.outcomes += e.name == "monitor.fetch.outcome";
    }
    return c;
  };
  const Census small = census(8), large = census(64);
  EXPECT_GT(small.histograms, 0u);
  EXPECT_EQ(large.histograms, small.histograms);
  EXPECT_EQ(small.outcomes, 3u * 8);   // ok / timeout / transport
  EXPECT_EQ(large.outcomes, 3u * 64);  // per back end, by its owner
}

// --- gossip wire records -----------------------------------------------------

// What a view READ carries per owned back end: only what ingest reads.
static_assert(std::is_trivially_copyable_v<cluster::ShardViewEntry>);
static_assert(sizeof(cluster::ShardViewEntry) <= 104);

/// Back ends front end `m` owns on the ring right now.
std::vector<int> shard_of(cluster::ScaleOutPlane& plane, int m) {
  std::vector<int> shard;
  for (int b = 0; b < plane.backend_count(); ++b) {
    if (plane.owner_of(b) == m) shard.push_back(b);
  }
  return shard;
}

void expect_same_snapshot(const os::LoadSnapshot& a, const os::LoadSnapshot& b,
                          int backend) {
  EXPECT_EQ(a.computed_at, b.computed_at) << "backend " << backend;
  EXPECT_EQ(a.cpu_load, b.cpu_load) << "backend " << backend;
  EXPECT_EQ(a.nr_running, b.nr_running) << "backend " << backend;
  EXPECT_EQ(a.nr_threads, b.nr_threads) << "backend " << backend;
  EXPECT_EQ(a.mem_load, b.mem_load) << "backend " << backend;
  EXPECT_EQ(a.net_rate, b.net_rate) << "backend " << backend;
  EXPECT_EQ(a.connections, b.connections) << "backend " << backend;
  EXPECT_EQ(a.cpus, b.cpus) << "backend " << backend;
  EXPECT_EQ(a.irq_pending, b.irq_pending) << "backend " << backend;
}

/// Runs `simu` in 100 us steps until `posted()` holds; false if it still
/// does not after 20 ms.
template <typename Pred>
bool run_until_posted(sim::Simulation& simu, Pred posted) {
  for (int step = 0; step < 200 && !posted(); ++step) {
    simu.run_for(sim::usec(100));
  }
  return posted();
}

TEST(ScaleOut, ViewReadIsChargedForTheShardItReads) {
  // Socket monitoring keeps the front ends' NICs free of one-sided ops
  // other than gossip, so the first gossip READ moves each reader's
  // rdma_wire_bytes() by exactly one view READ of its peer's shard
  // (charged at post; the next one is a gossip period away).
  sim::Simulation simu;
  web::ClusterTestbed bed(simu, scale_cfg(2, 8, Scheme::SocketAsync));
  cluster::ScaleOutPlane& plane = *bed.plane();
  const auto wire = [&bed](int m) {
    return bed.fabric().nic(bed.frontend(m).id).rdma_wire_bytes();
  };
  const std::uint64_t before[2] = {wire(0), wire(1)};
  ASSERT_TRUE(run_until_posted(simu, [&] {
    return wire(0) != before[0] && wire(1) != before[1];
  }));
  for (int m = 0; m < 2; ++m) {
    const std::size_t owned =
        static_cast<std::size_t>(plane.frontend(1 - m).owned_count());
    const std::uint64_t expected = net::rdma_footprint(
        net::Verb::Read, sizeof(cluster::ShardViewHeader) +
                             owned * sizeof(cluster::ShardViewEntry));
    EXPECT_EQ(wire(m) - before[m], expected) << "frontend " << m;
    EXPECT_EQ(plane.frontend(m).gossip_wire_bytes(), expected)
        << "frontend " << m;
  }
}

TEST(ScaleOut, GossipCarriesTheOwnersRecordsToItsPeers) {
  // A stalled owner's records stop moving while its NIC keeps serving
  // them, so one gossip period after the stall every back end it owns
  // reads at the peer exactly as at the owner: the same snapshot, fetch
  // instant and evidence instant.
  sim::Simulation simu;
  web::ClusterTestbed bed(simu, scale_cfg(2, 8));
  cluster::ScaleOutPlane& plane = *bed.plane();
  simu.run_for(msec(35));
  plane.frontend(0).stall();
  simu.run_for(bed.config().scaleout.gossip_period);

  const lb::LoadBalancer& owner = plane.frontend(0).balancer();
  const lb::LoadBalancer& reader = plane.frontend(1).balancer();
  const std::vector<int> shard = shard_of(plane, 0);
  ASSERT_FALSE(shard.empty());
  for (int b : shard) {
    const lb::BackendView& o = owner.view(b);
    const lb::BackendView& r = reader.view(b);
    ASSERT_TRUE(o.sample.ok) << "backend " << b;
    EXPECT_TRUE(r.sample.ok) << "backend " << b;
    EXPECT_EQ(r.source, lb::ViewSource::Gossip) << "backend " << b;
    expect_same_snapshot(r.sample.info, o.sample.info, b);
    EXPECT_EQ(r.sample.retrieved_at, o.sample.retrieved_at) << "backend " << b;
    EXPECT_EQ(r.evidence_at, o.evidence_at) << "backend " << b;
  }
}

TEST(ScaleOut, UnusableOwnerRecordCountsExactlyOneStrike) {
  sim::Simulation simu;
  web::ClusterTestbed bed(simu, scale_cfg(2, 4));
  cluster::ScaleOutPlane& plane = *bed.plane();
  simu.run_for(msec(50));
  const int b = 0;
  const int owner = plane.owner_of(b);
  ASSERT_GE(owner, 0);
  lb::LoadBalancer& reader = plane.frontend(1 - owner).balancer();
  ASSERT_EQ(reader.health_of(b), lb::BackendHealth::Healthy);

  // A record is usable only when its owner holds the back end Healthy
  // and has a good sample.
  const lb::BackendView& held = plane.frontend(owner).balancer().view(b);
  ASSERT_TRUE(lb::peer_record(b, held).usable);
  lb::BackendView no_sample = held;
  no_sample.sample.ok = false;
  EXPECT_FALSE(lb::peer_record(b, no_sample).usable);
  lb::BackendView suspect = held;
  suspect.health = lb::BackendHealth::Suspect;
  lb::PeerRecord rec = lb::peer_record(b, suspect);
  ASSERT_FALSE(rec.usable);
  rec.evidence_at = simu.now();
  const lb::BackendView before = reader.view(b);
  const std::uint64_t failures = reader.fetch_failures();
  reader.ingest_peer(rec);
  EXPECT_EQ(reader.fetch_failures(), failures + 1);
  EXPECT_EQ(reader.view(b).fail_streak, before.fail_streak + 1);
  EXPECT_EQ(reader.health_of(b), lb::BackendHealth::Suspect);
  EXPECT_EQ(reader.view(b).evidence_at, rec.evidence_at);
  // The strike leaves the last good sample where it was.
  EXPECT_EQ(reader.view(b).sample.retrieved_at, before.sample.retrieved_at);

  // A usable record is applied as a fetched sample: no strike, and the
  // Suspect recovers on it.
  rec.usable = true;
  rec.evidence_at = simu.now() + msec(1);
  reader.ingest_peer(rec);
  EXPECT_EQ(reader.fetch_failures(), failures + 1);
  EXPECT_EQ(reader.health_of(b), lb::BackendHealth::Healthy);
  EXPECT_EQ(reader.view(b).source, lb::ViewSource::Gossip);
  EXPECT_EQ(reader.view(b).sample.retrieved_at, rec.retrieved_at);
  EXPECT_EQ(reader.view(b).evidence_at, rec.evidence_at);
}

TEST(ScaleOut, ShardGrownBetweenPostAndDmaIsCutAtTheChargedLength) {
  // Front end 0 posts its first view READ of front end 1, sized to 1's
  // shard, then leaves while the request is on a slow link: 1 takes
  // over every back end before the READ reaches its DMA engine, so the
  // view served holds all 8 entries. Only those within the charged
  // length are ingested; the next period's READ, sized to the grown
  // shard, brings the rest.
  sim::Simulation simu;
  web::ClusterConfig cfg = scale_cfg(2, 8);
  cfg.fetch_timeout = msec(8);
  cfg.scaleout.read_timeout = msec(8);
  web::ClusterTestbed bed(simu, cfg);
  cluster::ScaleOutPlane& plane = *bed.plane();
  cluster::FrontendPlane& reader = plane.frontend(0);
  bed.fabric().inject_link_fault(bed.frontend(0).id, msec(2), 0.0);

  // Posted; the request needs 2 ms more to reach front end 1.
  ASSERT_TRUE(run_until_posted(
      simu, [&reader] { return reader.gossip_wire_bytes() > 0; }));
  const std::vector<int> old_shard = shard_of(plane, 1);
  const std::size_t charged = old_shard.size();
  ASSERT_GT(charged, 0u);
  ASSERT_LT(charged, 8u);
  const std::uint64_t first_read = net::rdma_footprint(
      net::Verb::Read, cluster::view_read_bytes(static_cast<int>(charged)));
  ASSERT_EQ(reader.gossip_wire_bytes(), first_read);
  std::vector<sim::TimePoint> evidence_before;
  for (int b = 0; b < 8; ++b) {
    evidence_before.push_back(reader.balancer().view(b).evidence_at);
  }
  reader.leave("drain");
  ASSERT_EQ(plane.frontend(1).owned_count(), 8);

  // The READ completes (2 ms each way) before the next period starts.
  simu.run_for(msec(5));
  ASSERT_EQ(reader.gossip_reads_ok(), 1u);
  // The served view lists back ends 0..7 in order; the charged length
  // covers the first `charged` of them. Of 1's original shard, those
  // below the cut were ingested and those past it were not.
  std::vector<int> cut;
  for (int b : old_shard) {
    const sim::TimePoint seen = reader.balancer().view(b).evidence_at;
    const sim::TimePoint was = evidence_before[static_cast<std::size_t>(b)];
    if (static_cast<std::size_t>(b) < charged) {
      EXPECT_GT(seen, was) << "backend " << b << " within the READ";
    } else {
      EXPECT_EQ(seen, was) << "backend " << b << " past the READ";
      cut.push_back(b);
    }
  }
  ASSERT_FALSE(cut.empty()) << "the ring put no entry past the cut";

  simu.run_for(cfg.scaleout.gossip_period + msec(5));
  EXPECT_EQ(reader.gossip_reads_ok(), 2u);
  EXPECT_EQ(reader.gossip_wire_bytes(),
            first_read + net::rdma_footprint(net::Verb::Read,
                                             cluster::view_read_bytes(8)));
  for (int b : cut) {
    EXPECT_GT(reader.balancer().view(b).evidence_at,
              evidence_before[static_cast<std::size_t>(b)])
        << "backend " << b << " next period";
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
