// Determinism pins: the whole stack — RUBiS workload, monitoring,
// dispatch, telemetry, and the multi-front-end scale-out plane — is a
// pure function of its seed. Two runs at the same seed must export
// byte-identical telemetry snapshots AND flight-recorder dumps (every
// event of the run: verbs posts and completions, scatter-round records,
// health edges, alarms); a different seed must diverge (the equality
// check is not vacuous). This is the regression net under every
// golden-trace and bench comparison: if it breaks, someone introduced
// wall-clock, address-ordering, or unseeded randomness into the
// simulated path.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "alloc_counter.hpp"
#include "sim/simulation.hpp"
#include "telemetry/export.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/slo.hpp"
#include "web/cluster.hpp"

namespace rdmamon {
namespace {

using sim::msec;
using sim::seconds;

struct TraceDump {
  std::string metrics;
  std::string flight;
  std::string alarms;
};

/// One complete RUBiS cluster run: M front ends, 4 back ends, 2 client
/// nodes of browsing-mix traffic, telemetry on, a staleness SLO with a
/// deliberately unreachable target (so alarm edges actually fire and the
/// log comparison is not vacuous), 1 simulated second.
TraceDump run_rubis(std::uint64_t seed, int frontends) {
  sim::Simulation simu;
  telemetry::Registry reg;
  reg.install(simu);
  telemetry::SloEngine slo;
  slo.install(reg);
  telemetry::SloSpec spec;
  spec.name = "lb.view_age";
  spec.metric = "worst backend view age (ns)";
  spec.target = 1e3;  // 1us: below any fetch latency, so every probed
                      // view age violates and edges are guaranteed
  spec.window = msec(500);
  spec.error_budget = 1.0;
  spec.min_count = 4;
  slo.add(spec);
  slo.arm_timer(simu, msec(50));

  web::ClusterConfig cfg;
  cfg.seed = seed;
  cfg.frontends = frontends;
  cfg.backends = 4;
  cfg.monitor_period = msec(10);
  cfg.lb_granularity = msec(10);
  cfg.scaleout.gossip_period = msec(10);
  web::ClusterTestbed bed(simu, cfg);
  bed.add_clients(2, web::make_rubis_generator());
  simu.run_for(seconds(1));

  return {telemetry::to_json(reg.snapshot()).dump(2),
          reg.recorder().dump("determinism").dump(2),
          slo.log_json().dump(2)};
}

/// The dump comparison is not vacuous: it holds the scatter engine's
/// round records and the NICs' READ posts, not just a header. (With
/// telemetry compiled out nothing is recorded, and the comparisons hold
/// vacuously.)
void expect_rich_dump(const std::string& flight) {
  if constexpr (!telemetry::kEnabled) return;
  EXPECT_NE(flight.find("\"kind\": \"round\""), std::string::npos);
  EXPECT_NE(flight.find("\"kind\": \"read.post\""), std::string::npos);
}

TEST(Determinism, SameSeedSameTelemetryAndSpans) {
  const TraceDump a = run_rubis(42, 1);
  const TraceDump b = run_rubis(42, 1);
  EXPECT_EQ(a.metrics, b.metrics);
  EXPECT_EQ(a.flight, b.flight);
  // The alarm log slides its windows on the simulated clock, so it must
  // replay byte-for-byte too — and non-vacuously (edges fired).
  EXPECT_EQ(a.alarms, b.alarms);
  // Sanity: the run actually produced telemetry worth comparing.
  if constexpr (telemetry::kEnabled) {
    EXPECT_NE(a.alarms.find("\"to\": \"breach\""), std::string::npos);
    EXPECT_NE(a.metrics.find("lb.pick"), std::string::npos);
    EXPECT_NE(a.metrics.find("web.response"), std::string::npos);
  }
  expect_rich_dump(a.flight);
}

TEST(Determinism, DifferentSeedDiverges) {
  const TraceDump a = run_rubis(42, 1);
  const TraceDump b = run_rubis(43, 1);
  EXPECT_NE(a.metrics, b.metrics);
}

TEST(Determinism, ScaleOutPlaneIsDeterministicToo) {
  // The multi-front-end plane adds gossip READs, ring arithmetic and
  // peer ingestion to the event stream — all of it must replay exactly.
  const TraceDump a = run_rubis(7, 4);
  const TraceDump b = run_rubis(7, 4);
  EXPECT_EQ(a.metrics, b.metrics);
  EXPECT_EQ(a.flight, b.flight);
  EXPECT_EQ(a.alarms, b.alarms);
  if constexpr (telemetry::kEnabled) {
    EXPECT_NE(a.metrics.find("cluster.ring.owned"), std::string::npos);
  }
  expect_rich_dump(a.flight);
}

TEST(Determinism, ScaleOutDivergesAcrossSeeds) {
  const TraceDump a = run_rubis(7, 4);
  const TraceDump b = run_rubis(8, 4);
  EXPECT_NE(a.metrics, b.metrics);
}

/// Heap allocations made while one RUBiS cluster (4 back ends, 2 client
/// nodes, default monitoring, no registry) runs for 200 simulated ms.
std::uint64_t rubis_run_allocs() {
  sim::Simulation simu;
  web::ClusterConfig cfg;
  cfg.seed = 42;
  cfg.backends = 4;
  cfg.monitor_period = msec(10);
  cfg.lb_granularity = msec(10);
  web::ClusterTestbed bed(simu, cfg);
  bed.add_clients(2, web::make_rubis_generator());
  const std::uint64_t before = allocation_count();
  simu.run_for(msec(200));
  return allocation_count() - before;
}

TEST(Determinism, IdenticalSimulationsAllocateIdentically) {
  // Each Simulation owns its coroutine frame pool, so a second identical
  // run in the same process recycles nothing of the first's and replays
  // its allocation count exactly — what per-run allocation counts (and
  // perfbench's sampled allocation attribution) rely on.
  const std::uint64_t first = rubis_run_allocs();
  EXPECT_GT(first, 0u);
  EXPECT_EQ(rubis_run_allocs(), first);
}

}  // namespace
}  // namespace rdmamon
