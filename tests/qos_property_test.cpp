// Property suite for the per-tenant fabric arbiter (net::TenantArbiter),
// exercised directly — no NIC, no cluster — so each property isolates
// one line of the QoS contract:
//
//  - work conservation: with no rate caps, a backlogged engine never
//    idles (the last grant lands exactly sum(bytes)/engine_bps in);
//  - weighted fairness: backlogged tenants split admissions in weight
//    proportion over a window;
//  - intra-tenant FIFO: arbitration never reorders one tenant's ops;
//  - determinism: the same seeded submission schedule yields
//    byte-identical decision records in the arbiter's flight ring, a
//    different seed does not;
//  - token-bucket cap: admitted bytes by time T never exceed
//    burst + rate*T (+ one op of slack);
//  - queue cap: floods beyond the cap drop, and the counters reconcile
//    (submitted == admitted + dropped + still-queued).
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "net/qos.hpp"
#include "sim/random.hpp"
#include "sim/simulation.hpp"
#include "sim/time.hpp"
#include "telemetry/registry.hpp"

namespace rdmamon {
namespace {

using sim::msec;
using sim::usec;

net::QosConfig enabled_config() {
  net::QosConfig cfg;
  cfg.enabled = true;
  return cfg;
}

TEST(QosProperty, WorkConservingWithoutRateCaps) {
  // 50 x 1000 B ops across two uncapped tenants on a 1 GB/s engine:
  // serialization is 1 us per op, and with the backlog never empty the
  // last grant must land at exactly 49 us (first grant is at t=0).
  sim::Simulation simu;
  net::TenantArbiter arb(simu, enabled_config(), 1e9);
  std::vector<std::int64_t> grant_ns;
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(arb.submit(static_cast<net::TenantId>(i % 2), 1000,
                           [&grant_ns, &simu] {
                             grant_ns.push_back(simu.now().ns);
                           }));
  }
  simu.run_for(msec(1));
  ASSERT_EQ(grant_ns.size(), 50u);
  EXPECT_EQ(grant_ns.front(), 0);
  EXPECT_EQ(grant_ns.back(), 49 * 1000);
  for (std::size_t k = 1; k < grant_ns.size(); ++k) {
    EXPECT_EQ(grant_ns[k] - grant_ns[k - 1], 1000) << "idle gap before " << k;
  }
}

TEST(QosProperty, WeightedFairShareOverWindow) {
  // Tenants weighted 3:1, both continuously backlogged with equal-size
  // ops: over any window the admission ratio must track the weights.
  net::QosConfig cfg = enabled_config();
  net::TenantQosSpec heavy;
  heavy.tenant = 1;
  heavy.weight = 3.0;
  cfg.tenants.push_back(heavy);
  net::TenantQosSpec light;
  light.tenant = 2;
  light.weight = 1.0;
  cfg.tenants.push_back(light);

  sim::Simulation simu;
  net::TenantArbiter arb(simu, cfg, 1e8);  // 1000 B -> 10 us service
  for (int i = 0; i < 300; ++i) {
    ASSERT_TRUE(arb.submit(1, 1000, [] {}));
    ASSERT_TRUE(arb.submit(2, 1000, [] {}));
  }
  simu.run_for(msec(1));  // ~100 service slots
  const auto h = arb.stats(1);
  const auto l = arb.stats(2);
  ASSERT_GT(l.admitted, 0u);
  const double ratio = static_cast<double>(h.admitted) /
                       static_cast<double>(l.admitted);
  EXPECT_GE(ratio, 2.5) << h.admitted << " vs " << l.admitted;
  EXPECT_LE(ratio, 3.5) << h.admitted << " vs " << l.admitted;
  // Work conservation still holds with weights: ~100 slots served.
  EXPECT_NEAR(static_cast<double>(h.admitted + l.admitted), 100.0, 2.0);
}

TEST(QosProperty, NoIntraTenantReordering) {
  // Random interleaved submissions from three tenants with random sizes:
  // each tenant's grants must replay its submissions in order, whatever
  // the cross-tenant schedule does.
  sim::Simulation simu;
  net::TenantArbiter arb(simu, enabled_config(), 1e8);
  sim::Rng rng(77);
  std::map<net::TenantId, std::vector<int>> submitted, granted;
  for (int k = 0; k < 200; ++k) {
    const auto t = static_cast<net::TenantId>(rng.uniform_int(1, 3));
    const std::size_t bytes =
        64 * static_cast<std::size_t>(1 + rng.uniform_int(0, 31));
    submitted[t].push_back(k);
    ASSERT_TRUE(
        arb.submit(t, bytes, [&granted, t, k] { granted[t].push_back(k); }));
  }
  simu.run_for(msec(100));
  for (const auto& [t, order] : submitted) {
    EXPECT_EQ(granted[t], order) << "tenant " << t << " reordered";
  }
}

/// One seeded submission schedule against a rate-capped tenant (so the
/// trace contains defers, not just back-to-back admits); returns the
/// arbiter's decision records from its flight ring, one line each.
std::string run_trace_scenario(std::uint64_t seed) {
  net::QosConfig cfg = enabled_config();
  net::TenantQosSpec capped;
  capped.tenant = 2;
  capped.rate_bps = 1e6;
  capped.burst_bytes = 4096;
  cfg.tenants.push_back(capped);

  sim::Simulation simu;
  telemetry::Registry reg;
  reg.install(simu);
  net::TenantArbiter arb(simu, cfg, 1e8);
  sim::Rng rng(seed);
  for (int k = 0; k < 60; ++k) {
    const auto at = sim::TimePoint{} + usec(rng.uniform_int(0, 5000));
    const auto t = static_cast<net::TenantId>(rng.uniform_int(1, 2));
    const std::size_t bytes =
        256 * static_cast<std::size_t>(1 + rng.uniform_int(0, 7));
    simu.at(at, [&arb, t, bytes] { arb.submit(t, bytes, [] {}); });
  }
  simu.run_for(msec(100));
  std::string trace;
  const telemetry::FlightRing* ring = reg.recorder().ring("qos");
  for (const telemetry::FlightEvent& e : ring->events()) {
    trace += std::to_string(e.at.ns) + ' ' + e.kind + " tenant=" +
             std::to_string(e.a) + " seq=" + std::to_string(e.b) +
             " bytes=" + std::to_string(static_cast<std::int64_t>(e.x)) +
             '\n';
  }
  return trace;
}

TEST(QosProperty, DecisionTraceIsSeedDeterministic) {
  if constexpr (!telemetry::kEnabled) GTEST_SKIP() << "telemetry off";
  const std::string a = run_trace_scenario(5);
  const std::string b = run_trace_scenario(5);
  const std::string c = run_trace_scenario(6);
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, b) << "same seed, different decisions";
  EXPECT_NE(a, c) << "different seeds, identical decisions (suspicious)";
}

TEST(QosProperty, TokenBucketBoundsAdmittedBytes) {
  // A 1 MB/s tenant with a 10 kB bucket floods 40 x 1000 B ops at t=0.
  // By T the admitted bytes may never exceed burst + rate*T + one op of
  // slack; and the burst must clearly have been usable.
  net::QosConfig cfg = enabled_config();
  net::TenantQosSpec spec;
  spec.tenant = 7;
  spec.rate_bps = 1e6;
  spec.burst_bytes = 10'000;
  cfg.tenants.push_back(spec);

  sim::Simulation simu;
  net::TenantArbiter arb(simu, cfg, 1e9);
  for (int i = 0; i < 40; ++i) ASSERT_TRUE(arb.submit(7, 1000, [] {}));
  simu.run_for(msec(20));
  const auto s = arb.stats(7);
  EXPECT_LE(s.admitted_bytes, 10'000 + 20'000 + 1000u);
  EXPECT_GE(s.admitted_bytes, 10'000u) << "burst not honoured";
  EXPECT_GT(s.deferred, 0u) << "rate cap never bound";
  EXPECT_EQ(s.submitted, 40u);
}

TEST(QosProperty, QueueCapDropsFloods) {
  // A 1 kB/s engine makes the first op occupy the engine for a full
  // second; a 100-op flood behind it can queue at most queue_cap ops and
  // must drop the rest, with the counters reconciling exactly.
  net::QosConfig cfg = enabled_config();
  net::TenantQosSpec spec;
  spec.tenant = 5;
  spec.queue_cap = 8;
  cfg.tenants.push_back(spec);

  sim::Simulation simu;
  net::TenantArbiter arb(simu, cfg, 1e3);
  std::uint64_t refused = 0;
  for (int i = 0; i < 101; ++i) {
    if (!arb.submit(5, 1000, [] {})) ++refused;
  }
  const auto s = arb.stats(5);
  EXPECT_EQ(s.submitted, 101u);
  EXPECT_EQ(s.admitted, 1u);  // the op that grabbed the idle engine
  EXPECT_EQ(s.queue_depth, 8u);
  EXPECT_EQ(s.dropped, 92u);
  EXPECT_EQ(s.dropped, refused);
  EXPECT_EQ(s.submitted, s.admitted + s.dropped + s.queue_depth);
}

}  // namespace
}  // namespace rdmamon
