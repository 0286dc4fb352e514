// Multi-tenant noisy neighbor vs fabric QoS: a bandwidth-hog tenant
// floods huge READs from the front-end node at the back ends' NICs while
// the monitoring plane (its own tenant) tries to keep the balancer's
// view fresh. Two arms, identical except FabricConfig::qos:
//
//  - qos-off: the hog builds standing DMA/link queues at every back end;
//    monitor fetches blow their 200 ms timeout, the balancer's view ages
//    past the 250 ms staleness SLO and the alarm stream records a Breach
//    edge. The victim's staleness p99 breaches — CI asserts it does.
//  - qos-on: the same hog behind a per-tenant token bucket (100 MB/s) and
//    an 8:1 WFQ weight for the monitoring tenant. The hog is throttled to
//    its cap, the victim's staleness p99 stays inside the SLO, and the
//    per-tenant admit/defer/drop counters tell the story. CI asserts
//    both the protection and the throttle ratio.
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "args.hpp"
#include "common.hpp"
#include "report.hpp"
#include "fault/fault.hpp"
#include "net/fabric.hpp"
#include "net/nic.hpp"
#include "net/qos.hpp"
#include "sim/simulation.hpp"
#include "sim/stats.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/slo.hpp"
#include "web/cluster.hpp"
#include "workload/tenantstorm.hpp"

namespace {

using namespace rdmamon;

constexpr net::TenantId kMonitorTenant = 1;
constexpr net::TenantId kHogTenant = 9;
constexpr double kSloTargetNs = 250e6;  // p99 view age <= 250 ms
constexpr double kHogRateBps = 100e6;   // token-bucket cap, wire bytes/s

struct TenantRow {
  net::TenantId tenant = 0;
  net::TenantArbiter::Stats stats;
};

struct ArmResult {
  double p99_ms = 0.0;
  double max_ms = 0.0;
  std::uint64_t samples = 0;
  std::uint64_t breach_edges = 0;
  std::string final_state;
  std::uint64_t fetch_failures = 0;
  std::uint64_t hog_posted = 0;
  std::uint64_t hog_completed = 0;
  std::uint64_t hog_failed = 0;
  double hog_goodput_mbps = 0.0;
  std::vector<TenantRow> tenants;  ///< qos-on arm only
};

ArmResult run_arm(bool qos_on, bool quick, std::uint64_t seed) {
  sim::Simulation simu;
  telemetry::Registry reg;
  reg.install(simu);
  // The staleness SLO must exist before the balancer starts: it finds
  // the "lb.view_age" stream by name and feeds it a worst-view-age probe.
  telemetry::SloEngine slo;
  slo.install(reg);
  telemetry::SloSpec spec;
  spec.name = "lb.view_age";
  spec.metric = "worst backend view age (ns)";
  spec.target = kSloTargetNs;
  spec.window = sim::msec(500);
  spec.error_budget = 0.01;
  spec.min_count = 8;
  telemetry::SloEngine::Stream* stream = slo.add(spec);
  slo.arm_timer(simu, sim::msec(10));

  web::ClusterConfig cfg;
  cfg.backends = quick ? 6 : 8;
  cfg.scheme = monitor::Scheme::RdmaSync;
  cfg.monitor_period = sim::msec(50);
  cfg.lb_granularity = sim::msec(50);
  cfg.fetch_timeout = sim::msec(200);
  cfg.seed = seed;
  cfg.monitor_tenant = kMonitorTenant;
  if (qos_on) {
    cfg.fabric.qos.enabled = true;
    net::TenantQosSpec mon;
    mon.tenant = kMonitorTenant;
    mon.weight = 8.0;
    cfg.fabric.qos.tenants.push_back(mon);
    net::TenantQosSpec hog;
    hog.tenant = kHogTenant;
    hog.weight = 1.0;
    hog.rate_bps = kHogRateBps;
    hog.burst_bytes = 1 << 20;
    // Below the hog's outstanding window: some of its flood queues, the
    // rest is refused at the cap (the drop path under a real aggressor).
    hog.queue_cap = 1800;
    cfg.fabric.qos.tenants.push_back(hog);
  }
  web::ClusterTestbed bed(simu, cfg);

  // The hog reads its own scratch regions on every back-end NIC — the
  // damage is purely the shared fabric/DMA resources it occupies there.
  workload::TenantStormConfig scfg = workload::TenantStormConfig::bandwidth_hog();
  scfg.tenant = kHogTenant;
  scfg.max_outstanding = quick ? 2048 : 2560;
  scfg.post_period = sim::usec(1);
  std::vector<workload::StormTarget> targets;
  for (int i = 0; i < cfg.backends; ++i) {
    net::Nic& bn = bed.fabric().nic(bed.backend(i).id);
    targets.push_back({bed.backend(i).id,
                       bn.register_mr({}, nullptr, /*remote_writable=*/false,
                                      kHogTenant)});
  }
  workload::TenantStorm storm(bed.fabric(), bed.frontend(), targets, scfg);

  // Storm window via the fault plane, like any other injected fault.
  const sim::TimePoint storm_start{sim::seconds(1).ns};
  const sim::Duration storm_len = quick ? sim::msec(1500) : sim::seconds(3);
  const sim::TimePoint storm_end = storm_start + storm_len;
  fault::FaultInjector inj(bed.fabric());
  workload::drive_storms(inj, {&storm});
  inj.arm(fault::FaultPlan().storm_for(0, storm_start, storm_len));

  // Victim staleness: sample the balancer's worst view age every 10 ms
  // inside the storm window (100 ms in, past the onset ramp).
  sim::Histogram age_hist;
  auto sample_age = [&] {
    double worst = 0.0;
    for (int i = 0; i < cfg.backends; ++i) {
      const sim::Duration a = bed.balancer().view_age(static_cast<std::size_t>(i));
      if (a.ns > 0 && static_cast<double>(a.ns) > worst) {
        worst = static_cast<double>(a.ns);
      }
    }
    if (worst > 0) age_hist.add(worst);
  };
  for (sim::TimePoint t = storm_start + sim::msec(100); t.ns <= storm_end.ns;
       t = t + sim::msec(10)) {
    simu.at(t, sample_age);
  }

  // Hog goodput over the storm window.
  std::uint64_t hog_bytes_start = 0, hog_bytes_end = 0;
  simu.at(storm_start, [&] { hog_bytes_start = storm.bytes_completed(); });
  simu.at(storm_end, [&] { hog_bytes_end = storm.bytes_completed(); });

  simu.run_for(storm_len + sim::seconds(2));

  ArmResult r;
  r.p99_ms = age_hist.percentile(0.99) / 1e6;
  r.max_ms = age_hist.max() / 1e6;
  r.samples = age_hist.count();
  for (const telemetry::AlarmRecord& rec : slo.log()) {
    if (rec.slo == "lb.view_age" && rec.to == telemetry::AlarmState::Breach) {
      ++r.breach_edges;
    }
  }
  r.final_state = telemetry::to_string(slo.state(stream));
  r.fetch_failures = bed.balancer().fetch_failures();
  r.hog_posted = storm.posted();
  r.hog_completed = storm.completed();
  r.hog_failed = storm.failed();
  r.hog_goodput_mbps = static_cast<double>(hog_bytes_end - hog_bytes_start) /
                       storm_len.seconds() / 1e6;
  const net::TenantArbiter* arb = bed.fabric().nic(bed.frontend().id).arbiter();
  if (arb != nullptr) {
    for (net::TenantId t : arb->tenants()) {
      r.tenants.push_back({t, arb->stats(t)});
    }
  }
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const auto opts = rdmamon::bench::parse_args(argc, argv);
  using rdmamon::bench::num;
  rdmamon::bench::banner(
      "Fabric QoS", "Noisy-neighbor tenant vs monitoring staleness SLO",
      "an unthrottled co-tenant flood ages the balancer's view past its "
      "SLO; per-tenant token buckets + WFQ keep the view fresh while "
      "capping the aggressor at its contracted rate");

  rdmamon::bench::JsonReport report("qos");
  report.stamp(opts.quick, opts.seed);
  report.set("slo_target_ms", kSloTargetNs / 1e6);
  report.set("hog_rate_cap_mbps", kHogRateBps / 1e6);

  util::Table table;
  table.set_header({"arm", "view p99 ms", "view max ms", "breach edges",
                    "final state", "fetch fails", "hog MB/s", "hog drops"});
  table.set_align(0, util::Align::Left);

  ArmResult arms[2];
  const char* arm_names[2] = {"qos-off", "qos-on"};
  for (int a = 0; a < 2; ++a) {
    arms[a] = run_arm(a == 1, opts.quick, opts.seed);
    const ArmResult& r = arms[a];
    table.add_row({arm_names[a], num(r.p99_ms, 1), num(r.max_ms, 1),
                   std::to_string(r.breach_edges), r.final_state,
                   std::to_string(r.fetch_failures),
                   num(r.hog_goodput_mbps, 1), std::to_string(r.hog_failed)});
    auto& j = report.add_result();
    j["arm"] = arm_names[a];
    j["view_age_p99_ms"] = r.p99_ms;
    j["view_age_max_ms"] = r.max_ms;
    j["age_samples"] = r.samples;
    j["breach_edges"] = r.breach_edges;
    j["final_state"] = r.final_state;
    j["fetch_failures"] = r.fetch_failures;
    j["hog_posted"] = r.hog_posted;
    j["hog_completed"] = r.hog_completed;
    j["hog_failed"] = r.hog_failed;
    j["hog_goodput_mbps"] = r.hog_goodput_mbps;
    auto& tenants = j["tenants"];
    tenants = util::JsonValue::array();
    for (const TenantRow& t : r.tenants) {
      auto& row = tenants.push_back(util::JsonValue::object());
      row["tenant"] = static_cast<std::uint64_t>(t.tenant);
      row["submitted"] = t.stats.submitted;
      row["admitted"] = t.stats.admitted;
      row["deferred"] = t.stats.deferred;
      row["dropped"] = t.stats.dropped;
      row["admitted_mbytes"] =
          static_cast<double>(t.stats.admitted_bytes) / 1e6;
    }
  }
  const double throttle_ratio =
      arms[1].hog_goodput_mbps > 0
          ? arms[0].hog_goodput_mbps / arms[1].hog_goodput_mbps
          : 0.0;
  report.set("hog_throttle_ratio", throttle_ratio);

  std::cout << "\nVictim = balancer view freshness (SLO: p99 view age <= "
            << num(kSloTargetNs / 1e6, 0) << " ms). Hog = tenant "
            << kHogTenant << " flooding " << "1 MB READs at every back end:\n";
  rdmamon::bench::show(table);
  std::cout << "qos-off: standing DMA/link queues defeat the 200 ms fetch "
               "deadline; the view ages unboundedly and the SLO stream "
               "records the breach.\n"
               "qos-on: the token bucket caps the hog near "
            << num(kHogRateBps / 1e6, 0)
            << " MB/s (throttle ratio " << num(throttle_ratio, 1)
            << "x) and the weighted arbiter keeps monitoring READs "
               "flowing — the view never leaves its SLO.\n";
  report.write();
  return 0;
}
