// Writes real flight-recorder post-mortems for tools/flightdump.py to
// decode (run by flightdump_test.py). One simulated second of a
// two-front-end scale-out cluster on the adaptive push/pull strategy,
// under a staleness SLO that is bound to breach, with every fault kind
// injected, blocking fetches against a back end that crashes, and a
// flooded QoS arbiter — so the dumps hold every event kind the plane
// records. Usage: flight_scenario <output-dir>
#include <cstdio>
#include <string>

#include "fault/fault.hpp"
#include "monitor/monitor.hpp"
#include "net/qos.hpp"
#include "os/node.hpp"
#include "sim/simulation.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/slo.hpp"
#include "web/cluster.hpp"

using namespace rdmamon;
using sim::msec;

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: %s <output-dir>\n", argv[0]);
    return 2;
  }
  sim::Simulation simu;
  telemetry::Registry reg;
  reg.install(simu);
  reg.recorder().set_postmortem_dir(argv[1]);
  telemetry::SloEngine slo;
  slo.install(reg);
  telemetry::SloSpec spec;
  spec.name = "lb.view_age";
  spec.metric = "worst backend view age (ns)";
  spec.target = 1e3;  // below any fetch latency: the alarm must fire
  spec.window = msec(200);
  spec.error_budget = 1.0;
  spec.min_count = 4;
  slo.add(spec);
  slo.arm_timer(simu, msec(20));

  web::ClusterConfig cfg;
  cfg.frontends = 2;
  cfg.backends = 4;
  cfg.monitor_period = msec(10);
  cfg.lb_granularity = msec(10);
  cfg.fetch_timeout = msec(5);
  cfg.retry_backoff = msec(2);
  cfg.scaleout.gossip_period = msec(10);
  cfg.scaleout.read_timeout = msec(5);
  cfg.scaleout.staleness_bound = msec(60);
  cfg.scaleout.push.strategy = monitor::MonitorStrategy::Adaptive;
  web::ClusterTestbed bed(simu, cfg);
  bed.add_clients(1, web::make_rubis_generator());
  net::Fabric& fabric = bed.fabric();

  // Blocking fetches from a probe node, through a slow link (timeouts)
  // and a crash (transport errors) of their target.
  os::Node probe(simu, {.name = "probe"});
  fabric.attach(probe);
  monitor::MonitorConfig mcfg;
  mcfg.fetch_timeout = msec(5);
  mcfg.fetch_retries = 1;
  monitor::MonitorChannel chan(fabric, probe, bed.backend(3), mcfg);
  probe.spawn("fetcher", [&](os::SimThread& self) -> os::Program {
    for (;;) {
      monitor::MonitorSample s;
      co_await chan.frontend().fetch(self, s);
      co_await os::SleepFor{msec(20)};
    }
  });

  // A QoS arbiter flooded past its queue cap: admits and drops.
  net::QosConfig qcfg;
  qcfg.enabled = true;
  qcfg.default_queue_cap = 2;
  net::TenantArbiter arbiter(simu, qcfg, 1e6, "qos.probe");
  simu.at(sim::TimePoint{msec(50).ns}, [&arbiter] {
    for (int i = 0; i < 6; ++i) arbiter.submit(7, 1000, [] {});
  });

  const auto at = [](int ms) { return sim::TimePoint{msec(ms).ns}; };
  fault::FaultPlan plan;
  plan.freeze_for(bed.backend(0).id, at(100), msec(40))
      .degrade_link_for(bed.backend(3).id, at(150), msec(40), msec(10), 0.0)
      .storm_for(1, at(200), msec(40))
      .crash_for(bed.frontend(1).id, at(300), msec(250))
      .crash_for(bed.backend(3).id, at(650), msec(150));
  fault::FaultInjector injector(fabric);
  injector.arm(plan);
  simu.run_for(sim::seconds(1));
  slo.disarm_timer();

  const std::string path = reg.recorder().postmortem("scenario");
  if (path.empty()) {
    std::fprintf(stderr, "no post-mortem written to %s\n", argv[1]);
    return 1;
  }
  std::printf("%s\n", path.c_str());
  return 0;
}
