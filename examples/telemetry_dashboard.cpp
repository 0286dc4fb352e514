// The telemetry plane end to end: install a Registry, run a small RUBiS
// cluster with a mid-run back-end crash, then dump the dashboard the
// registry assembled — fetch outcome counters and latency percentiles per
// backend, NIC/socket traffic, balancer health transitions and dispatch
// totals — plus the Prometheus and JSON exports and the flight-recorder
// dump that holds the run's events (read it with tools/flightdump.py),
// and finally read the front end's own telemetry through a one-sided
// RDMA READ (the monitoring plane monitoring itself).
#include <iostream>

#include "fault/fault.hpp"
#include "net/nic.hpp"
#include "net/verbs.hpp"
#include "os/node.hpp"
#include "sim/simulation.hpp"
#include "telemetry/export.hpp"
#include "telemetry/registry.hpp"
#include "web/cluster.hpp"

using namespace rdmamon;

int main() {
  sim::Simulation simu;

  // The registry must be installed BEFORE wiring the system: components
  // resolve their instruments when traffic first flows.
  telemetry::Registry reg;
  reg.install(simu);

  web::ClusterConfig cfg;
  cfg.backends = 3;
  cfg.scheme = monitor::Scheme::RdmaSync;
  cfg.lb_granularity = sim::msec(10);
  cfg.fetch_timeout = sim::msec(5);
  cfg.fetch_retries = 1;
  cfg.seed = 7;
  web::ClusterTestbed bed(simu, cfg);

  web::ClientGroupConfig ccfg;
  ccfg.threads_per_node = 6;
  ccfg.think = sim::msec(8);
  bed.add_clients(2, web::make_rubis_generator(), ccfg);

  // Self-monitoring: the front end registers an image of its own
  // snapshot as a memory region whose DMA hook rebuilds it at each READ's
  // DMA instant (RDMA-Sync applied to the monitor itself).
  telemetry::SnapshotImage meta;
  const net::MrKey meta_key = bed.fabric().nic(bed.frontend().id).register_mr(
      net::bytes_of(meta), [&](net::Verb, std::span<std::byte>&) {
        meta = telemetry::SnapshotImage(reg.snapshot());
      });

  // Crash backend0 for the middle of the run so health transitions and
  // fault events show up in the dumps.
  fault::FaultPlan plan;
  plan.crash_for(bed.backend(0).id, sim::TimePoint{sim::msec(400).ns},
                 sim::msec(300));
  fault::FaultInjector inj(bed.fabric());
  inj.arm(plan);

  // A reader node reads the front end's snapshot one-sided.
  os::Node reader(simu, {.name = "reader"});
  bed.fabric().attach(reader);
  telemetry::Snapshot remote;
  std::uint32_t remote_dropped = 0;
  bool remote_ok = false;
  reader.spawn("meta-reader", [&](os::SimThread& self) -> os::Program {
    co_await os::SleepFor{sim::msec(900)};
    net::CompletionQueue cq;
    net::QueuePair qp{bed.fabric().nic(reader.id), bed.frontend().id, cq};
    net::Completion c;
    co_await net::rdma_sync(
        self, qp,
        {.rkey = meta_key, .len = sizeof(telemetry::SnapshotImage)}, c);
    if (c.status == net::WcStatus::Success) {
      const auto image = c.data.as<telemetry::SnapshotImage>();
      remote = image.snapshot();
      remote_dropped = image.dropped;
      remote_ok = true;
    }
  });

  simu.run_for(sim::seconds(1));

  // 1. The human dashboard: grouped metrics.
  telemetry::print_dashboard(std::cout, reg.snapshot());

  // 2. Machine exports (what a scrape-file consumer would read).
  const telemetry::Snapshot snap = reg.snapshot();
  std::cout << "\n--- Prometheus exposition (first 15 lines) ---\n";
  const std::string prom = telemetry::to_prometheus(snap);
  std::size_t pos = 0;
  for (int i = 0; i < 15 && pos != std::string::npos; ++i) {
    const std::size_t nl = prom.find('\n', pos);
    std::cout << prom.substr(pos, nl - pos) << '\n';
    pos = nl == std::string::npos ? nl : nl + 1;
  }
  std::cout << "... (" << prom.size() << " bytes total)\n";

  telemetry::write_file("telemetry_snapshot.json",
                        telemetry::to_json(snap).dump(2) + "\n");
  telemetry::write_file("telemetry_flight.json",
                        reg.recorder().dump("dashboard").dump(2) + "\n");
  std::cout << "\nwrote telemetry_snapshot.json and telemetry_flight.json\n";

  // 3. The meta-monitoring read-back.
  std::cout << "\n--- self-monitoring: front-end snapshot via RDMA READ ---\n";
  if (remote_ok) {
    std::cout << "read a " << remote.entries.size()
              << "-metric snapshot taken at t=" << remote.at.ns << "ns\n";
    if (const auto* e = remote.find("lb.alive_backends")) {
      std::cout << "  lb.alive_backends at read time: " << e->value << '\n';
    }
  } else {
    std::cout << "remote read failed\n";
  }
  if (remote_dropped != 0) {
    std::cerr << remote_dropped
              << " metrics did not fit the snapshot image\n";
    return 1;
  }
  return 0;
}
