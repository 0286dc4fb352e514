// Figure 6: ability of each scheme to observe pending interrupts (the
// irq_stat kernel structure) on both CPUs of a loaded back end.
// Paper shape: the user-space paths (Socket-Async/Sync, RDMA-Async) report
// few and infrequent pending interrupts — their sampling instant is a
// moment when the OS has already drained interrupt work. RDMA-Sync samples
// at DMA instants uncorrelated with host state and reports far more,
// especially on the CPU that takes the NIC's interrupts (CPU 1).
#include <memory>

#include "args.hpp"
#include "common.hpp"
#include "report.hpp"
#include "monitor/monitor.hpp"
#include "net/fabric.hpp"
#include "os/node.hpp"
#include "sim/simulation.hpp"
#include "workload/synthetic.hpp"

namespace {

using namespace rdmamon;
using monitor::Scheme;

struct IrqObservation {
  int samples = 0;
  int nonzero_cpu0 = 0;
  int nonzero_cpu1 = 0;
  long total_cpu0 = 0;
  long total_cpu1 = 0;
};

IrqObservation observe(Scheme scheme, sim::Duration run) {
  sim::Simulation simu;
  net::Fabric fabric(simu, {});
  os::Node frontend(simu, {.name = "frontend"});
  os::NodeConfig bcfg;
  bcfg.name = "backend";
  bcfg.timer_irq = true;  // timer interrupts land on CPU 0
  os::Node backend(simu, bcfg);
  os::Node peer(simu, {.name = "peer"});
  fabric.attach(frontend);
  fabric.attach(backend);
  fabric.attach(peer);

  // Bursty network load: NIC interrupts land on CPU 1 (HCA affinity).
  workload::BackgroundLoadConfig bl;
  bl.threads = 8;
  bl.burst = 32;
  bl.compute_slice = sim::msec(2);
  bl.message_bytes = 2048;
  workload::BackgroundLoad bg(fabric, backend, peer, bl);

  monitor::MonitorConfig mcfg;
  mcfg.scheme = scheme;
  monitor::MonitorChannel chan(fabric, frontend, backend, mcfg);

  IrqObservation obs;
  frontend.spawn("mon", [&](os::SimThread& self) -> os::Program {
    co_await os::SleepFor{sim::msec(200)};
    for (;;) {
      monitor::MonitorSample s;
      co_await chan.frontend().fetch(self, s);
      if (s.ok && s.info.cpus >= 2) {
        ++obs.samples;
        if (s.info.irq_pending[0] > 0) ++obs.nonzero_cpu0;
        if (s.info.irq_pending[1] > 0) ++obs.nonzero_cpu1;
        obs.total_cpu0 += s.info.irq_pending[0];
        obs.total_cpu1 += s.info.irq_pending[1];
      }
      co_await os::SleepFor{sim::msec(10)};
    }
  });
  simu.run_for(run);
  return obs;
}

}  // namespace

int main(int argc, char** argv) {
  const auto opts = rdmamon::bench::parse_args(argc, argv);
  rdmamon::bench::banner(
      "Figure 6", "Pending interrupts reported on both CPUs, per scheme",
      "RDMA-Sync reports many more pending interrupts than the user-space "
      "paths, most of them on CPU 1 (the NIC's interrupt CPU)");

  const sim::Duration run = opts.quick ? sim::seconds(4) : sim::seconds(15);

  rdmamon::bench::JsonReport report("fig6_interrupts");
  report.stamp(opts.quick, opts.seed);

  rdmamon::util::Table table;
  table.set_header({"scheme", "samples", "CPU0 nonzero", "CPU1 nonzero",
                    "CPU0 total", "CPU1 total"});
  table.set_align(0, rdmamon::util::Align::Left);

  std::vector<std::string> labels;
  std::vector<double> cpu0_series, cpu1_series;
  for (monitor::Scheme s : monitor::kTransportSchemes) {
    const IrqObservation o = observe(s, run);
    table.add_row({monitor::to_string(s), std::to_string(o.samples),
                   std::to_string(o.nonzero_cpu0),
                   std::to_string(o.nonzero_cpu1),
                   std::to_string(o.total_cpu0),
                   std::to_string(o.total_cpu1)});
    labels.push_back(monitor::to_string(s));
    cpu0_series.push_back(static_cast<double>(o.total_cpu0));
    cpu1_series.push_back(static_cast<double>(o.total_cpu1));
    auto& r = report.add_result();
    r["scheme"] = monitor::to_string(s);
    r["samples"] = o.samples;
    r["nonzero_cpu0"] = o.nonzero_cpu0;
    r["nonzero_cpu1"] = o.nonzero_cpu1;
    r["total_cpu0"] = static_cast<std::int64_t>(o.total_cpu0);
    r["total_cpu1"] = static_cast<std::int64_t>(o.total_cpu1);
  }
  std::cout << "\nInterrupts observed via irq_stat (bursty NIC load):\n";
  rdmamon::bench::show(table);
  rdmamon::util::AsciiChart chart("total pending interrupts observed",
                                  labels);
  chart.add_series({"CPU0", cpu0_series});
  chart.add_series({"CPU1", cpu1_series});
  rdmamon::bench::show(chart);
  report.write();
  return 0;
}
