// Figure 5: accuracy of the reported load information vs the kernel's
// ground truth while client-request load on the back end ramps up.
//  (a) deviation of the reported runnable-thread count
//  (b) deviation of the reported CPU load
// Paper shape: RDMA-Sync tracks the kernel exactly; RDMA-Async deviates on
// the fast-moving CPU signal; both socket schemes deviate most, and worse
// as the server gets busier.

#include "args.hpp"
#include "common.hpp"
#include "report.hpp"
#include "monitor/accuracy.hpp"
#include "monitor/monitor.hpp"
#include "net/fabric.hpp"
#include "os/node.hpp"
#include "sim/simulation.hpp"
#include "web/request.hpp"
#include "web/server.hpp"
#include "workload/rubis.hpp"

namespace {

using namespace rdmamon;
using monitor::Scheme;

struct Deviation {
  double nr_running;
  double cpu_load;
};

/// Runs `scheme` against a back end serving `active_clients` closed-loop
/// request streams; returns the mean absolute deviations.
Deviation measure(Scheme scheme, int active_clients, sim::Duration run,
                  std::uint64_t seed) {
  sim::Simulation simu;
  net::Fabric fabric(simu, {});
  os::Node frontend(simu, {.name = "frontend"});
  // A short utilisation window makes the kernel's CPU-load signal as
  // volatile as the paper describes ("CPU load fluctuates more rapidly
  // ... than the number of threads"); staleness then shows up as error.
  os::NodeConfig bcfg;
  bcfg.name = "backend";
  bcfg.load_window = sim::msec(20);
  os::Node backend(simu, bcfg);
  os::Node client(simu, {.name = "client"});
  fabric.attach(frontend);
  fabric.attach(backend);
  fabric.attach(client);

  // Back-end web server fed directly by client threads.
  web::ServerConfig scfg;
  web::WebServer server(fabric, backend, scfg);
  workload::RubisWorkload wl;
  sim::Rng rng(seed);
  for (int i = 0; i < active_clients; ++i) {
    net::Connection& conn = fabric.connect(client, backend);
    server.listen(conn.end_b());
    auto crng = std::make_shared<sim::Rng>(rng.split());
    client.spawn("client" + std::to_string(i),
                 [&wl, sock = &conn.end_a(), crng](os::SimThread& self)
                     -> os::Program {
                   std::uint64_t id = 1;
                   for (;;) {
                     // Bursty arrivals: a run of back-to-back requests,
                     // then an idle gap — the on/off pattern that makes
                     // the CPU load swing.
                     const int burst =
                         1 + static_cast<int>(crng->uniform_int(0, 4));
                     for (int b = 0; b < burst; ++b) {
                       const auto inst = wl.sample_instance(*crng);
                       web::Request req;
                       req.id = id++;
                       req.demand.cpu_php = inst.php_cpu;
                       req.demand.cpu_db = inst.db_cpu;
                       req.demand.io_wait = inst.db_io;
                       req.demand.reply_bytes = inst.reply_bytes;
                       co_await sock->send(self, 512, req);
                       net::Message m;
                       co_await sock->recv(self, m);
                     }
                     co_await os::SleepFor{sim::nsec(
                         static_cast<std::int64_t>(crng->exponential(
                             static_cast<double>(sim::msec(40).ns))))};
                   }
                 });
  }

  monitor::MonitorConfig mcfg;
  mcfg.scheme = scheme;
  monitor::MonitorChannel chan(fabric, frontend, backend, mcfg);

  monitor::AccuracyTracker acc;
  frontend.spawn("mon", [&](os::SimThread& self) -> os::Program {
    co_await os::SleepFor{sim::msec(500)};  // warm-up
    for (;;) {
      monitor::MonitorSample s;
      co_await chan.frontend().fetch(self, s);
      // Ground truth is the fine-grained kernel module's view at the
      // instant the sample arrives.
      acc.record(s, chan.frontend().ground_truth());
      co_await os::SleepFor{sim::msec(23)};  // out of phase with T
    }
  });
  simu.run_for(run);
  return Deviation{acc.nr_running_deviation().mean(),
                   acc.cpu_load_deviation().mean()};
}

}  // namespace

int main(int argc, char** argv) {
  const auto opts = rdmamon::bench::parse_args(argc, argv);
  using rdmamon::bench::num;
  rdmamon::bench::banner(
      "Figure 5", "Accuracy of reported load vs kernel ground truth",
      "(a) thread-count deviation ~0 only for RDMA-Sync; (b) CPU-load "
      "deviation grows with server load for the other schemes");

  const std::vector<int> clients = opts.quick ? std::vector<int>{0, 16}
                                              : std::vector<int>{0, 4, 8,
                                                                 16, 32};
  const sim::Duration run = opts.quick ? sim::seconds(4) : sim::seconds(10);

  rdmamon::bench::JsonReport report("fig5_accuracy");
  report.stamp(opts.quick, opts.seed);

  std::vector<std::string> labels;
  for (int c : clients) labels.push_back(std::to_string(c));

  rdmamon::util::Table ta;
  std::vector<std::string> header = {"clients ->"};
  for (int c : clients) header.push_back(std::to_string(c));
  ta.set_header(header);
  ta.set_align(0, rdmamon::util::Align::Left);
  rdmamon::util::Table tb = ta;

  rdmamon::util::AsciiChart chart_a("(a) |reported - actual| threads",
                                    labels);
  rdmamon::util::AsciiChart chart_b("(b) |reported - actual| CPU load",
                                    labels);

  for (monitor::Scheme s : monitor::kTransportSchemes) {
    std::vector<std::string> row_a = {monitor::to_string(s)};
    std::vector<std::string> row_b = {monitor::to_string(s)};
    std::vector<double> ya, yb;
    for (int c : clients) {
      const Deviation d = measure(s, c, run, opts.seed);
      row_a.push_back(num(d.nr_running, 2));
      row_b.push_back(num(d.cpu_load, 3));
      ya.push_back(d.nr_running);
      yb.push_back(d.cpu_load);
      auto& r = report.add_result();
      r["scheme"] = monitor::to_string(s);
      r["clients"] = c;
      r["nr_running_dev"] = d.nr_running;
      r["cpu_load_dev"] = d.cpu_load;
    }
    ta.add_row(row_a);
    tb.add_row(row_b);
    chart_a.add_series({monitor::to_string(s), ya});
    chart_b.add_series({monitor::to_string(s), yb});
  }

  std::cout << "\n(a) Mean |deviation| of reported runnable threads:\n";
  rdmamon::bench::show(ta);
  rdmamon::bench::show(chart_a);
  std::cout << "(b) Mean |deviation| of reported CPU load (0..1):\n";
  rdmamon::bench::show(tb);
  rdmamon::bench::show(chart_b);
  report.write();
  return 0;
}
