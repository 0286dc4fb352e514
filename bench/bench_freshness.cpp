// Information-age at dispatch: how old is the load view a dispatch
// decision is actually made on, per refresh strategy, as the cluster
// grows. Pull ages are bounded by the poll granularity (plus fetch
// latency); push ages by the publisher's change/heartbeat cadence and
// the inbox scan period; adaptive must land near the better of the two.
//
// Also the flight-recorder/lineage overhead proof: the same scenario is
// run with the telemetry plane (registry + flight recorder + lineage
// histograms) off and on, and the host wall-clock delta is reported.
// Both planes are wall-clock-only bookkeeping, so the simulated age
// figures must be identical; the wall delta is reported (not asserted —
// host timing is noisy) with a <= 1% budget note.
#include <algorithm>
#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "args.hpp"
#include "common.hpp"
#include "report.hpp"
#include "lb/balancer.hpp"
#include "monitor/adaptive.hpp"
#include "monitor/inbox.hpp"
#include "monitor/monitor.hpp"
#include "net/fabric.hpp"
#include "os/node.hpp"
#include "sim/random.hpp"
#include "sim/simulation.hpp"
#include "sim/stats.hpp"
#include "telemetry/registry.hpp"

namespace {

using namespace rdmamon;
using monitor::Scheme;

struct FreshCell {
  double mean_us = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  std::uint64_t dispatches = 0;
  double wall_ms = 0.0;  ///< host cost of simulating the cell
};

/// Telemetry-plane variants of one cell (overhead isolation).
enum class Plane {
  Off,          ///< no registry installed at all
  RecorderOff,  ///< registry + lineage on, flight recorder disabled
  On,           ///< the always-on default: everything recording
};

/// One cluster under one refresh strategy: N toggling back ends, a
/// balancer polling at the paper's T = 50 ms, and a dispatcher picking
/// every 2 ms. Records the view age behind every pick.
FreshCell run_freshness(monitor::MonitorStrategy strat, int n,
                        std::uint64_t seed, sim::Duration horizon,
                        Plane plane) {
  const auto wall0 = std::chrono::steady_clock::now();
  sim::Simulation simu;
  telemetry::Registry reg;
  if (plane != Plane::Off) {
    reg.install(simu);
    reg.recorder().set_enabled(plane == Plane::On);
  }
  net::Fabric fabric(simu, {});
  os::Node frontend(simu, {.name = "fe"});
  fabric.attach(frontend);

  const lb::WeightConfig weights =
      lb::WeightConfig::for_scheme(Scheme::RdmaSync);
  lb::LoadBalancer lb(weights);
  monitor::MonitorConfig mcfg;
  mcfg.scheme = Scheme::RdmaSync;
  std::vector<std::unique_ptr<os::Node>> backends;
  sim::Rng rng(seed);
  const sim::Duration phase = sim::msec(40);  // load flips ~12x per second
  for (int i = 0; i < n; ++i) {
    os::NodeConfig cfg;
    cfg.name = "be" + std::to_string(i);
    backends.push_back(std::make_unique<os::Node>(simu, cfg));
    fabric.attach(*backends.back());
    lb.add_backend(std::make_unique<monitor::MonitorChannel>(
        fabric, frontend, *backends.back(), mcfg));
    const sim::Duration offset{rng.uniform_int(0, 2 * phase.ns)};
    backends.back()->spawn(
        "toggler", [phase, offset](os::SimThread&) -> os::Program {
          co_await os::SleepFor{offset};
          for (;;) {
            co_await os::Compute{phase};
            co_await os::SleepFor{phase};
          }
        });
  }

  std::unique_ptr<monitor::PushInbox> inbox;
  std::vector<std::unique_ptr<monitor::PushPublisher>> pubs;
  if (strat != monitor::MonitorStrategy::Pull) {
    inbox = std::make_unique<monitor::PushInbox>(fabric, frontend, n);
    lb.enable_push(*inbox, {strat});
    for (int i = 0; i < n; ++i) {
      pubs.push_back(std::make_unique<monitor::PushPublisher>(
          fabric, *backends[static_cast<std::size_t>(i)]));
      pubs.back()->target(*inbox, i);
    }
    for (auto& p : pubs) p->start();
  }
  lb.start(frontend, sim::msec(50));

  // The dispatcher: every pick() appends a DispatchRecord with the view
  // age the decision used; reading the ring's tail right after the pick
  // gives the exact per-dispatch lineage without unbounded buffering.
  const sim::Duration warmup = sim::seconds(1);
  sim::Histogram age_us;
  frontend.spawn("dispatcher", [&](os::SimThread&) -> os::Program {
    co_await os::SleepFor{warmup};
    for (;;) {
      (void)lb.pick();
      if (!lb.dispatch_log().empty()) {
        const lb::DispatchRecord& r = lb.dispatch_log().back();
        if (r.view_age.ns >= 0) {
          age_us.add(static_cast<double>(r.view_age.ns) / 1e3);
        }
      }
      co_await os::SleepFor{sim::msec(2)};
    }
  });
  simu.run_for(warmup + horizon);

  FreshCell cell;
  cell.mean_us = age_us.mean();
  cell.p50_us = age_us.percentile(0.50);
  cell.p99_us = age_us.percentile(0.99);
  cell.dispatches = age_us.count();
  cell.wall_ms = std::chrono::duration<double, std::milli>(
                     std::chrono::steady_clock::now() - wall0)
                     .count();
  return cell;
}

}  // namespace

int main(int argc, char** argv) {
  const auto opts = rdmamon::bench::parse_args(argc, argv);
  using rdmamon::bench::num;
  rdmamon::bench::banner(
      "freshness", "Information age at dispatch per refresh strategy",
      "how stale is the view a dispatch decision is actually made on; "
      "push/adaptive buy freshness that polling granularity cannot");

  const std::vector<int> ns =
      opts.quick ? std::vector<int>{16, 64} : std::vector<int>{64, 256};
  const sim::Duration horizon =
      opts.quick ? sim::seconds(3) : sim::seconds(6);
  const std::vector<monitor::MonitorStrategy> strategies = {
      monitor::MonitorStrategy::Pull, monitor::MonitorStrategy::Push,
      monitor::MonitorStrategy::Adaptive};

  rdmamon::bench::JsonReport report("freshness");
  report.stamp(opts.quick, opts.seed);
  report.set("horizon_seconds", horizon.seconds());

  std::cout << "\n--- information age at dispatch: p50 / p99 (us) ---\n";
  rdmamon::util::Table table;
  std::vector<std::string> header = {"strategy"};
  for (int n : ns) header.push_back("N=" + std::to_string(n));
  table.set_header(header);
  table.set_align(0, rdmamon::util::Align::Left);
  for (const monitor::MonitorStrategy strat : strategies) {
    std::vector<std::string> row = {monitor::to_string(strat)};
    for (int n : ns) {
      const FreshCell c =
          run_freshness(strat, n, opts.seed, horizon, Plane::On);
      row.push_back(num(c.p50_us, 1) + " / " + num(c.p99_us, 1));
      auto& r = report.add_result();
      r["strategy"] = monitor::to_string(strat);
      r["n"] = n;
      r["age_mean_us"] = c.mean_us;
      r["age_p50_us"] = c.p50_us;
      r["age_p99_us"] = c.p99_us;
      r["dispatches"] = static_cast<double>(c.dispatches);
      r["wall_ms"] = c.wall_ms;
    }
    table.add_row(row);
  }
  rdmamon::bench::show(table);

  // --- recorder + lineage overhead ----------------------------------------
  // Same scenario, three telemetry-plane variants: no registry at all,
  // registry with the flight recorder disabled, and the always-on
  // default. Both planes are host-side bookkeeping only, so the simulated
  // age figures must match exactly; the wall deltas price them. The
  // recorder's own delta (recorder-off -> on) carries the <= 1% budget.
  // Best-of-3 wall per variant tames scheduler noise; reported, not
  // asserted — host timing is not a CI-stable signal.
  std::cout << "\nRecorder + lineage overhead (best-of-3 wall clock):\n";
  const int on = ns.back();
  const monitor::MonitorStrategy ostrat = monitor::MonitorStrategy::Adaptive;
  double wall[3] = {1e300, 1e300, 1e300};
  double age[3] = {0.0, 0.0, 0.0};
  const Plane planes[3] = {Plane::Off, Plane::RecorderOff, Plane::On};
  const int reps = 3;
  for (int r = 0; r < reps; ++r) {
    for (int p = 0; p < 3; ++p) {
      const FreshCell c = run_freshness(ostrat, on, opts.seed, horizon,
                                        planes[p]);
      wall[p] = std::min(wall[p], c.wall_ms);
      age[p] = c.mean_us;
    }
  }
  const double recorder_pct =
      wall[1] > 0.0 ? (wall[2] / wall[1] - 1.0) * 100.0 : 0.0;
  const double plane_pct =
      wall[0] > 0.0 ? (wall[2] / wall[0] - 1.0) * 100.0 : 0.0;
  std::cout << "  adaptive, N=" << on << ": no-registry " << num(wall[0], 1)
            << "ms, recorder-off " << num(wall[1], 1) << "ms, recorder-on "
            << num(wall[2], 1) << "ms\n  recorder delta "
            << num(recorder_pct, 2) << "% (budget <= 1%); whole telemetry "
            << "plane " << num(plane_pct, 2)
            << "%\n  simulated mean age across variants: " << num(age[0], 2)
            << " / " << num(age[1], 2) << " / " << num(age[2], 2)
            << "us (must be identical: recording charges no simulated "
               "time)\n";
  auto& o = report.root()["recorder_overhead"];
  o = rdmamon::util::JsonValue::object();
  o["strategy"] = monitor::to_string(ostrat);
  o["n"] = on;
  o["wall_ms_no_registry"] = wall[0];
  o["wall_ms_recorder_off"] = wall[1];
  o["wall_ms_recorder_on"] = wall[2];
  o["recorder_delta_pct"] = recorder_pct;
  o["telemetry_plane_delta_pct"] = plane_pct;
  o["ages_match"] = age[0] == age[1] && age[1] == age[2];

  report.write();
  return 0;
}
