// Front-end scale-out: M cooperating front ends over one set of N back
// ends, polling partitioned by the consistent-hash ring and shard views
// exchanged through one-sided gossip READs. The claim under test: the
// monitoring work each BACK END sees is constant in M (each is polled by
// exactly one owner per round — scaling the control plane out does not
// multiply the probe load), the per-front-end share drops ~1/M, and the
// price of everyone-still-sees-everything is M-1 view READs per front end
// per gossip period, each sized to the peer's shard (64 B plus 104 B per
// owned back end), whose staleness stays bounded.
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "args.hpp"
#include "cluster/scaleout.hpp"
#include "common.hpp"
#include "monitor/monitor.hpp"
#include "net/fabric.hpp"
#include "os/node.hpp"
#include "report.hpp"
#include "sim/simulation.hpp"

namespace {

using namespace rdmamon;

struct Cell {
  double polls_per_backend_sec;  ///< successful owner polls per back end
  double gossip_reads_sec;       ///< total peer-view READs issued
  double gossip_bytes_per_read;  ///< mean wire footprint of one view READ
  double gossip_kb_per_sec;      ///< view-READ wire KB per simulated s
  double mean_view_age_us;       ///< mean over FEs of max peer-view age
  double mean_fetch_us;          ///< mean monitoring fetch latency
  int min_shard;                 ///< ring spread across the M owners
  int max_shard;
  std::uint64_t stale_marks;     ///< staleness strikes (0 in healthy runs)
};

/// `verbs_fast` turns on the verbs fast path sized for thousands of back
/// ends: signal-every-8 over a 16-context DCT-style pool, CQ moderation,
/// and a 64-entry bounded NIC context cache (see net::VerbsTuning).
Cell run_cell(int frontends, int backends, sim::Duration run,
              bool verbs_fast = false) {
  sim::Simulation simu;
  net::FabricConfig fc;
  if (verbs_fast) fc.nic_ctx_cache_entries = 64;
  net::Fabric fabric(simu, fc);

  // Front ends attach first (fabric ids 0..M-1), matching the testbed.
  std::vector<std::unique_ptr<os::Node>> fe_nodes;
  for (int m = 0; m < frontends; ++m) {
    fe_nodes.push_back(std::make_unique<os::Node>(
        simu, os::NodeConfig{.name = "frontend" + std::to_string(m)}));
    fabric.attach(*fe_nodes.back());
  }
  std::vector<std::unique_ptr<os::Node>> be_nodes;
  for (int b = 0; b < backends; ++b) {
    be_nodes.push_back(std::make_unique<os::Node>(
        simu, os::NodeConfig{.name = "backend" + std::to_string(b)}));
    fabric.attach(*be_nodes.back());
  }

  monitor::MonitorConfig mcfg;
  mcfg.scheme = monitor::Scheme::RdmaSync;
  mcfg.period = sim::msec(10);
  cluster::ScaleOutConfig scfg;  // 25 ms gossip, 200 ms staleness bound
  if (verbs_fast) {
    scfg.verbs.signal_every = 8;
    scfg.verbs.shared_contexts = 16;
    scfg.verbs.cq_mod_count = 8;
  }
  cluster::ScaleOutPlane plane(fabric, scfg, mcfg);
  for (auto& fe : fe_nodes) plane.add_frontend(*fe, {});
  for (auto& be : be_nodes) plane.add_backend(*be);
  plane.start(sim::msec(10));

  simu.run_for(run);

  Cell cell{};
  std::uint64_t total_polls = 0, total_reads = 0, gossip_bytes = 0;
  double age_sum = 0.0, fetch_sum = 0.0;
  int fetch_cells = 0;
  cell.min_shard = backends;
  cell.max_shard = 0;
  for (int m = 0; m < frontends; ++m) {
    cluster::FrontendPlane& fp = plane.frontend(m);
    for (std::uint64_t p : fp.poll_counts()) total_polls += p;
    total_reads += fp.gossip_reads_ok() + fp.gossip_reads_failed();
    gossip_bytes += fp.gossip_wire_bytes();
    age_sum += static_cast<double>(fp.max_peer_view_age().ns) / 1e3;
    if (fp.balancer().fetch_latency_ns().count() > 0) {
      fetch_sum += fp.balancer().fetch_latency_ns().mean() / 1e3;
      ++fetch_cells;
    }
    cell.stale_marks += fp.stale_marks();
    const int owned = fp.owned_count();
    cell.min_shard = std::min(cell.min_shard, owned);
    cell.max_shard = std::max(cell.max_shard, owned);
  }
  const double secs = static_cast<double>(run.ns) / 1e9;
  cell.polls_per_backend_sec =
      static_cast<double>(total_polls) / backends / secs;
  cell.gossip_reads_sec = static_cast<double>(total_reads) / secs;
  cell.gossip_bytes_per_read =
      total_reads > 0 ? static_cast<double>(gossip_bytes) /
                            static_cast<double>(total_reads)
                      : 0.0;
  cell.gossip_kb_per_sec = static_cast<double>(gossip_bytes) / 1024.0 / secs;
  cell.mean_view_age_us = frontends > 1 ? age_sum / frontends : 0.0;
  cell.mean_fetch_us = fetch_cells > 0 ? fetch_sum / fetch_cells : 0.0;
  return cell;
}

}  // namespace

int main(int argc, char** argv) {
  const auto opt = rdmamon::bench::parse_args(argc, argv);
  using rdmamon::bench::num;
  const std::vector<int> ms = {1, 2, 4, 8};
  const std::vector<int> ns =
      opt.quick ? std::vector<int>{16} : std::vector<int>{16, 64, 256};
  const sim::Duration run = opt.quick ? sim::seconds(2) : sim::seconds(5);

  rdmamon::bench::banner(
      "scale-frontends",
      "Cooperative polling: M front ends sharing one N-back-end cluster",
      "per-backend probe load stays flat as M grows (ownership partitions "
      "the rounds); gossip READ traffic is the only cost of scale-out");

  rdmamon::bench::JsonReport report("scale_frontends");
  report.stamp(opt.quick, opt.seed);
  report.set("run_seconds", static_cast<double>(run.ns) / 1e9);

  double rate_m1_largest = 0.0, rate_m8_largest = 0.0;
  for (int n : ns) {
    std::cout << "\n--- N=" << n
              << " back ends: polls/backend/s | gossip READs/s | mean max "
                 "peer-view age (us) | shard spread ---\n";
    rdmamon::util::Table table;
    table.set_header({"frontends", "polls/be/s", "gossip rd/s",
                      "B/gossip rd", "view age us", "shards", "stale"});
    table.set_align(0, rdmamon::util::Align::Left);
    for (int m : ms) {
      const auto wall0 = std::chrono::steady_clock::now();
      const Cell c = run_cell(m, n, run);
      const double wall_ms = std::chrono::duration<double, std::milli>(
                                 std::chrono::steady_clock::now() - wall0)
                                 .count();
      table.add_row({"M=" + std::to_string(m),
                     num(c.polls_per_backend_sec, 1),
                     num(c.gossip_reads_sec, 1),
                     num(c.gossip_bytes_per_read, 0),
                     num(c.mean_view_age_us, 1),
                     std::to_string(c.min_shard) + ".." +
                         std::to_string(c.max_shard),
                     std::to_string(c.stale_marks)});
      auto& r = report.add_result();
      r["frontends"] = m;
      r["backends"] = n;
      r["polls_per_backend_sec"] = c.polls_per_backend_sec;
      r["gossip_reads_sec"] = c.gossip_reads_sec;
      r["gossip_bytes_per_read"] = c.gossip_bytes_per_read;
      r["gossip_kb_per_sec"] = c.gossip_kb_per_sec;
      r["mean_view_age_us"] = c.mean_view_age_us;
      r["mean_fetch_us"] = c.mean_fetch_us;
      r["min_shard"] = c.min_shard;
      r["max_shard"] = c.max_shard;
      r["stale_marks"] = static_cast<double>(c.stale_marks);
      r["wall_ms"] = wall_ms;
      if (n == ns.back() && m == 1) rate_m1_largest = c.polls_per_backend_sec;
      if (n == ns.back() && m == 8) rate_m8_largest = c.polls_per_backend_sec;
    }
    rdmamon::bench::show(table);
  }

  // The acceptance headline: scaling front ends 1 -> 8 leaves the probe
  // load each back end serves flat (the rounds are partitioned, never
  // duplicated) — within 10% at the largest N.
  const double ratio =
      rate_m1_largest > 0.0 ? rate_m8_largest / rate_m1_largest : 0.0;
  std::cout << "\nper-backend polls/s at N=" << ns.back()
            << ": M=1 " << num(rate_m1_largest, 1) << " -> M=8 "
            << num(rate_m8_largest, 1) << " (" << num(ratio, 3)
            << "x; acceptance: 0.9..1.1)\n";
  auto& headline = report.root()["headline"];
  headline = rdmamon::util::JsonValue::object();
  headline["n"] = ns.back();
  headline["polls_per_backend_sec_m1"] = rate_m1_largest;
  headline["polls_per_backend_sec_m8"] = rate_m8_largest;
  headline["flatness_ratio"] = ratio;

  // --- N=2048 with the verbs fast path --------------------------------------
  // The sweep above keeps dedicated per-channel NIC contexts; at N in the
  // thousands that footprint is exactly what a real NIC's context cache
  // cannot hold, so this cell turns on the shared-context/selective-
  // signaling path and shows the per-backend probe load still partitions
  // flat as front ends are added.
  const int big_n = 2048;
  const sim::Duration big_run = opt.quick ? sim::seconds(1) : sim::seconds(2);
  std::cout << "\n--- N=" << big_n
            << " back ends, verbs fast path (k=8, 16 shared contexts, "
               "cq_mod=8, 64-entry NIC cache) ---\n";
  rdmamon::util::Table vt;
  vt.set_header({"frontends", "polls/be/s", "view age us", "shards", "stale"});
  vt.set_align(0, rdmamon::util::Align::Left);
  auto& big_results = report.root()["verbs_2048_results"];
  big_results = rdmamon::util::JsonValue::array();
  double big_m1 = 0.0, big_m4 = 0.0;
  for (int m : {1, 4}) {
    const auto wall0 = std::chrono::steady_clock::now();
    const Cell c = run_cell(m, big_n, big_run, /*verbs_fast=*/true);
    const double wall_ms = std::chrono::duration<double, std::milli>(
                               std::chrono::steady_clock::now() - wall0)
                               .count();
    vt.add_row({"M=" + std::to_string(m), num(c.polls_per_backend_sec, 1),
                num(c.mean_view_age_us, 1),
                std::to_string(c.min_shard) + ".." +
                    std::to_string(c.max_shard),
                std::to_string(c.stale_marks)});
    auto& r = big_results.push_back(rdmamon::util::JsonValue::object());
    r["frontends"] = m;
    r["backends"] = big_n;
    r["polls_per_backend_sec"] = c.polls_per_backend_sec;
    r["gossip_bytes_per_read"] = c.gossip_bytes_per_read;
    r["gossip_kb_per_sec"] = c.gossip_kb_per_sec;
    r["mean_view_age_us"] = c.mean_view_age_us;
    r["stale_marks"] = static_cast<double>(c.stale_marks);
    r["wall_ms"] = wall_ms;
    if (m == 1) big_m1 = c.polls_per_backend_sec;
    if (m == 4) big_m4 = c.polls_per_backend_sec;
  }
  rdmamon::bench::show(vt);
  const double big_ratio = big_m1 > 0.0 ? big_m4 / big_m1 : 0.0;
  std::cout << "\nper-backend polls/s at N=" << big_n << " (verbs fast "
            << "path): M=1 " << num(big_m1, 1) << " -> M=4 " << num(big_m4, 1)
            << " (" << num(big_ratio, 3) << "x; acceptance: 0.85..1.15)\n";
  auto& bh = report.root()["verbs_2048_headline"];
  bh = rdmamon::util::JsonValue::object();
  bh["n"] = big_n;
  bh["polls_per_backend_sec_m1"] = big_m1;
  bh["polls_per_backend_sec_m4"] = big_m4;
  bh["flatness_ratio"] = big_ratio;

  report.write();
  return 0;
}
