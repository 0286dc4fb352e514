// Poll-plane scaling: how one monitoring round over N back ends costs as
// N grows, per scheme, sequential sweep vs scatter-gather. The scatter
// engine issues a round's fetches concurrently (RDMA: one batched
// multi-READ post against per-target NIC DMA engines; sockets: one
// in-flight request per connection), so the RDMA round time is roughly
// flat in N while the sequential sweep grows linearly — and with it the
// age of the oldest sample a dispatch decision is based on.
#include <chrono>
#include <string>
#include <vector>

#include "args.hpp"
#include "common.hpp"
#include "report.hpp"
#include "lb/balancer.hpp"
#include "monitor/adaptive.hpp"
#include "monitor/inbox.hpp"
#include "monitor/monitor.hpp"
#include "monitor/scatter.hpp"
#include "net/fabric.hpp"
#include "os/node.hpp"
#include "sim/random.hpp"
#include "sim/simulation.hpp"
#include "sim/stats.hpp"

namespace {

using namespace rdmamon;
using monitor::Scheme;

struct RoundStats {
  sim::OnlineStats round_us;  ///< poll-round wall time
  sim::OnlineStats skew_us;   ///< round end minus the round's oldest fetch
};

/// Runs `rounds` poll rounds over N healthy back ends and reports round
/// time and max per-backend sample age at round end.
RoundStats run_rounds(Scheme scheme, int n, bool scatter_mode, int rounds) {
  sim::Simulation simu;
  net::Fabric fabric(simu, {});
  os::Node frontend(simu, {.name = "frontend"});
  fabric.attach(frontend);

  monitor::MonitorConfig mcfg;
  mcfg.scheme = scheme;
  std::vector<std::unique_ptr<os::Node>> backends;
  std::vector<std::unique_ptr<monitor::MonitorChannel>> channels;
  monitor::ScatterFetcher scatter;
  for (int i = 0; i < n; ++i) {
    os::NodeConfig cfg;
    cfg.name = "backend" + std::to_string(i);
    backends.push_back(std::make_unique<os::Node>(simu, cfg));
    fabric.attach(*backends.back());
    channels.push_back(std::make_unique<monitor::MonitorChannel>(
        fabric, frontend, *backends.back(), mcfg));
  }
  if (scatter_mode) {
    for (auto& ch : channels) scatter.add(ch->frontend());
  }

  RoundStats stats;
  frontend.spawn("poller", [&](os::SimThread& self) -> os::Program {
    co_await os::SleepFor{sim::msec(60)};  // async daemons publish once
    std::vector<monitor::MonitorSample> samples(channels.size());
    for (int r = 0; r < rounds; ++r) {
      const sim::TimePoint t0 = simu.now();
      if (scatter_mode) {
        co_await scatter.round_all(self, samples);
      } else {
        for (std::size_t i = 0; i < channels.size(); ++i) {
          co_await channels[i]->frontend().fetch(self, samples[i]);
        }
      }
      const sim::TimePoint t1 = simu.now();
      stats.round_us.add(static_cast<double>((t1 - t0).ns) / 1e3);
      std::int64_t max_age = 0;
      for (const monitor::MonitorSample& s : samples) {
        if (s.ok) max_age = std::max(max_age, (t1 - s.retrieved_at).ns);
      }
      stats.skew_us.add(static_cast<double>(max_age) / 1e3);
      co_await os::SleepFor{sim::msec(10)};
    }
  });
  simu.run_for(sim::seconds(60));
  return stats;
}

// --- thousands of back ends: the verbs fast path -----------------------------
//
// The sweep above stops where dedicated per-channel NIC state is still
// plausible. This one runs the RDMA-Sync scatter round out to N=2048 with
// the verbs fast path on — signal-every-8, DCT-style 16-context pool, CQ
// notification moderation, and a 64-entry bounded NIC context cache — and
// asserts the per-round cost stays ~flat: the round retires N READs with
// ~N/8 CQEs, one doorbell, a handful of consumer wakeups, and a context
// working set that FITS the cache however large N grows.

struct ScaleCell {
  sim::OnlineStats round_us;
  std::uint64_t qpc_misses = 0;
  std::uint64_t qpc_evictions = 0;
  std::uint64_t unsignaled = 0;
  std::uint64_t notifies = 0;
  std::uint64_t coalesced = 0;
};

ScaleCell run_scale_round(int n, bool shared_ctx, int rounds) {
  sim::Simulation simu;
  net::FabricConfig fc;
  fc.nic_ctx_cache_entries = 64;  // bounded: << N back ends
  net::Fabric fabric(simu, fc);
  os::Node frontend(simu, {.name = "frontend"});
  fabric.attach(frontend);

  net::VerbsTuning vt;
  vt.signal_every = 8;
  vt.shared_contexts = shared_ctx ? 16 : 0;
  vt.cq_mod_count = 8;

  monitor::MonitorConfig mcfg;
  mcfg.scheme = Scheme::RdmaSync;
  const std::vector<std::shared_ptr<net::QpContext>> pool =
      net::make_context_pool(fabric.nic(frontend.id), vt);
  std::vector<std::unique_ptr<os::Node>> backends;
  std::vector<std::unique_ptr<monitor::MonitorChannel>> channels;
  monitor::ScatterFetcher scatter;
  for (int i = 0; i < n; ++i) {
    os::NodeConfig cfg;
    cfg.name = "backend" + std::to_string(i);
    backends.push_back(std::make_unique<os::Node>(simu, cfg));
    fabric.attach(*backends.back());
    std::shared_ptr<net::QpContext> ctx =
        pool.empty() ? nullptr
                     : pool[static_cast<std::size_t>(i) % pool.size()];
    channels.push_back(std::make_unique<monitor::MonitorChannel>(
        fabric, frontend, *backends.back(), mcfg, std::move(ctx)));
  }
  for (auto& ch : channels) scatter.add(ch->frontend());
  scatter.cq().bind_moderation(simu, vt.cq_mod_count, vt.cq_mod_period);

  ScaleCell cell;
  frontend.spawn("poller", [&](os::SimThread& self) -> os::Program {
    std::vector<monitor::MonitorSample> samples(channels.size());
    for (int r = 0; r < rounds; ++r) {
      const sim::TimePoint t0 = simu.now();
      co_await scatter.round_all(self, samples);
      cell.round_us.add(static_cast<double>((simu.now() - t0).ns) / 1e3);
      co_await os::SleepFor{sim::msec(10)};
    }
  });
  simu.run_for(sim::seconds(5));

  const net::Nic& nic = fabric.nic(frontend.id);
  cell.qpc_misses = nic.qpc_misses();
  cell.qpc_evictions = nic.qpc_evictions();
  cell.unsignaled = nic.unsignaled_posted();
  cell.notifies = scatter.cq().notifies();
  cell.coalesced = scatter.cq().coalesced_polls();
  return cell;
}

// --- push vs pull vs adaptive: freshness per fabric byte ---------------------
//
// The pull rows above measure round cost; this sweep measures the trade
// the push scheme exists for. Each back end toggles between busy and idle
// phases (deterministic, seeded offsets), and the dispatcher's view is
// scored by VALUE error — the time-averaged |view load index - true load
// index| — against the fabric bytes the monitoring consumed. The headline
// metric cost = mean_error x bytes/sec rewards a scheme for being right
// cheaply: event-driven push wins at low change rates (it sends only when
// the load moves, and immediately), polling wins at high rates (its byte
// budget is flat while push pays per change); adaptive must land near the
// better of the two everywhere.

struct StrategyCell {
  double mean_err = 0.0;
  double bytes_per_sec = 0.0;
  double cost = 0.0;  ///< mean_err * bytes_per_sec (lower is better)
  std::uint64_t pushes = 0;
  std::uint64_t verifications = 0;
  std::uint64_t switches = 0;
};

StrategyCell run_strategy(monitor::MonitorStrategy strat, int n,
                          bool high_rate, std::uint64_t seed,
                          sim::Duration horizon) {
  sim::Simulation simu;
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
  // Busy/idle phase length: "low" change rate flips well under the poll
  // rate (1/granularity), "high" well above the push scheme's
  // min_interval damping.
  const sim::Duration phase = high_rate ? sim::msec(20) : sim::seconds(2);
  for (int i = 0; i < n; ++i) {
    os::NodeConfig cfg;
    cfg.name = "be" + std::to_string(i);
    backends.push_back(std::make_unique<os::Node>(simu, cfg));
    fabric.attach(*backends.back());
    lb.add_backend(std::make_unique<monitor::MonitorChannel>(
        fabric, frontend, *backends.back(), mcfg));
    // The load driver: alternate runnable and asleep, desynchronised by a
    // seeded offset so the cluster's changes spread over time.
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
      pubs.back()->target(frontend.id, inbox->mr_key(), i);
    }
    lb.on_mode_change([&pubs](std::size_t b, monitor::FetchMode m) {
      if (m == monitor::FetchMode::Pull) {
        pubs[b]->pause();
      } else {
        pubs[b]->resume();
      }
    });
    for (auto& p : pubs) p->start();
  }
  lb.start(frontend, sim::msec(50));
  // Sync publisher pause state with the initial per-backend mode (the
  // mode-change callback only fires on SWITCHES; adaptive starts in Pull).
  for (std::size_t b = 0; b < pubs.size(); ++b) {
    if (lb.fetch_mode(b) == monitor::FetchMode::Pull) pubs[b]->pause();
  }

  // Steady-state measurement: the first second (publisher ramp-up,
  // adaptive convergence) is excluded from both error and byte totals.
  const sim::Duration warmup = sim::seconds(1);
  auto total_bytes = [&] {
    std::uint64_t b = fabric.nic(frontend.id).rdma_wire_bytes();
    for (auto& be : backends) b += fabric.nic(be->id).rdma_wire_bytes();
    return b;
  };
  std::uint64_t base_bytes = 0;
  simu.at(sim::TimePoint{} + warmup, [&] { base_bytes = total_bytes(); });
  sim::OnlineStats err;
  const sim::Duration probe_every = sim::msec(10);
  for (sim::Duration t = warmup; t < warmup + horizon; t += probe_every) {
    simu.at(sim::TimePoint{} + t, [&] {
      for (int i = 0; i < n; ++i) {
        const double truth = lb::load_index(
            backends[static_cast<std::size_t>(i)]->procfs().snapshot(),
            weights);
        const monitor::MonitorSample& s = lb.last_sample(i);
        const double seen = s.ok ? lb::load_index(s.info, weights) : 0.0;
        err.add(std::abs(truth - seen));
      }
    });
  }
  simu.run_for(warmup + horizon);

  StrategyCell cell;
  cell.mean_err = err.mean();
  cell.bytes_per_sec =
      static_cast<double>(total_bytes() - base_bytes) / horizon.seconds();
  cell.cost = cell.mean_err * cell.bytes_per_sec;
  for (auto& p : pubs) cell.pushes += p->pushes();
  cell.verifications = lb.push_verifications();
  if (lb.adaptive() != nullptr) cell.switches = lb.adaptive()->total_switches();
  return cell;
}

}  // namespace

int main(int argc, char** argv) {
  const auto opt = rdmamon::bench::parse_args(argc, argv);
  const std::vector<int> ns =
      opt.quick ? std::vector<int>{4, 8, 16} : std::vector<int>{4, 8, 16, 32, 64};
  // One-sided schemes scale far enough that the interesting sizes are an
  // order of magnitude past the socket sweep; only the RDMA rows pay for
  // them (full mode — the sizes the timer-wheel kernel was built for).
  const std::vector<int> rdma_extra_ns =
      opt.quick ? std::vector<int>{} : std::vector<int>{128, 256};
  const int rounds = opt.quick ? 10 : 30;

  rdmamon::bench::banner(
      "scale-poll", "Poll-round cost vs cluster size (sequential vs scatter)",
      "one-sided monitoring makes per-round cost ~O(1) in N when scattered; "
      "a sequential sweep (and any two-sided scheme) pays per back end");

  rdmamon::bench::JsonReport report("scale_poll");
  report.stamp(opt.quick, opt.seed);
  report.set("rounds", rounds);

  for (const bool scatter_mode : {false, true}) {
    std::cout << "\n--- " << (scatter_mode ? "scatter" : "sequential")
              << " polling: mean round time (us) / max sample age at round "
                 "end (us) ---\n";
    rdmamon::util::Table table;
    std::vector<std::string> header = {"scheme"};
    for (int n : ns) header.push_back("N=" + std::to_string(n));
    for (int n : rdma_extra_ns) header.push_back("N=" + std::to_string(n));
    table.set_header(header);
    table.set_align(0, rdmamon::util::Align::Left);
    for (const Scheme scheme : rdmamon::monitor::kTransportSchemes) {
      const bool rdma = scheme == Scheme::RdmaAsync || scheme == Scheme::RdmaSync;
      std::vector<int> scheme_ns = ns;
      if (rdma) {
        scheme_ns.insert(scheme_ns.end(), rdma_extra_ns.begin(),
                         rdma_extra_ns.end());
      }
      std::vector<std::string> row = {rdmamon::monitor::to_string(scheme)};
      for (int n : scheme_ns) {
        const auto wall0 = std::chrono::steady_clock::now();
        const RoundStats s = run_rounds(scheme, n, scatter_mode, rounds);
        const double wall_ms =
            std::chrono::duration<double, std::milli>(
                std::chrono::steady_clock::now() - wall0)
                .count();
        row.push_back(rdmamon::bench::num(s.round_us.mean(), 1) + " / " +
                      rdmamon::bench::num(s.skew_us.mean(), 1));
        auto& r = report.add_result();
        r["scheme"] = rdmamon::monitor::to_string(scheme);
        r["mode"] = scatter_mode ? "scatter" : "sequential";
        r["n"] = n;
        r["round_mean_us"] = s.round_us.mean();
        r["skew_mean_us"] = s.skew_us.mean();
        // Host-side cost of simulating this cell: the DES-kernel perf
        // metric (simulated means above are kernel-independent).
        r["wall_ms"] = wall_ms;
      }
      while (row.size() < header.size()) row.push_back("-");
      table.add_row(row);
    }
    rdmamon::bench::show(table);
  }

  // The acceptance headline: RDMA-Sync scatter round time stays ~flat.
  const RoundStats small = run_rounds(Scheme::RdmaSync, ns.front(), true, rounds);
  const RoundStats large = run_rounds(Scheme::RdmaSync, ns.back(), true, rounds);
  std::cout << "\nRDMA-Sync scatter round, N=" << ns.front() << " -> N="
            << ns.back() << ": " << rdmamon::bench::num(small.round_us.mean(), 1)
            << "us -> " << rdmamon::bench::num(large.round_us.mean(), 1)
            << "us (" << rdmamon::bench::num(
                   large.round_us.mean() / small.round_us.mean(), 2)
            << "x; acceptance: <= 2x)\n";
  auto& headline = report.root()["headline"];
  headline = rdmamon::util::JsonValue::object();
  headline["scheme"] = "RDMA-Sync";
  headline["n_small"] = ns.front();
  headline["n_large"] = ns.back();
  headline["round_small_us"] = small.round_us.mean();
  headline["round_large_us"] = large.round_us.mean();
  headline["growth_factor"] =
      small.round_us.mean() > 0.0
          ? large.round_us.mean() / small.round_us.mean()
          : 0.0;

  // --- verbs fast path at thousands of back ends -----------------------------
  const std::vector<int> scale_ns =
      opt.quick ? std::vector<int>{256, 2048}
                : std::vector<int>{256, 1024, 2048};
  const int scale_rounds = opt.quick ? 5 : 10;
  std::cout << "\n--- RDMA-Sync scatter with the verbs fast path (k=8, 16 "
               "shared contexts, cq_mod=8, 64-entry NIC cache) ---\n";
  rdmamon::util::Table stable;
  stable.set_header({"contexts", "N", "round us", "qpc miss", "evict",
                     "unsignaled", "coalesced"});
  stable.set_align(0, rdmamon::util::Align::Left);
  auto& scale_results = report.root()["scale_results"];
  scale_results = rdmamon::util::JsonValue::array();
  double round_small = 0.0, round_large = 0.0, round_dedicated_large = 0.0;
  for (const bool shared_ctx : {true, false}) {
    // The dedicated-context contrast row runs only at the largest N: with
    // a bounded cache, N dedicated contexts are the thrash regime the
    // shared pool exists to avoid.
    const std::vector<int> row_ns =
        shared_ctx ? scale_ns : std::vector<int>{scale_ns.back()};
    for (int n : row_ns) {
      const auto wall0 = std::chrono::steady_clock::now();
      const ScaleCell c = run_scale_round(n, shared_ctx, scale_rounds);
      const double wall_ms = std::chrono::duration<double, std::milli>(
                                 std::chrono::steady_clock::now() - wall0)
                                 .count();
      stable.add_row({shared_ctx ? "shared(16)" : "dedicated",
                      std::to_string(n), rdmamon::bench::num(c.round_us.mean(), 1),
                      std::to_string(c.qpc_misses),
                      std::to_string(c.qpc_evictions),
                      std::to_string(c.unsignaled),
                      std::to_string(c.coalesced)});
      auto& r = scale_results.push_back(rdmamon::util::JsonValue::object());
      r["contexts"] = shared_ctx ? "shared" : "dedicated";
      r["n"] = n;
      r["round_mean_us"] = c.round_us.mean();
      r["qpc_misses"] = static_cast<double>(c.qpc_misses);
      r["qpc_evictions"] = static_cast<double>(c.qpc_evictions);
      r["unsignaled_posted"] = static_cast<double>(c.unsignaled);
      r["cq_notifies"] = static_cast<double>(c.notifies);
      r["cq_coalesced_polls"] = static_cast<double>(c.coalesced);
      r["wall_ms"] = wall_ms;
      if (shared_ctx && n == scale_ns.front()) round_small = c.round_us.mean();
      if (shared_ctx && n == scale_ns.back()) round_large = c.round_us.mean();
      if (!shared_ctx && n == scale_ns.back()) {
        round_dedicated_large = c.round_us.mean();
      }
    }
  }
  rdmamon::bench::show(stable);

  const double scale_flatness =
      round_small > 0.0 ? round_large / round_small : 0.0;
  std::cout << "\nverbs fast path, shared contexts: N=" << scale_ns.front()
            << " round " << rdmamon::bench::num(round_small, 1) << "us -> N="
            << scale_ns.back() << " round "
            << rdmamon::bench::num(round_large, 1) << "us ("
            << rdmamon::bench::num(scale_flatness, 3)
            << "x; acceptance: <= 1.25x); dedicated contexts at N="
            << scale_ns.back() << ": "
            << rdmamon::bench::num(round_dedicated_large, 1) << "us\n";
  auto& sh = report.root()["scale_headline"];
  sh = rdmamon::util::JsonValue::object();
  sh["n_small"] = scale_ns.front();
  sh["n_large"] = scale_ns.back();
  sh["round_small_us"] = round_small;
  sh["round_large_us"] = round_large;
  sh["round_dedicated_large_us"] = round_dedicated_large;
  sh["flatness_ratio"] = scale_flatness;

  // --- push / pull / adaptive freshness-per-byte sweep -----------------------
  const std::vector<int> push_ns =
      opt.quick ? std::vector<int>{16, 32} : std::vector<int>{64, 128, 256};
  const sim::Duration push_horizon =
      opt.quick ? sim::seconds(3) : sim::seconds(6);
  const std::vector<monitor::MonitorStrategy> strategies = {
      monitor::MonitorStrategy::Pull, monitor::MonitorStrategy::Push,
      monitor::MonitorStrategy::Adaptive};

  std::cout << "\n--- monitoring strategy: freshness x fabric cost "
               "(cost = mean view error * bytes/s; lower is better) ---\n";
  auto& push_results = report.root()["push_results"];
  push_results = rdmamon::util::JsonValue::array();
  // cost[rate][n][strategy], for the table and the headline assertion.
  std::vector<std::vector<std::vector<double>>> costs(
      2, std::vector<std::vector<double>>(
             push_ns.size(), std::vector<double>(strategies.size(), 0.0)));
  for (int rate = 0; rate < 2; ++rate) {
    const bool high_rate = rate == 1;
    rdmamon::util::Table table;
    std::vector<std::string> header = {
        std::string(high_rate ? "high" : "low") + "-rate strategy"};
    for (int n : push_ns) header.push_back("N=" + std::to_string(n));
    table.set_header(header);
    table.set_align(0, rdmamon::util::Align::Left);
    for (std::size_t si = 0; si < strategies.size(); ++si) {
      const monitor::MonitorStrategy strat = strategies[si];
      std::vector<std::string> row = {monitor::to_string(strat)};
      for (std::size_t ni = 0; ni < push_ns.size(); ++ni) {
        const int n = push_ns[ni];
        const StrategyCell c =
            run_strategy(strat, n, high_rate, opt.seed, push_horizon);
        costs[static_cast<std::size_t>(rate)][ni][si] = c.cost;
        row.push_back(rdmamon::bench::num(c.cost, 1) + " (" +
                      rdmamon::bench::num(c.mean_err, 3) + " x " +
                      rdmamon::bench::num(c.bytes_per_sec / 1e3, 1) + "KB/s)");
        auto& r = push_results.push_back(rdmamon::util::JsonValue::object());
        r["strategy"] = monitor::to_string(strat);
        r["rate"] = high_rate ? "high" : "low";
        r["n"] = n;
        r["mean_err"] = c.mean_err;
        r["bytes_per_sec"] = c.bytes_per_sec;
        r["cost"] = c.cost;
        r["pushes"] = static_cast<double>(c.pushes);
        r["verifications"] = static_cast<double>(c.verifications);
        r["switches"] = static_cast<double>(c.switches);
      }
      table.add_row(row);
    }
    rdmamon::bench::show(table);
  }

  // Push headline: at the largest N and low change rate, event-driven push
  // beats polling on freshness-per-byte, and adaptive tracks the better of
  // the two at every point of the sweep (CI asserts <= 1.1x).
  const std::size_t last_n = push_ns.size() - 1;
  double worst_ratio = 0.0;
  for (int rate = 0; rate < 2; ++rate) {
    for (std::size_t ni = 0; ni < push_ns.size(); ++ni) {
      const auto& cell = costs[static_cast<std::size_t>(rate)][ni];
      const double best = std::min(cell[0], cell[1]);
      if (best > 0.0) worst_ratio = std::max(worst_ratio, cell[2] / best);
    }
  }
  const double pull_low = costs[0][last_n][0];
  const double push_low = costs[0][last_n][1];
  std::cout << "\nPush vs pull at N=" << push_ns[last_n]
            << " low rate: " << rdmamon::bench::num(push_low, 1) << " vs "
            << rdmamon::bench::num(pull_low, 1)
            << " (acceptance: push < pull); adaptive worst ratio vs better "
               "scheme: "
            << rdmamon::bench::num(worst_ratio, 3)
            << "x (acceptance: <= 1.1x)\n";
  auto& ph = report.root()["push_headline"];
  ph = rdmamon::util::JsonValue::object();
  ph["n"] = push_ns[last_n];
  ph["pull_cost_low_rate"] = pull_low;
  ph["push_cost_low_rate"] = push_low;
  ph["push_beats_pull"] = push_low < pull_low;
  ph["adaptive_worst_ratio"] = worst_ratio;

  report.write();
  return 0;
}
