// One workload run in one process; prints one JSON object on stdout.
//
//   perfbench_run --workload <name> --seed <n> --mode <mode>
//
// Modes: plain (the untraced run behind the end-to-end metrics), cpu
// (SIGPROF stack samples plus spans around the benchmark's own calls),
// allocs (the stack of every k-th allocation), noreg (the registry-off
// replica). run.py starts these processes and aggregates their output.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "probe.hpp"
#include "profiler.hpp"
#include "telemetry/export.hpp"
#include "util/json.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

/// Every k-th allocation's stack is charged to a layer in allocs mode.
constexpr std::uint64_t kAllocSampleEvery = 97;
/// Requested SIGPROF period; the kernel rounds it up to its tick.
constexpr int kProfIntervalUs = 1000;

util::JsonValue tally_json(const LayerTally& t) {
  util::JsonValue j = util::JsonValue::object();
  for (std::size_t l = 0; l < kLayers; ++l) {
    j[layer_name(static_cast<Layer>(l))] = t[l];
  }
  return j;
}

util::JsonValue json_list(const std::vector<std::string>& items) {
  util::JsonValue j = util::JsonValue::array();
  for (const std::string& item : items) j.push_back(item);
  return j;
}

/// Client response-time percentile where a refused request counts as
/// slower than any served one (so it may read +infinity).
double response_ms(const sim::Histogram& h, std::uint64_t refused, double q) {
  const std::uint64_t n = h.count() + refused;
  if (n == 0) return 0.0;
  const auto rank =
      static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(n)));
  if (rank > h.count()) return INFINITY;
  const double qs = h.count() > 1 ? static_cast<double>(rank - 1) /
                                        static_cast<double>(h.count() - 1)
                                  : 0.0;
  return h.percentile(qs) / 1e6;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  std::string mode = "plain";
};

bool parse(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::strcmp(argv[i], "--workload") == 0) {
      a.workload = argv[i + 1];
    } else if (std::strcmp(argv[i], "--seed") == 0) {
      a.seed = std::strtoull(argv[i + 1], nullptr, 10);
    } else if (std::strcmp(argv[i], "--mode") == 0) {
      a.mode = argv[i + 1];
    } else {
      return false;
    }
  }
  return Workload::known(a.workload) &&
         (a.mode == "plain" || a.mode == "cpu" || a.mode == "allocs" ||
          a.mode == "noreg");
}

int run(const Args& a) {
  const bool cpu_mode = a.mode == "cpu", alloc_mode = a.mode == "allocs";
  SymbolTable syms;
  if ((cpu_mode || alloc_mode) && !syms.load_self()) {
    std::fprintf(stderr, "perfbench_run: cannot read the symbol table\n");
    return 2;
  }
  CpuSampler sampler(syms);
  LayerTally alloc_tally{};
  const double cpu0 = cpu_seconds();
  if (cpu_mode) {
    sampler.set_phase(CpuSampler::kSetup);
    sampler.start(kProfIntervalUs);
  }

  const RunShape shape = Workload::shape(a.workload);
  std::unique_ptr<Workload> w =
      Workload::make(a.workload, a.seed, a.mode != "noreg", cpu_mode);
  sim::Simulation& simu = w->simu();
  const sim::TimePoint warm_end = sim::TimePoint{} + shape.warmup;
  while (simu.now() < warm_end) {
    w->advance(std::min(warm_end, simu.now() + kSlice), false);
  }
  w->begin_measure();
  const Counts c0 = w->counts();
  const std::uint64_t allocs0 = g_alloc.counted;
  const double cpu1 = cpu_seconds();
  if (cpu_mode) sampler.set_phase(CpuSampler::kMeasure);
  if (alloc_mode) start_alloc_sampling(syms, kAllocSampleEvery, &alloc_tally);

  const sim::TimePoint end = warm_end + shape.measure;
  while (simu.now() < end) {
    w->advance(std::min(end, simu.now() + kSlice), true);
  }

  const double cpu2 = cpu_seconds();
  const std::uint64_t allocs = g_alloc.counted - allocs0;
  stop_alloc_sampling();
  if (cpu_mode) sampler.set_phase(CpuSampler::kIdle);
  const Counts c1 = w->counts();
  const double peak_rss = peak_rss_mb();

  double snapshot_ms = 0.0;
  std::size_t snapshot_bytes = 0;
  if (cpu_mode && w->registry() != nullptr) {
    const double t0 = cpu_seconds();
    const telemetry::Snapshot snap = w->registry()->snapshot();
    snapshot_bytes = telemetry::to_prometheus(snap).size();
    snapshot_ms = (cpu_seconds() - t0) * 1e3;
  }
  if (cpu_mode) sampler.stop();

  BenchScope scope;
  const double sim_s = shape.measure.seconds();
  auto rate = [sim_s](std::uint64_t a0, std::uint64_t a1) {
    return static_cast<double>(a1 - a0) / sim_s;
  };
  const std::uint64_t refused = c1.refused - c0.refused;
  const std::uint64_t issued = c1.issued - c0.issued;
  const std::uint64_t fetches = c1.fetch_attempts - c0.fetch_attempts;
  const std::uint64_t failed_fetches = c1.fetch_failures - c0.fetch_failures;
  const Quantile age50 = percentile(w->view_age_ns(), 0.50);
  const Quantile age99 = percentile(w->view_age_ns(), 0.99);
  const Quantile fetch50 = percentile(w->fetch_latency_ns(), 0.50);
  const Quantile fetch99 = percentile(w->fetch_latency_ns(), 0.99);
  const sim::Histogram resp = w->response_hist();

  // The report's percentile lines, each with its sample count.
  std::vector<std::string> lines = {
      describe("sim_view_age_p50_us", {age50.value / 1e3, age50.samples},
               "us"),
      describe("sim_view_age_p99_us", {age99.value / 1e3, age99.samples},
               "us")};
  util::JsonValue simj = util::JsonValue::object();
  if (w->has_clients()) {
    const std::size_t n = resp.count() + refused;
    const double p50 = response_ms(resp, refused, 0.50);
    const double p99 = response_ms(resp, refused, 0.99);
    lines.push_back(describe("sim_response_p50_ms", {p50, n}, "ms"));
    lines.push_back(describe("sim_response_p99_ms", {p99, n}, "ms"));
    simj["goodput_rps"] = rate(c0.completed, c1.completed);
    simj["response_p50_ms"] = p50;
    simj["response_p99_ms"] = p99;
    simj["failed_frac"] = issued ? static_cast<double>(refused) /
                                       static_cast<double>(issued)
                                 : 0.0;
    simj["failed"] = refused;
    simj["attempted"] = issued;
    // At most one request per client thread may still be in flight.
    const std::uint64_t resolved = c1.completed + c1.refused;
    const std::uint64_t open = c1.issued - std::min(c1.issued, resolved);
    const auto threads = static_cast<std::uint64_t>(w->client_threads());
    simj["lost"] = open > threads ? open - threads : 0;
  } else {
    simj["failed_frac"] = fetches ? static_cast<double>(failed_fetches) /
                                        static_cast<double>(fetches)
                                  : 0.0;
    simj["failed"] = failed_fetches;
    simj["attempted"] = fetches;
    simj["lost"] = c1.fetch_attempts -
                   std::min(c1.fetch_attempts, c1.fetch_ok + c1.fetch_failures);
  }
  simj["view_age_p50_us"] = age50.value / 1e3;
  simj["view_age_p99_us"] = age99.value / 1e3;
  simj["monitor_kb_per_s"] =
      rate(c0.monitor_wire_bytes, c1.monitor_wire_bytes) / 1024.0;

  const double events = static_cast<double>(c1.events - c0.events);
  const double cancelled = static_cast<double>(c1.cancelled - c0.cancelled);
  const double pushes = static_cast<double>(c1.pushes - c0.pushes);
  util::JsonValue counts = util::JsonValue::object();
  counts["sim.events_per_sim_s"] = events / sim_s;
  counts["sim.cancelled_frac"] =
      events + cancelled > 0 ? cancelled / (events + cancelled) : 0.0;
  counts["os.ctx_switches_per_sim_s"] = rate(c0.ctx_switches, c1.ctx_switches);
  counts["net.rdma_ops_per_sim_s"] = rate(c0.rdma_ops, c1.rdma_ops);
  counts["net.packets_per_sim_s"] = rate(c0.packets, c1.packets);
  counts["monitor.fetch_p50_us"] = fetch50.value / 1e3;
  counts["monitor.fetch_p99_us"] = fetch99.value / 1e3;
  counts["monitor.fetch_n"] = fetch50.samples;
  counts["monitor.pushes_per_sim_s"] = pushes / sim_s;
  counts["monitor.push_heartbeat_frac"] =
      pushes > 0 ? static_cast<double>(c1.heartbeats - c0.heartbeats) / pushes
                 : 0.0;
  counts["lb.picks_per_sim_s"] = rate(c0.picks, c1.picks);
  counts["lb.fetch_fail_per_sim_s"] =
      rate(c0.fetch_failures, c1.fetch_failures);
  counts["lb.dead_frac"] = w->dead_frac();
  counts["lb.mode_switches_per_sim_s"] =
      rate(c0.mode_switches, c1.mode_switches);
  counts["web.requests_per_sim_s"] = rate(c0.web_served, c1.web_served);
  counts["web.failed_over_per_sim_s"] = rate(c0.failed_over, c1.failed_over);
  counts["cluster.gossip_reads_per_sim_s"] =
      rate(c0.gossip_reads, c1.gossip_reads);
  counts["cluster.stale_marks_per_sim_s"] =
      rate(c0.stale_marks, c1.stale_marks);

  util::JsonValue out = util::JsonValue::object();
  out["workload"] = a.workload;
  out["seed"] = a.seed;
  out["mode"] = a.mode;
  out["telemetry_compiled"] = telemetry::kEnabled;
  out["setup_cpu_s"] = cpu1 - cpu0;
  out["process_setup_cpu_s"] = cpu1;
  out["measure_cpu_s"] = cpu2 - cpu1;
  out["sim_s"] = sim_s;
  out["events"] = events;
  out["allocs"] = allocs;
  out["peak_rss_mb"] = peak_rss;
  out["sim"] = simj;
  out["counts"] = counts;
  out["percentile_lines"] = json_list(lines);
  out["checks"] = json_list(w->check(c1));
  if (cpu_mode) {
    const Spans& sp = w->spans();
    util::JsonValue& spans = out["spans"];
    spans["run_slices"] = sp.run_slices;
    spans["run_ms"] = sp.run_ns / 1e6;
    spans["pick_calls"] = sp.pick_calls;
    spans["pick_total_ns"] = sp.pick_ns;
    spans["gen_calls"] = sp.gen_calls;
    spans["gen_total_ns"] = sp.gen_ns;
    spans["snapshot_ms"] = snapshot_ms;
    spans["snapshot_bytes"] = snapshot_bytes;
    out["cpu_setup"] = tally_json(sampler.tally(CpuSampler::kSetup));
    out["cpu_measure"] = tally_json(sampler.tally(CpuSampler::kMeasure));
    out["cpu_lost"] = sampler.lost();
  }
  if (alloc_mode) {
    out["alloc_samples"] = tally_json(alloc_tally);
    out["alloc_sample_every"] = kAllocSampleEvery;
  }
  std::printf("%s\n", out.dump(0).c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args a;
  if (!perfbench::parse(argc, argv, a)) {
    std::fprintf(stderr,
                 "usage: perfbench_run --workload "
                 "rubis_zipf|pull_fanout|push_scaleout --seed N "
                 "--mode plain|cpu|allocs|noreg\n");
    return 2;
  }
  return perfbench::run(a);
}
