// DES kernel wall-clock microbenchmark of the timer-wheel/pooled kernel,
// on four workloads modelled on what the monitoring plane actually does:
//
//   steady_timers    periodic self-rescheduling events (poll loops,
//                    scheduler quanta): pure schedule->fire->recycle
//   schedule_cancel  the timeout pattern: arm a guard, cancel it when
//                    the guarded work completes (headline mix)
//   multi_horizon    deltas spread across every wheel level plus the
//                    far-future overflow heap
//   fabric_round     a scatter round's standing completion+deadline pairs
//
// Reported per workload: ops/sec, ns/op, heap allocations in the timed
// (steady-state) phase, and peak RSS. The kernel must execute the
// recycling workloads with ZERO steady-state heap allocations — the
// binary exits non-zero otherwise, which is what CI's perf-smoke job
// asserts. Results land in BENCH_engine.json.
#include <sys/resource.h>

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <new>
#include <string>
#include <vector>

#include "common.hpp"
#include "report.hpp"
#include "sim/event_queue.hpp"
#include "sim/random.hpp"
#include "sim/time.hpp"
#include "util/table.hpp"

// Counting operator new: the zero-steady-state-allocation proof.
namespace {
std::uint64_t g_allocs = 0;
}
void* operator new(std::size_t n) {
  ++g_allocs;
  void* p = std::malloc(n);
  if (!p) throw std::bad_alloc{};
  return p;
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace rdmamon::bench {
namespace {

// --- workloads ---------------------------------------------------------------
struct RunResult {
  std::uint64_t ops = 0;     ///< schedules + cancels + pops
  double secs = 0.0;         ///< timed (post-warm-up) phase only
  std::uint64_t allocs = 0;  ///< operator new calls in the timed phase
};

using Clock = std::chrono::steady_clock;

double elapsed(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Periodic self-rescheduling timers: 256 streams with co-prime-ish
/// periods so wheel slots stay spread out. One op = one fired event
/// (which schedules its successor).
RunResult run_steady_timers(std::uint64_t events) {
  sim::EventQueue q;
  struct Timer {
    sim::EventQueue* q;
    std::int64_t period;
    std::int64_t at;
    void operator()() {
      at += period;
      q->schedule(sim::TimePoint{at}, Timer{*this});
    }
  };
  for (int i = 0; i < 256; ++i) {
    q.schedule(sim::TimePoint{1'000 + i * 37},
               Timer{&q, 900 + i * 13, 1'000 + i * 37});
  }
  for (std::uint64_t i = 0; i < events / 10; ++i) q.pop_and_run();  // warm-up
  const std::uint64_t a0 = g_allocs;
  const auto t0 = Clock::now();
  for (std::uint64_t i = 0; i < events; ++i) q.pop_and_run();
  return RunResult{events, elapsed(t0), g_allocs - a0};
}

/// The monitoring plane's timeout pattern: each unit of work arms a
/// completion timeout and a retry guard, both cancelled when the work
/// completes — the fetch path does exactly this per RDMA read. One
/// iteration = 3 schedules + 1 pop + 2 cancels = 6 ops.
RunResult run_schedule_cancel(std::uint64_t iters) {
  sim::EventQueue q;
  std::uint64_t done = 0;
  sim::TimePoint now{};
  auto iteration = [&] {
    auto work = q.schedule(now + sim::nsec(793), [&done] { ++done; });
    auto timeout = q.schedule(now + sim::usec(150), [] {});
    auto retry = q.schedule(now + sim::usec(1'500), [] {});
    now = q.pop_and_run();
    timeout.cancel();
    retry.cancel();
    (void)work;
  };
  for (std::uint64_t i = 0; i < iters / 10; ++i) iteration();  // warm-up
  const std::uint64_t a0 = g_allocs;
  const auto t0 = Clock::now();
  for (std::uint64_t i = 0; i < iters; ++i) iteration();
  return RunResult{iters * 6, elapsed(t0), g_allocs - a0};
}

/// Seed of the multi-horizon schedule (the bench's only RNG).
constexpr std::uint64_t kSeed = 7;

/// Deltas drawn across every residence class: sub-tick, each wheel
/// level, and the overflow heap. Seeded, so every run executes the
/// identical schedule. One iteration = 1 schedule + 1 pop.
RunResult run_multi_horizon(std::uint64_t iters) {
  sim::EventQueue q;
  sim::Rng rng(kSeed);
  std::int64_t now = 0;
  std::uint64_t done = 0;
  auto iteration = [&] {
    std::int64_t delta;
    switch (rng.uniform_int(0, 4)) {
      case 0: delta = rng.uniform_int(1, 1'000); break;            // sub-tick
      case 1: delta = rng.uniform_int(1, 260'000); break;          // L0
      case 2: delta = rng.uniform_int(1, 60'000'000); break;       // L1
      case 3: delta = rng.uniform_int(1, 15'000'000'000); break;   // L2
      default: delta = rng.uniform_int(1, 60'000'000'000); break;  // heap
    }
    q.schedule(sim::TimePoint{now + delta}, [&done] { ++done; });
    now = q.pop_and_run().ns;
  };
  // Build a standing population first so pops interleave all classes.
  for (int i = 0; i < 4'096; ++i) {
    q.schedule(sim::TimePoint{now + 1 + (i * 7'919) % 40'000'000'000ll},
               [&done] { ++done; });
  }
  for (std::uint64_t i = 0; i < iters / 10; ++i) iteration();  // warm-up
  const std::uint64_t a0 = g_allocs;
  const auto t0 = Clock::now();
  for (std::uint64_t i = 0; i < iters; ++i) iteration();
  return RunResult{iters * 2, elapsed(t0), g_allocs - a0};
}

/// The scatter plane's event shape at N=4096 back ends: a standing
/// population of in-flight fetch attempts, each carrying one completion
/// event (wire latency away) and one deadline guard at the monitoring
/// fetch_timeout (200 ms), cancelled when the completion wins the race —
/// which, fault-free, it always does. The guards live on the wheel's
/// upper levels, so this exercises the O(1) eager-unlink cancel path at
/// scatter-round scale. One iteration = 1 pop + 1 cancel + 2 schedules
/// = 4 ops.
RunResult run_fabric_round(std::uint64_t iters) {
  sim::EventQueue q;
  constexpr int kSlots = 4096;
  std::vector<sim::EventHandle> guard(kSlots);
  sim::TimePoint now{};
  int fired_slot = -1;
  auto arm = [&](int slot) {
    // Completion ~4-8 us out, spread per slot like per-target DMA skew.
    q.schedule(now + sim::nsec(4'000 + (slot % 257) * 16),
               [&fired_slot, slot] { fired_slot = slot; });
    guard[slot] = q.schedule(now + sim::msec(200), [] {});
  };
  for (int s = 0; s < kSlots; ++s) arm(s);
  auto iteration = [&] {
    now = q.pop_and_run();
    const int slot = fired_slot;
    guard[slot].cancel();
    arm(slot);
  };
  for (std::uint64_t i = 0; i < iters / 10; ++i) iteration();  // warm-up
  const std::uint64_t a0 = g_allocs;
  const auto t0 = Clock::now();
  for (std::uint64_t i = 0; i < iters; ++i) iteration();
  return RunResult{iters * 4, elapsed(t0), g_allocs - a0};
}

long peak_rss_kb() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss;
}

struct Row {
  std::string workload;
  RunResult r;
  bool alloc_checked = false;  ///< recycling mix: allocs must be zero
};

}  // namespace
}  // namespace rdmamon::bench

int main(int argc, char** argv) {
  using namespace rdmamon;
  using namespace rdmamon::bench;

  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
  }
  const std::uint64_t kTimerEvents = quick ? 500'000 : 5'000'000;
  const std::uint64_t kCancelIters = quick ? 400'000 : 4'000'000;
  const std::uint64_t kHorizonIters = quick ? 400'000 : 4'000'000;
  const std::uint64_t kFabricIters = quick ? 400'000 : 4'000'000;

  banner("ENGINE", "DES kernel: pooled timer-wheel",
         "infrastructure bench - wall-clock only, no simulated figures");

  const std::vector<Row> rows = {
      {"steady_timers", run_steady_timers(kTimerEvents), true},
      {"schedule_cancel", run_schedule_cancel(kCancelIters), true},
      {"multi_horizon", run_multi_horizon(kHorizonIters), false},
      {"fabric_round", run_fabric_round(kFabricIters), true},
  };
  const long rss_kb = peak_rss_kb();

  util::Table table;
  table.set_header({"workload", "Mops/s", "ns/op", "allocs", "allocs/op"});
  for (const Row& row : rows) {
    const double mops = row.r.ops / row.r.secs / 1e6;
    const double ns_per_op = row.r.secs * 1e9 / row.r.ops;
    table.add_row({row.workload, num(mops, 2), num(ns_per_op, 1),
                   std::to_string(row.r.allocs),
                   num(static_cast<double>(row.r.allocs) / row.r.ops, 3)});
  }
  show(table);

  JsonReport report("engine");
  report.stamp(quick, kSeed);
  bool alloc_ok = true;
  for (const Row& row : rows) {
    auto& j = report.add_result();
    j["workload"] = row.workload;
    j["kernel"] = "timer-wheel";
    j["ops"] = static_cast<double>(row.r.ops);
    j["secs"] = row.r.secs;
    j["events_per_sec"] = row.r.ops / row.r.secs;
    j["ns_per_op"] = row.r.secs * 1e9 / row.r.ops;
    j["steady_allocs"] = static_cast<double>(row.r.allocs);
    if (row.alloc_checked && row.r.allocs != 0) alloc_ok = false;
  }
  report.set("zero_steady_state_alloc", util::JsonValue(alloc_ok));
  report.set("peak_rss_kb", util::JsonValue(double(rss_kb)));
  report.write();

  std::cout << "peak RSS: " << rss_kb << " KB\n";
  if (!alloc_ok) {
    std::cerr << "FAIL: timer-wheel kernel allocated during a steady-state "
                 "recycling workload\n";
    return 1;
  }
  std::cout << "zero-steady-state-allocation: OK\n";
  return 0;
}
