// DES kernel wall-clock microbenchmark: the timer-wheel/pooled kernel
// vs the seed kernel (shared_ptr handles + std::function callbacks +
// one binary heap), reimplemented verbatim below so one binary measures
// both sides. Three workloads modelled on what the monitoring plane
// actually does:
//
//   steady_timers    periodic self-rescheduling events (poll loops,
//                    scheduler quanta): pure schedule->fire->recycle
//   schedule_cancel  the timeout pattern: arm a guard, cancel it when
//                    the guarded work completes (headline mix)
//   multi_horizon    deltas spread across every wheel level plus the
//                    far-future overflow heap
//
// Reported per (workload, kernel): ops/sec, ns/op, heap allocations in
// the timed (steady-state) phase, and peak RSS. The timer-wheel kernel
// must execute the recycling workloads with ZERO steady-state heap
// allocations — the binary exits non-zero otherwise, which is what CI's
// perf-smoke job asserts. Results land in BENCH_engine.json.
#include <sys/resource.h>

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <iostream>
#include <memory>
#include <new>
#include <queue>
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

// --- seed kernel, reimplemented ---------------------------------------------
// Byte-for-byte the pre-overhaul src/sim/event_queue.*: one
// std::priority_queue of entries carrying a std::function and a
// shared_ptr cancellation state; cancelled entries discarded lazily when
// they surface at the top.
class LegacyHandle {
 public:
  LegacyHandle() = default;
  void cancel() {
    if (state_ && !state_->fired) state_->cancelled = true;
  }

  struct State {
    bool cancelled = false;
    bool fired = false;
  };
  explicit LegacyHandle(std::shared_ptr<State> s) : state_(std::move(s)) {}

 private:
  std::shared_ptr<State> state_;
};

class LegacyQueue {
 public:
  LegacyHandle schedule(sim::TimePoint when, std::function<void()> fn) {
    auto state = std::make_shared<LegacyHandle::State>();
    heap_.push(Entry{when, next_seq_++, std::move(fn), state});
    ++live_;
    return LegacyHandle{std::move(state)};
  }

  bool empty() const {
    drop_dead();
    return heap_.empty();
  }

  sim::TimePoint pop_and_run() {
    drop_dead();
    Entry e = heap_.top();
    heap_.pop();
    --live_;
    e.state->fired = true;
    ++executed_;
    e.fn();
    return e.when;
  }

  std::size_t size() const { return live_; }

 private:
  struct Entry {
    sim::TimePoint when;
    std::uint64_t seq;
    std::function<void()> fn;
    std::shared_ptr<LegacyHandle::State> state;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;
    }
  };

  void drop_dead() const {
    while (!heap_.empty() && heap_.top().state->cancelled) {
      heap_.pop();
      --live_;
    }
  }

  mutable std::priority_queue<Entry, std::vector<Entry>, Later> heap_;
  mutable std::size_t live_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
};

// --- kernel adapters ---------------------------------------------------------
struct WheelKernel {
  static constexpr const char* kName = "timer-wheel";
  using Handle = sim::EventHandle;
  sim::EventQueue q;
  template <class F>
  Handle schedule(std::int64_t when, F&& fn) {
    return q.schedule(sim::TimePoint{when}, std::forward<F>(fn));
  }
  std::int64_t pop() { return q.pop_and_run().ns; }
  bool empty() const { return q.empty(); }
};

struct LegacyKernel {
  static constexpr const char* kName = "seed-heap";
  using Handle = LegacyHandle;
  LegacyQueue q;
  template <class F>
  Handle schedule(std::int64_t when, F&& fn) {
    return q.schedule(sim::TimePoint{when}, std::forward<F>(fn));
  }
  std::int64_t pop() { return q.pop_and_run().ns; }
  bool empty() const { return q.empty(); }
};

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
template <class K>
RunResult run_steady_timers(std::uint64_t events) {
  K k;
  struct Timer {
    K* k;
    std::int64_t period;
    std::int64_t at;
    void operator()() {
      at += period;
      k->schedule(at, Timer{*this});
    }
  };
  for (int i = 0; i < 256; ++i) {
    k.schedule(1'000 + i * 37, Timer{&k, 900 + i * 13, 1'000 + i * 37});
  }
  for (std::uint64_t i = 0; i < events / 10; ++i) k.pop();  // warm-up
  const std::uint64_t a0 = g_allocs;
  const auto t0 = Clock::now();
  for (std::uint64_t i = 0; i < events; ++i) k.pop();
  return RunResult{events, elapsed(t0), g_allocs - a0};
}

/// The monitoring plane's timeout pattern: each unit of work arms a
/// completion timeout and a retry guard, both cancelled when the work
/// completes — the fetch path does exactly this per RDMA read. One
/// iteration = 3 schedules + 1 pop + 2 cancels = 6 ops.
template <class K>
RunResult run_schedule_cancel(std::uint64_t iters) {
  K k;
  std::uint64_t done = 0;
  std::int64_t now = 0;
  auto iteration = [&] {
    auto work = k.schedule(now + 793, [&done] { ++done; });
    auto timeout = k.schedule(now + 150'000, [] {});
    auto retry = k.schedule(now + 1'500'000, [] {});
    now = k.pop();
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
/// level, and the overflow heap. Same seed for both kernels, so both
/// execute the identical schedule. One iteration = 1 schedule + 1 pop.
template <class K>
RunResult run_multi_horizon(std::uint64_t iters) {
  K k;
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
    k.schedule(now + delta, [&done] { ++done; });
    now = k.pop();
  };
  // Build a standing population first so pops interleave all classes.
  for (int i = 0; i < 4'096; ++i) {
    k.schedule(now + 1 + (i * 7'919) % 40'000'000'000ll, [&done] { ++done; });
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
template <class K>
RunResult run_fabric_round(std::uint64_t iters) {
  K k;
  constexpr int kSlots = 4096;
  std::vector<typename K::Handle> guard(kSlots);
  std::int64_t now = 0;
  int fired_slot = -1;
  auto arm = [&](int slot) {
    // Completion ~4-8 us out, spread per slot like per-target DMA skew.
    k.schedule(now + 4'000 + (slot % 257) * 16,
               [&fired_slot, slot] { fired_slot = slot; });
    guard[slot] = k.schedule(now + 200'000'000, [] {});
  };
  for (int s = 0; s < kSlots; ++s) arm(s);
  auto iteration = [&] {
    now = k.pop();
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
  std::string kernel;
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

  banner("ENGINE", "DES kernel: pooled timer-wheel vs seed binary heap",
         "infrastructure bench - wall-clock only, no simulated figures");

  std::vector<Row> rows;
  // Wheel kernel first so its RSS reading is not inflated by the legacy
  // kernel's allocations (ru_maxrss is a process-wide high-water mark).
  rows.push_back({"steady_timers", WheelKernel::kName,
                  run_steady_timers<WheelKernel>(kTimerEvents), true});
  rows.push_back({"schedule_cancel", WheelKernel::kName,
                  run_schedule_cancel<WheelKernel>(kCancelIters), true});
  rows.push_back({"multi_horizon", WheelKernel::kName,
                  run_multi_horizon<WheelKernel>(kHorizonIters), false});
  rows.push_back({"fabric_round", WheelKernel::kName,
                  run_fabric_round<WheelKernel>(kFabricIters), true});
  const long wheel_rss_kb = peak_rss_kb();
  rows.push_back({"steady_timers", LegacyKernel::kName,
                  run_steady_timers<LegacyKernel>(kTimerEvents), false});
  rows.push_back({"schedule_cancel", LegacyKernel::kName,
                  run_schedule_cancel<LegacyKernel>(kCancelIters), false});
  rows.push_back({"multi_horizon", LegacyKernel::kName,
                  run_multi_horizon<LegacyKernel>(kHorizonIters), false});
  rows.push_back({"fabric_round", LegacyKernel::kName,
                  run_fabric_round<LegacyKernel>(kFabricIters), false});
  const long total_rss_kb = peak_rss_kb();

  util::Table table;
  table.set_header({"workload", "kernel", "Mops/s", "ns/op", "allocs",
                    "allocs/op"});
  for (const Row& row : rows) {
    const double mops = row.r.ops / row.r.secs / 1e6;
    const double ns_per_op = row.r.secs * 1e9 / row.r.ops;
    table.add_row({row.workload, row.kernel, num(mops, 2), num(ns_per_op, 1),
                   std::to_string(row.r.allocs),
                   num(static_cast<double>(row.r.allocs) / row.r.ops, 3)});
  }
  show(table);

  auto ops_per_sec = [&rows](const std::string& workload,
                             const std::string& kernel) {
    for (const Row& row : rows) {
      if (row.workload == workload && row.kernel == kernel) {
        return row.r.ops / row.r.secs;
      }
    }
    return 0.0;
  };

  JsonReport report("engine");
  report.stamp(quick, kSeed);
  for (const Row& row : rows) {
    auto& j = report.add_result();
    j["workload"] = row.workload;
    j["kernel"] = row.kernel;
    j["ops"] = static_cast<double>(row.r.ops);
    j["secs"] = row.r.secs;
    j["events_per_sec"] = row.r.ops / row.r.secs;
    j["ns_per_op"] = row.r.secs * 1e9 / row.r.ops;
    j["steady_allocs"] = static_cast<double>(row.r.allocs);
  }
  bool alloc_ok = true;
  for (const Row& row : rows) {
    if (row.alloc_checked && row.r.allocs != 0) alloc_ok = false;
  }
  double min_speedup = 1e300;
  std::cout << "\nspeedup vs seed kernel:\n";
  for (const char* w :
       {"steady_timers", "schedule_cancel", "multi_horizon", "fabric_round"}) {
    const double s = ops_per_sec(w, WheelKernel::kName) /
                     ops_per_sec(w, LegacyKernel::kName);
    if (s < min_speedup) min_speedup = s;
    report.set(std::string("speedup_") + w, util::JsonValue(s));
    std::cout << "  " << w << ": " << num(s, 2) << "x\n";
  }
  report.set("zero_steady_state_alloc", util::JsonValue(alloc_ok));
  report.set("peak_rss_wheel_kb", util::JsonValue(double(wheel_rss_kb)));
  report.set("peak_rss_total_kb", util::JsonValue(double(total_rss_kb)));
  report.write();

  std::cout << "peak RSS: " << wheel_rss_kb << " KB after wheel-kernel runs, "
            << total_rss_kb << " KB total\n";
  if (!alloc_ok) {
    std::cerr << "FAIL: timer-wheel kernel allocated during a steady-state "
                 "recycling workload\n";
    return 1;
  }
  std::cout << "zero-steady-state-allocation: OK\n";
  return 0;
}
