// Property-style tests: invariants that must hold across parameter sweeps
// (conservation of CPU time, scheduler fairness, message conservation,
// determinism of whole-cluster runs, monotonicity properties).
#include <gtest/gtest.h>

#include <numeric>

#include "fault/fault.hpp"
#include "monitor/monitor.hpp"
#include "net/fabric.hpp"
#include "net/nic.hpp"
#include "net/socket.hpp"
#include "net/verbs.hpp"
#include "os/node.hpp"
#include "sim/simulation.hpp"
#include "web/cluster.hpp"

namespace rdmamon {
namespace {

using os::Program;
using os::SimThread;
using sim::msec;
using sim::seconds;
using sim::usec;

// --- scheduler conservation & fairness ---------------------------------------

class ThreadCountSweep : public ::testing::TestWithParam<int> {};

TEST_P(ThreadCountSweep, CpuTimeIsConservedAndSharedFairly) {
  const int n = GetParam();
  sim::Simulation simu;
  os::NodeConfig cfg;
  cfg.cpus = 2;
  cfg.context_switch_cost = {};  // exact accounting
  os::Node node(simu, cfg);
  std::vector<os::SimThread*> threads;
  for (int i = 0; i < n; ++i) {
    // Small chunks so CPU time is accounted at segment boundaries even
    // for a thread that is never preempted.
    threads.push_back(
        node.spawn("t" + std::to_string(i), [](SimThread&) -> Program {
          for (;;) co_await os::Compute{msec(2)};
        }));
  }
  const sim::Duration span = seconds(5);
  simu.run_for(span);

  double total = 0;
  double lo = 1e18, hi = 0;
  for (auto* t : threads) {
    const double user = static_cast<double>(t->user_time.ns);
    total += user;
    lo = std::min(lo, user);
    hi = std::max(hi, user);
  }
  // Conservation: total user time == busy CPU capacity (2 CPUs, always
  // runnable threads when n >= 2).
  const double capacity =
      static_cast<double>(span.ns) * std::min(n, cfg.cpus);
  EXPECT_NEAR(total, capacity, capacity * 0.01);
  // Fairness: round-robin shares within one quantum of each other.
  if (n >= 2) {
    EXPECT_LE(hi - lo, static_cast<double>(cfg.quantum.ns) * 2);
  }
}

INSTANTIATE_TEST_SUITE_P(Counts, ThreadCountSweep,
                         ::testing::Values(1, 2, 3, 5, 8, 16));

// --- run-queue counter invariant under churn -----------------------------------

TEST(SchedulerInvariants, NrRunningStaysInBoundsUnderChurn) {
  sim::Simulation simu;
  os::Node node(simu, {.name = "churn"});
  sim::Rng rng(99);
  std::vector<os::SimThread*> live;
  for (int round = 0; round < 50; ++round) {
    // Spawn a few short-lived mixed-behaviour threads.
    const int spawns = static_cast<int>(rng.uniform_int(1, 4));
    for (int i = 0; i < spawns; ++i) {
      const auto behaviour = rng.uniform_int(0, 2);
      live.push_back(node.spawn(
          "w", [behaviour](SimThread&) -> Program {
            for (int k = 0; k < 20; ++k) {
              if (behaviour == 0) {
                co_await os::Compute{usec(500)};
              } else if (behaviour == 1) {
                co_await os::SleepFor{msec(2)};
              } else {
                co_await os::Compute{usec(100)};
                co_await os::YieldCpu{};
              }
            }
          }));
    }
    // Kill a random live thread sometimes.
    if (!live.empty() && rng.chance(0.3)) {
      const auto idx = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(live.size()) - 1));
      node.sched().kill(live[idx]);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(idx));
    }
    simu.run_for(msec(5));
    EXPECT_GE(node.stats().nr_running(), 0);
    EXPECT_LE(node.stats().nr_running(), node.stats().nr_threads());
    EXPECT_GE(node.stats().nr_threads(), 0);
  }
  simu.run_for(seconds(2));
  EXPECT_EQ(node.stats().nr_running(), 0);
}

// --- message conservation --------------------------------------------------------

class MessageSweep
    : public ::testing::TestWithParam<std::tuple<int, std::size_t>> {};

TEST_P(MessageSweep, EveryMessageSentIsReceivedExactlyOnce) {
  const int count = std::get<0>(GetParam());
  const std::size_t bytes = std::get<1>(GetParam());
  sim::Simulation simu;
  net::Fabric fabric(simu, {});
  os::Node a(simu, {.name = "a"}), b(simu, {.name = "b"});
  fabric.attach(a);
  fabric.attach(b);
  net::Connection& conn = fabric.connect(a, b);
  long long received_sum = 0;
  int received = 0;
  b.spawn("rx", [&](SimThread& self) -> Program {
    for (;;) {
      net::Message m;
      co_await conn.end_b().recv(self, m);
      received_sum += std::any_cast<int>(m.payload);
      ++received;
    }
  });
  a.spawn("tx", [&](SimThread& self) -> Program {
    for (int i = 0; i < count; ++i) {
      co_await conn.end_a().send(self, bytes, i);
    }
  });
  simu.run_for(seconds(30));
  EXPECT_EQ(received, count);
  EXPECT_EQ(received_sum, static_cast<long long>(count) * (count - 1) / 2);
  EXPECT_EQ(fabric.nic(0).tx_packets(), static_cast<std::uint64_t>(count));
  EXPECT_EQ(fabric.nic(1).rx_packets(), static_cast<std::uint64_t>(count));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, MessageSweep,
    ::testing::Combine(::testing::Values(1, 10, 200),
                       ::testing::Values(std::size_t{64},
                                         std::size_t{8192},
                                         std::size_t{1'000'000})));

// --- RDMA latency model -----------------------------------------------------------

TEST(RdmaProperties, ReadLatencyGrowsMonotonicallyWithSize) {
  sim::Simulation simu;
  net::Fabric fabric(simu, {});
  os::Node a(simu, {.name = "a"}), b(simu, {.name = "b"});
  fabric.attach(a);
  fabric.attach(b);
  int word = 0;
  net::MrKey key = fabric.nic(1).register_mr(net::bytes_of(word));
  net::CompletionQueue cq;
  net::QueuePair qp(fabric.nic(0), 1, cq);
  std::vector<double> latencies;
  a.spawn("reader", [&](SimThread& self) -> Program {
    for (std::size_t len : {64u, 1024u, 16384u, 262144u}) {
      net::Completion c;
      const sim::TimePoint t0 = simu.now();
      co_await net::rdma_sync(self, qp, {.rkey = key, .len = len}, c);
      latencies.push_back((simu.now() - t0).micros());
    }
  });
  simu.run_for(seconds(1));
  ASSERT_EQ(latencies.size(), 4u);
  for (std::size_t i = 1; i < latencies.size(); ++i) {
    EXPECT_GT(latencies[i], latencies[i - 1]);
  }
  // Small reads are microseconds; even 256KB stays sub-millisecond at
  // 1.25 GB/s wire + DMA rates.
  EXPECT_LT(latencies[0], 30.0);
  EXPECT_LT(latencies[3], 1000.0);
}

// --- determinism of whole-cluster runs ---------------------------------------------

class SchemeSweep : public ::testing::TestWithParam<monitor::Scheme> {};

TEST_P(SchemeSweep, ClusterRunsAreBitwiseDeterministic) {
  auto run = [&]() -> std::pair<std::uint64_t, double> {
    sim::Simulation simu;
    web::ClusterConfig cfg;
    cfg.backends = 3;
    cfg.scheme = GetParam();
    cfg.seed = 1234;
    web::ClusterTestbed bed(simu, cfg);
    web::ClientGroupConfig ccfg;
    ccfg.threads_per_node = 4;
    web::ClientGroup& g =
        bed.add_clients(1, web::make_rubis_generator(), ccfg);
    simu.run_for(seconds(3));
    return {g.stats().completed(), g.stats().overall().mean()};
  };
  const auto first = run();
  const auto second = run();
  EXPECT_EQ(first.first, second.first);
  EXPECT_DOUBLE_EQ(first.second, second.second);
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, SchemeSweep,
                         ::testing::ValuesIn(monitor::kAllSchemes),
                         [](const auto& info) {
                           std::string n = monitor::to_string(info.param);
                           for (auto& ch : n)
                             if (ch == '-') ch = '_';
                           return n;
                         });

// --- fault-plan liveness: no fetch ever hangs ----------------------------------------

class FaultPlanSweep
    : public ::testing::TestWithParam<std::tuple<monitor::Scheme, int>> {};

TEST_P(FaultPlanSweep, EveryFetchResolvesUnderAnyRandomFaultPlan) {
  // Whatever a random plan does to the fabric — crashes, hung kernels,
  // lossy links, overlapping windows, faults on the *frontend* — the run
  // terminates and every issued fetch resolves to exactly one of
  // success / timeout / transport-error. (At most the final fetch may
  // still be in flight when the horizon cuts the run off.)
  const auto [scheme, seed] = GetParam();
  const sim::Duration horizon = seconds(2);
  sim::Simulation simu;
  net::Fabric fabric(simu, {});
  os::Node frontend(simu, {.name = "frontend"});
  os::Node backend(simu, {.name = "backend"});
  fabric.attach(frontend);
  fabric.attach(backend);
  monitor::MonitorConfig mcfg;
  mcfg.scheme = scheme;
  mcfg.fetch_timeout = msec(5);
  mcfg.fetch_retries = 2;
  mcfg.retry_backoff = msec(1);
  monitor::MonitorChannel chan(fabric, frontend, backend, mcfg);

  sim::Rng rng(static_cast<std::uint64_t>(seed));
  const fault::FaultPlan plan =
      fault::FaultPlan::random(rng, fabric.num_nodes(), horizon);
  fault::FaultInjector inj(fabric);
  inj.arm(plan);

  int issued = 0, resolved = 0, okay = 0, timeout = 0, transport = 0;
  frontend.spawn("mon", [&](os::SimThread& self) -> Program {
    for (;;) {
      co_await os::SleepFor{msec(7)};
      monitor::MonitorSample s;
      ++issued;
      co_await chan.frontend().fetch(self, s);
      ++resolved;
      if (s.ok) {
        ++okay;
        EXPECT_EQ(s.error, monitor::FetchError::None);
      } else if (s.error == monitor::FetchError::Timeout) {
        ++timeout;
      } else {
        EXPECT_EQ(s.error, monitor::FetchError::Transport);
        ++transport;
      }
      EXPECT_GE(s.attempts, 1);
      EXPECT_LE(s.attempts, mcfg.fetch_retries + 1);
    }
  });
  simu.run_for(horizon);

  EXPECT_GE(issued, 50) << plan.describe();
  EXPECT_GE(resolved, issued - 1);  // only the horizon-cut fetch may dangle
  EXPECT_EQ(okay + timeout + transport, resolved);
  EXPECT_EQ(inj.injected(), plan.size());
  // Every plan recovers all faults before 95% of the horizon, so the last
  // fetches run against a healthy fabric again.
  EXPECT_GT(okay, 0) << plan.describe();
}

INSTANTIATE_TEST_SUITE_P(
    SchemesBySeeds, FaultPlanSweep,
    ::testing::Combine(::testing::ValuesIn(monitor::kTransportSchemes),
                       ::testing::Values(1, 2, 3)),
    [](const auto& info) {
      std::string n = monitor::to_string(std::get<0>(info.param));
      for (auto& ch : n)
        if (ch == '-') ch = '_';
      return n + "_seed" + std::to_string(std::get<1>(info.param));
    });

// --- utilisation signal properties ---------------------------------------------------

TEST(UtilizationProperties, EmaBoundedAndTracksDuty) {
  for (double duty : {0.25, 0.5, 0.75}) {
    sim::Simulation simu;
    os::NodeConfig cfg;
    cfg.cpus = 1;
    // Zero context-switch cost: otherwise the 3us dispatch overhead pushes
    // each wakeup past the next timer tick and stretches the cycle.
    cfg.context_switch_cost = {};
    os::Node node(simu, cfg);
    const auto on = sim::nsec(static_cast<std::int64_t>(4e6 * duty));
    const auto off = sim::nsec(static_cast<std::int64_t>(4e6 * (1 - duty)));
    node.spawn("duty", [=](SimThread&) -> Program {
      for (;;) {
        co_await os::Compute{on};
        co_await os::SleepFor{off};
      }
    });
    simu.run_for(seconds(3));
    const double util = node.stats().cpu_load(simu.now());
    EXPECT_GE(util, 0.0);
    EXPECT_LE(util, 1.0);
    EXPECT_NEAR(util, duty, 0.15) << "duty " << duty;
  }
}

}  // namespace
}  // namespace rdmamon
