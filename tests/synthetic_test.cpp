#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "alloc_counter.hpp"
#include "net/fabric.hpp"
#include "net/nic.hpp"
#include "os/node.hpp"
#include "sim/simulation.hpp"
#include "workload/synthetic.hpp"

namespace rdmamon::workload {
namespace {

using sim::msec;
using sim::seconds;
using sim::usec;

struct Env {
  sim::Simulation simu;
  net::Fabric fabric{simu, {}};
  os::Node node{simu, {.name = "node"}};
  os::Node peer{simu, {.name = "peer"}};

  Env() {
    fabric.attach(node);
    fabric.attach(peer);
  }
};

TEST(BackgroundLoad, GeneratesCpuAndNetworkLoad) {
  Env env;
  BackgroundLoadConfig cfg;
  cfg.threads = 4;
  BackgroundLoad bg(env.fabric, env.node, env.peer, cfg);
  env.simu.run_for(seconds(1));
  EXPECT_GT(env.node.stats().cpu_load(env.simu.now()), 0.5);
  EXPECT_GT(env.fabric.nic(0).tx_packets(), 100u);
  EXPECT_GT(env.fabric.nic(0).rx_packets(), 100u);  // echo replies
}

TEST(BackgroundLoad, StopRemovesAllThreads) {
  Env env;
  BackgroundLoadConfig cfg;
  cfg.threads = 4;
  BackgroundLoad bg(env.fabric, env.node, env.peer, cfg);
  env.simu.run_for(msec(200));
  EXPECT_EQ(env.node.stats().nr_threads(), 4);
  bg.stop();
  EXPECT_EQ(env.node.stats().nr_threads(), 0);
  EXPECT_EQ(env.peer.stats().nr_threads(), 0);
  env.simu.run_for(msec(500));
  EXPECT_LT(env.node.stats().cpu_load(env.simu.now()), 0.05);
}

TEST(BackgroundLoad, ZeroBurstMeansPureCompute) {
  Env env;
  BackgroundLoadConfig cfg;
  cfg.threads = 2;
  cfg.burst = 0;
  const auto tx_before = env.fabric.nic(0).tx_packets();
  BackgroundLoad bg(env.fabric, env.node, env.peer, cfg);
  env.simu.run_for(seconds(1));
  EXPECT_EQ(env.fabric.nic(0).tx_packets(), tx_before);  // no traffic
  EXPECT_GT(env.node.stats().cpu_load(env.simu.now()), 0.5);
  EXPECT_EQ(env.peer.stats().nr_threads(), 0);  // no echo threads
}

TEST(FloatingPointApp, UndisturbedAppHasZeroDelay) {
  Env env;
  FloatingPointApp app(env.node, msec(10));
  env.simu.run_for(seconds(2));
  EXPECT_GT(app.batches(), 100u);
  EXPECT_NEAR(app.normalized_delay(), 0.0, 1e-6);
}

TEST(FloatingPointApp, CompetingWorkInflatesDelay) {
  Env env;
  FloatingPointApp app(env.node, msec(10));  // one thread per CPU
  // A competitor stealing CPU time.
  env.node.spawn("competitor", [](os::SimThread&) -> os::Program {
    for (;;) {
      co_await os::Compute{msec(2)};
      co_await os::SleepFor{msec(5)};
    }
  });
  env.simu.run_for(seconds(2));
  EXPECT_GT(app.normalized_delay(), 0.05);
}

TEST(FloatingPointApp, StopHaltsProgress) {
  Env env;
  FloatingPointApp app(env.node, msec(5));
  env.simu.run_for(seconds(1));
  app.stop();
  const auto batches = app.batches();
  env.simu.run_for(seconds(1));
  EXPECT_EQ(app.batches(), batches);
}

TEST(Disturbance, FiresAndRampsOnTargets) {
  Env env;
  os::Node infra(env.simu, {.name = "infra"});
  env.fabric.attach(infra);
  DisturbanceConfig cfg;
  cfg.mean_interval = msec(300);
  cfg.duration = msec(200);
  DisturbanceGenerator gen(env.fabric, {&env.node}, infra, cfg,
                           sim::Rng(3));
  env.simu.run_for(seconds(3));
  EXPECT_GE(gen.events(), 3u);
  // Between events everything is torn down again eventually.
  EXPECT_LE(env.node.stats().nr_threads(),
            kDisturbanceStages * kDisturbanceStage.threads);
}

TEST(Disturbance, VictimLoadRisesDuringEvent) {
  Env env;
  os::Node infra(env.simu, {.name = "infra"});
  env.fabric.attach(infra);
  DisturbanceConfig cfg;
  cfg.mean_interval = msec(50);  // an event starts almost immediately...
  cfg.duration = seconds(10);    // ...and stays active for the whole test
  DisturbanceGenerator gen(env.fabric, {&env.node}, infra, cfg,
                           sim::Rng(4));
  env.simu.run_for(sim::from_millis(1500));
  EXPECT_GE(gen.events(), 1u);
  // Mid-event, fully ramped: the victim is visibly loaded.
  EXPECT_GT(env.node.stats().cpu_load(env.simu.now()), 0.5);
  EXPECT_GE(env.node.stats().nr_running(), 2);
}

using Stages = std::vector<std::unique_ptr<BackgroundLoad>>;

/// The kDisturbanceStages stage loads a DisturbanceGenerator restarts.
Stages ramp_stages(net::Fabric& fabric) {
  Stages stages;
  for (int i = 0; i < kDisturbanceStages; ++i) {
    stages.push_back(
        std::make_unique<BackgroundLoad>(fabric, kDisturbanceStage));
  }
  return stages;
}

/// One full ramp on `victim`, a stage every 100 ms, then all stop.
/// Returns the heap allocations made inside the stages' start() and
/// stop() calls.
std::uint64_t run_ramp(sim::Simulation& simu, Stages& stages,
                       os::Node& victim, os::Node& echo_peer) {
  std::uint64_t lifecycle = 0;
  for (auto& stage : stages) {
    const std::uint64_t before = allocation_count();
    stage->start(victim, echo_peer);
    lifecycle += allocation_count() - before;
    simu.run_for(msec(100));
  }
  simu.run_for(msec(500));
  const std::uint64_t before = allocation_count();
  for (auto& stage : stages) stage->stop();
  return lifecycle + allocation_count() - before;
}

TEST(Disturbance, StoppedRampLeavesCountsAndTheWireAsItFoundThem) {
  // A back end with one wired connection takes a full ramp. Once the
  // stages stop, its LoadSnapshot::connections and the storage node's
  // count are back where they were, and once the wire drains so is the
  // packet table: echoes on their way to a closed socket are dropped, not
  // parked at it for the rest of the run.
  Env env;  // node: the back end; peer: its front end
  os::Node storage(env.simu, {.name = "storage"});
  env.fabric.attach(storage);
  env.fabric.connect(env.peer, env.node);
  env.simu.run_for(msec(10));
  const int backend_before = env.node.procfs().snapshot().connections;
  const int storage_before = storage.stats().connections();
  const std::size_t in_flight_before = env.fabric.packets_in_flight();
  ASSERT_EQ(backend_before, 1);

  auto stages = ramp_stages(env.fabric);
  for (auto& stage : stages) {
    stage->start(env.node, storage);
    env.simu.run_for(msec(100));
  }
  const int ramp_conns = kDisturbanceStages * kDisturbanceStage.threads;
  EXPECT_EQ(env.node.procfs().snapshot().connections,
            backend_before + ramp_conns);
  EXPECT_EQ(storage.stats().connections(), storage_before + ramp_conns);
  // Stop mid-exchange: an instant at which echoes are on the wire.
  env.simu.run_for(usec(4007));
  for (auto& stage : stages) stage->stop();
  EXPECT_EQ(env.node.procfs().snapshot().connections, backend_before);
  EXPECT_EQ(storage.stats().connections(), storage_before);
  EXPECT_EQ(env.node.stats().nr_threads(), 0);
  EXPECT_EQ(storage.stats().nr_threads(), 0);
  // Close freed what was queued at the sockets; the rest is on its way.
  ASSERT_GT(env.fabric.packets_in_flight(), in_flight_before);
  env.simu.run_for(msec(5));
  EXPECT_EQ(env.fabric.packets_in_flight(), in_flight_before);
}

TEST(Disturbance, ConnectionLedgerBalancesThroughoutARun) {
  // Per node and fabric-wide, connections opened = closed + live, at
  // every sample of a run of many disturbances; and a visited back end's
  // count falls back to its wiring-time value between disturbances.
  Env env;
  os::Node storage(env.simu, {.name = "storage"});
  env.fabric.attach(storage);
  env.fabric.connect(env.peer, env.node);
  const std::vector<os::Node*> nodes{&env.node, &env.peer, &storage};
  DisturbanceConfig cfg;
  cfg.mean_interval = msec(300);
  cfg.duration = msec(200);
  DisturbanceGenerator gen(env.fabric, {&env.node, &env.peer}, storage, cfg,
                           sim::Rng(5));
  const int wired = env.node.stats().connections();
  int back_to_wired = 0;
  bool disturbed = false;
  for (int i = 0; i < 2000; ++i) {
    env.simu.run_for(usec(5003));
    std::uint64_t opened = 0, closed = 0;
    int live = 0;
    for (os::Node* n : nodes) {
      const os::KernelStats& st = n->stats();
      ASSERT_EQ(st.connections_opened(),
                st.connections_closed() +
                    static_cast<std::uint64_t>(st.connections()));
      opened += st.connections_opened();
      closed += st.connections_closed();
      live += n->procfs().snapshot().connections;
    }
    // Each connection is counted at both of its ends.
    ASSERT_EQ(static_cast<std::size_t>(live),
              2 * env.fabric.connections_open());
    ASSERT_EQ(opened, closed + 2 * env.fabric.connections_open());
    const int now = env.node.stats().connections();
    if (now > wired) disturbed = true;
    if (disturbed && now == wired) ++back_to_wired;
  }
  EXPECT_GE(gen.events(), 20u);
  EXPECT_GT(back_to_wired, 100);
  EXPECT_GT(storage.stats().connections_closed(), 100u);
}

TEST(Disturbance, RampOnAFreshBackendAllocatesNothingOnceOneRampHasRun) {
  // Stage loads are restarted, not rebuilt: their threads come back from
  // the frame pool and their connections from the fabric, on any node.
  // Two twin back ends have each run a burst of short-lived threads at
  // boot, as any back end has. After one full ramp on back end 0, the
  // start() and stop() calls of a full ramp on back end 1, never
  // disturbed before, touch no heap. What the ramp's traffic grows there
  // is back end 1's own interrupt path, on its first traffic that deep;
  // a second ramp on it, traffic included, touches no heap either.
  Env env;
  os::Node storage(env.simu, {.name = "storage"});
  env.fabric.attach(storage);
  for (os::Node* backend : {&env.node, &env.peer}) {
    for (int i = 0; i < 16; ++i) {
      backend->spawn("boot", [](os::SimThread&) -> os::Program {
        co_await os::Compute{msec(1)};
      });
    }
  }
  env.simu.run_for(msec(50));
  auto stages = ramp_stages(env.fabric);
  run_ramp(env.simu, stages, env.node, storage);
  env.simu.run_for(msec(50));
  EXPECT_EQ(run_ramp(env.simu, stages, env.peer, storage), 0u);
  EXPECT_EQ(env.peer.stats().connections(), 0);
  EXPECT_EQ(env.peer.stats().connections_closed(),
            static_cast<std::uint64_t>(kDisturbanceStages *
                                       kDisturbanceStage.threads));
  env.simu.run_for(msec(50));
  const std::uint64_t before = allocation_count();
  run_ramp(env.simu, stages, env.peer, storage);
  env.simu.run_for(msec(50));
  EXPECT_EQ(allocation_count() - before, 0u);
}

TEST(Disturbance, LongRunHoldsAtMostOneRampOfThreadsAndConnections) {
  // 60 simulated s of disturbances: the thread and connection objects
  // held stay within one ramp's worth of the count at wiring time.
  Env env;
  os::Node storage(env.simu, {.name = "storage"});
  env.fabric.attach(storage);
  env.fabric.connect(env.peer, env.node);
  const std::vector<os::Node*> nodes{&env.node, &env.peer, &storage};
  auto threads_held = [&] {
    std::size_t n = 0;
    for (os::Node* node : nodes) n += node->sched().threads_held();
    return n;
  };
  DisturbanceGenerator gen(env.fabric, {&env.node, &env.peer}, storage, {},
                           sim::Rng(9));
  const std::size_t threads_at_wiring = threads_held();
  const std::size_t conns_at_wiring = env.fabric.connection_objects();
  const int ramp = kDisturbanceStages * kDisturbanceStage.threads;
  std::size_t max_threads = 0, max_conns = 0;
  for (int i = 0; i < 600; ++i) {  // 60 s, sampled every 100 ms
    env.simu.run_for(msec(100));
    max_threads = std::max(max_threads, threads_held());
    max_conns = std::max(max_conns, env.fabric.connection_objects());
  }
  EXPECT_GE(gen.events(), 40u);
  EXPECT_LE(max_threads, threads_at_wiring + 2 * ramp);  // workers + echoes
  EXPECT_LE(max_conns, conns_at_wiring + ramp);
}

}  // namespace
}  // namespace rdmamon::workload
