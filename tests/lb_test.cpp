#include <gtest/gtest.h>

#include "lb/admission.hpp"
#include "lb/balancer.hpp"
#include "monitor/monitor.hpp"
#include "net/fabric.hpp"
#include "os/node.hpp"
#include "sim/simulation.hpp"

namespace rdmamon::lb {
namespace {

using monitor::Scheme;
using sim::msec;
using sim::seconds;

struct LbEnv {
  sim::Simulation simu;
  net::Fabric fabric{simu, {}};
  os::Node frontend{simu, {.name = "fe"}};
  std::vector<std::unique_ptr<os::Node>> backends;
  std::unique_ptr<LoadBalancer> lb;

  explicit LbEnv(int n, Scheme scheme = Scheme::RdmaSync) {
    fabric.attach(frontend);
    lb = std::make_unique<LoadBalancer>(WeightConfig::for_scheme(scheme));
    for (int i = 0; i < n; ++i) {
      os::NodeConfig cfg;
      cfg.name = "be" + std::to_string(i);
      backends.push_back(std::make_unique<os::Node>(simu, cfg));
      fabric.attach(*backends.back());
      monitor::MonitorConfig mcfg;
      mcfg.scheme = scheme;
      lb->add_backend(std::make_unique<monitor::MonitorChannel>(
          fabric, frontend, *backends.back(), mcfg));
    }
  }

  void hog(int backend, int count) {
    for (int i = 0; i < count; ++i) {
      backends[static_cast<std::size_t>(backend)]->spawn(
          "hog", [](os::SimThread&) -> os::Program {
            for (;;) co_await os::Compute{seconds(100)};
          });
    }
  }
};

TEST(LoadIndexFn, RunqueueTermDominates) {
  WeightConfig w;
  os::LoadSnapshot a, b;
  a.nr_running = 0;
  b.nr_running = 8;  // saturated run queue
  EXPECT_GT(load_index(b, w) - load_index(a, w), 0.45);
}

TEST(LoadBalancer, SpreadsEvenlyWhenBackendsEqual) {
  LbEnv env(4);
  env.lb->start(env.frontend, msec(50));
  env.simu.run_for(msec(200));
  std::array<int, 4> picks{};
  for (int i = 0; i < 400; ++i) ++picks[static_cast<std::size_t>(env.lb->pick())];
  for (int n : picks) EXPECT_NEAR(n, 100, 10);
}

TEST(LoadBalancer, LoadedBackendGetsFewerPicks) {
  LbEnv env(4);
  env.hog(2, 4);  // backend 2 saturated: runq 4, cpu 100%
  env.lb->start(env.frontend, msec(50));
  env.simu.run_for(seconds(1));
  std::array<int, 4> picks{};
  for (int i = 0; i < 400; ++i) ++picks[static_cast<std::size_t>(env.lb->pick())];
  EXPECT_LT(picks[2], picks[0] / 2);
  EXPECT_GT(picks[0], 0);
}

TEST(LoadBalancer, OverloadedBackendLeavesRotation) {
  LbEnv env(4);
  env.hog(1, 12);  // far beyond the overload cutoff
  env.lb->start(env.frontend, msec(50));
  env.simu.run_for(seconds(1));
  EXPECT_GE(env.lb->index_of(1), kOverloadCutoff);
  std::array<int, 4> picks{};
  for (int i = 0; i < 300; ++i) ++picks[static_cast<std::size_t>(env.lb->pick())];
  EXPECT_EQ(picks[1], 0);  // completely out of rotation
}

TEST(LoadBalancer, AllOverloadedStillPicksSomeone) {
  LbEnv env(2);
  env.hog(0, 12);
  env.hog(1, 12);
  env.lb->start(env.frontend, msec(50));
  env.simu.run_for(seconds(1));
  // No healthy server: picks must still return valid indices.
  for (int i = 0; i < 10; ++i) {
    const int p = env.lb->pick();
    EXPECT_GE(p, 0);
    EXPECT_LT(p, 2);
  }
}

TEST(LoadBalancer, PollerRefreshesSamples) {
  LbEnv env(2);
  env.lb->start(env.frontend, msec(20));
  env.simu.run_for(msec(500));
  EXPECT_TRUE(env.lb->last_sample(0).ok);
  EXPECT_TRUE(env.lb->last_sample(1).ok);
  EXPECT_GT(env.lb->fetch_latency_ns().count(), 10u);
  // Samples keep refreshing: retrieved_at advances.
  const auto t1 = env.lb->last_sample(0).retrieved_at;
  env.simu.run_for(msec(200));
  EXPECT_GT(env.lb->last_sample(0).retrieved_at.ns, t1.ns);
}

TEST(LoadBalancer, ERdmaSyncPenalisesIrqPressure) {
  WeightConfig w = WeightConfig::for_scheme(Scheme::ERdmaSync);
  os::LoadSnapshot calm, stormy;
  calm.irq_pending = {1, 1};   // within the normal-traffic allowance
  stormy.irq_pending = {4, 6};  // interrupt storm / deferred backlog
  EXPECT_DOUBLE_EQ(load_index(calm, w), 0.0);
  EXPECT_GT(load_index(stormy, w), 0.5);
}

TEST(Admission, ThresholdSeparatesAdmitReject) {
  AdmissionController adm(0.5);
  EXPECT_TRUE(adm.admit(0.2));
  EXPECT_FALSE(adm.admit(0.7));
  EXPECT_TRUE(adm.admit(0.499));
  EXPECT_EQ(adm.admitted(), 2u);
  EXPECT_EQ(adm.rejected(), 1u);
  EXPECT_DOUBLE_EQ(adm.threshold(), 0.5);
}

class WeightSweepTest : public ::testing::TestWithParam<double> {};

TEST_P(WeightSweepTest, IndexMonotoneInCpuLoad) {
  // Property: for any runq level, the index is monotone in CPU load.
  WeightConfig w;
  os::LoadSnapshot lo, hi;
  lo.nr_running = hi.nr_running = static_cast<int>(GetParam() * 8);
  lo.cpu_load = 0.2;
  hi.cpu_load = 0.9;
  EXPECT_LT(load_index(lo, w), load_index(hi, w));
}

TEST_P(WeightSweepTest, IndexMonotoneInRunq) {
  WeightConfig w;
  os::LoadSnapshot lo, hi;
  lo.cpu_load = hi.cpu_load = GetParam();
  lo.nr_running = 1;
  hi.nr_running = 6;
  EXPECT_LT(load_index(lo, w), load_index(hi, w));
}

INSTANTIATE_TEST_SUITE_P(Levels, WeightSweepTest,
                         ::testing::Values(0.0, 0.25, 0.5, 0.75, 1.0));

}  // namespace
}  // namespace rdmamon::lb
