#include <gtest/gtest.h>

#include "monitor/push.hpp"
#include "net/fabric.hpp"
#include "os/node.hpp"
#include "reconfig/reconfig.hpp"
#include "sim/simulation.hpp"

namespace rdmamon::reconfig {
namespace {

using sim::msec;
using sim::seconds;

struct Env {
  sim::Simulation simu;
  net::Fabric fabric{simu, {}};
  os::Node frontend{simu, {.name = "fe"}};
  std::vector<std::unique_ptr<os::Node>> backends;

  explicit Env(int n) {
    fabric.attach(frontend);
    for (int i = 0; i < n; ++i) {
      os::NodeConfig cfg;
      cfg.name = "be" + std::to_string(i);
      backends.push_back(std::make_unique<os::Node>(simu, cfg));
      fabric.attach(*backends.back());
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

TEST(RoleRegion, RemoteWriteFlipsRoleAndNotifies) {
  Env env(1);
  RoleRegion region(env.fabric, *env.backends[0], Role::ServiceA);
  EXPECT_EQ(region.role(), Role::ServiceA);
  Role seen = Role::ServiceA;
  region.on_change([&](Role r) { seen = r; });

  net::CompletionQueue cq;
  net::QueuePair qp(env.fabric.nic(env.frontend.id), env.backends[0]->id,
                    cq);
  net::Completion out;
  env.frontend.spawn("writer", [&](os::SimThread& self) -> os::Program {
    const int word = static_cast<int>(Role::ServiceB);
    co_await net::rdma_sync(self, qp,
                            {.verb = net::Verb::Write,
                             .rkey = region.mr_key(),
                             .len = sizeof(int),
                             .payload = net::bytes_of(word)},
                            out);
  });
  env.simu.run_for(msec(10));
  EXPECT_EQ(out.status, net::WcStatus::Success);
  EXPECT_EQ(region.role(), Role::ServiceB);
  EXPECT_EQ(seen, Role::ServiceB);
  // Zero back-end threads were needed for the flip.
  EXPECT_EQ(env.backends[0]->stats().nr_threads(), 0);
}

TEST(ReconfigManager, MovesNodeTowardsTheHotService) {
  Env env(4);
  std::vector<std::unique_ptr<RoleRegion>> regions;
  ReconfigConfig cfg;
  cfg.monitor.scheme = monitor::Scheme::RdmaSync;
  cfg.check_period = msec(50);
  cfg.cooldown = msec(200);
  ReconfigManager mgr(env.fabric, env.frontend, cfg);
  for (int i = 0; i < 4; ++i) {
    regions.push_back(std::make_unique<RoleRegion>(
        env.fabric, *env.backends[static_cast<std::size_t>(i)],
        i < 2 ? Role::ServiceA : Role::ServiceB));
    mgr.add_backend(*regions.back());
  }
  // Service A's nodes (0, 1) are saturated; B's (2, 3) idle.
  env.hog(0, 6);
  env.hog(1, 6);
  mgr.start();
  env.simu.run_for(seconds(3));
  EXPECT_GE(mgr.reconfigurations(), 1u);
  EXPECT_GT(mgr.nodes_in(Role::ServiceA), 2);
  EXPECT_GE(mgr.nodes_in(Role::ServiceB), cfg.min_nodes_per_service);
}

TEST(ReconfigManager, RespectsMinimumPoolSize) {
  Env env(2);
  std::vector<std::unique_ptr<RoleRegion>> regions;
  ReconfigConfig cfg;
  cfg.monitor.scheme = monitor::Scheme::RdmaSync;
  cfg.min_nodes_per_service = 1;
  ReconfigManager mgr(env.fabric, env.frontend, cfg);
  for (int i = 0; i < 2; ++i) {
    regions.push_back(std::make_unique<RoleRegion>(
        env.fabric, *env.backends[static_cast<std::size_t>(i)],
        static_cast<Role>(i)));
    mgr.add_backend(*regions.back());
  }
  env.hog(0, 8);  // A's only node overloaded, but B may not give up its last
  mgr.start();
  env.simu.run_for(seconds(3));
  EXPECT_GE(mgr.nodes_in(Role::ServiceA), 1);
  EXPECT_GE(mgr.nodes_in(Role::ServiceB), 1);
  EXPECT_EQ(mgr.reconfigurations(), 0u);
}

TEST(ReconfigManager, CooldownLimitsChurn) {
  Env env(4);
  std::vector<std::unique_ptr<RoleRegion>> regions;
  ReconfigConfig cfg;
  cfg.monitor.scheme = monitor::Scheme::RdmaSync;
  cfg.check_period = msec(20);
  cfg.cooldown = seconds(10);  // at most one reconfiguration in this test
  ReconfigManager mgr(env.fabric, env.frontend, cfg);
  for (int i = 0; i < 4; ++i) {
    regions.push_back(std::make_unique<RoleRegion>(
        env.fabric, *env.backends[static_cast<std::size_t>(i)],
        i < 2 ? Role::ServiceA : Role::ServiceB));
    mgr.add_backend(*regions.back());
  }
  env.hog(0, 6);
  env.hog(1, 6);
  mgr.start();
  env.simu.run_for(seconds(3));
  EXPECT_LE(mgr.reconfigurations(), 1u);
}

}  // namespace
}  // namespace rdmamon::reconfig

namespace rdmamon::monitor {
namespace {

using sim::msec;
using sim::seconds;

TEST(Push, SubscribersReceivePeriodicUpdates) {
  sim::Simulation simu;
  net::Fabric fabric(simu, {});
  os::Node backend(simu, {.name = "be"});
  os::Node fe1(simu, {.name = "fe1"}), fe2(simu, {.name = "fe2"});
  fabric.attach(backend);
  fabric.attach(fe1);
  fabric.attach(fe2);

  MulticastConfig cfg;
  cfg.period = msec(50);
  MulticastPublisher pub(fabric, backend, cfg);
  MulticastSubscriber& s1 = pub.subscribe(fe1);
  MulticastSubscriber& s2 = pub.subscribe(fe2);
  pub.start();

  simu.run_for(seconds(1));
  EXPECT_GT(pub.pushes(), 15u);
  EXPECT_GT(s1.updates(), 15u);
  EXPECT_EQ(s1.updates(), s2.updates());
  ASSERT_TRUE(s1.has_data());
  const MonitorSample sample = s1.last(simu.now());
  EXPECT_TRUE(sample.ok);
  // Local read: zero fetch latency...
  EXPECT_EQ(sample.latency().ns, 0);
  // ...but the data ages up to a full period between pushes.
  EXPECT_LE(sample.staleness().ns, (msec(60)).ns);
}

TEST(Push, RequiresABackendDaemonUnlikeRdmaSync) {
  sim::Simulation simu;
  net::Fabric fabric(simu, {});
  os::Node backend(simu, {.name = "be"});
  os::Node fe(simu, {.name = "fe"});
  fabric.attach(backend);
  fabric.attach(fe);
  MulticastPublisher pub(fabric, backend, {});
  pub.subscribe(fe);
  pub.start();
  simu.run_for(msec(100));
  // The publisher daemon is the cost the paper's Section 6 warns about.
  EXPECT_EQ(backend.stats().nr_threads(), 1);
}

}  // namespace
}  // namespace rdmamon::monitor
