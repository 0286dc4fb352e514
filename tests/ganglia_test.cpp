#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "ganglia/ganglia.hpp"
#include "net/fabric.hpp"
#include "os/node.hpp"
#include "sim/simulation.hpp"

namespace rdmamon::ganglia {
namespace {

using sim::msec;
using sim::seconds;

struct Env {
  sim::Simulation simu;
  net::Fabric fabric{simu, {}};
  std::vector<std::unique_ptr<os::Node>> nodes;

  explicit Env(int n) {
    for (int i = 0; i < n; ++i) {
      os::NodeConfig cfg;
      cfg.name = "n" + std::to_string(i);
      nodes.push_back(std::make_unique<os::Node>(simu, cfg));
      fabric.attach(*nodes.back());
    }
  }
  std::vector<os::Node*> node_ptrs() {
    std::vector<os::Node*> out;
    for (auto& n : nodes) out.push_back(n.get());
    return out;
  }
};

TEST(Gmond, CollectsDefaultMetricsLocally) {
  Env env(1);
  GangliaConfig cfg;
  cfg.collect_period = msec(100);
  GangliaCluster ganglia(env.fabric, env.node_ptrs(), cfg);
  env.simu.run_for(seconds(1));
  const MetricValue* cpu = ganglia.daemon(0).lookup("n0", "cpu_load");
  ASSERT_NE(cpu, nullptr);
  EXPECT_GE(cpu->value, 0.0);
  EXPECT_NE(ganglia.daemon(0).lookup("n0", "mem_load"), nullptr);
  EXPECT_NE(ganglia.daemon(0).lookup("n0", "proc_run"), nullptr);
}

TEST(Gmond, GossipPropagatesMetricsToAllPeers) {
  Env env(4);
  GangliaConfig cfg;
  cfg.collect_period = msec(100);
  GangliaCluster ganglia(env.fabric, env.node_ptrs(), cfg);
  env.simu.run_for(seconds(1));
  // Every daemon should know n2's cpu metric.
  for (int i = 0; i < ganglia.size(); ++i) {
    const MetricValue* v = ganglia.daemon(i).lookup("n2", "cpu_load");
    ASSERT_NE(v, nullptr) << "daemon " << i;
  }
}

TEST(Gmond, PublishedCustomMetricReachesPeers) {
  Env env(3);
  GangliaConfig cfg;
  cfg.collect_period = seconds(100);  // keep default traffic out of the way
  GangliaCluster ganglia(env.fabric, env.node_ptrs(), cfg);
  env.simu.after(msec(10), [&] { ganglia.daemon(0).publish("custom", 42.0); });
  env.simu.run_for(seconds(1));
  for (int i = 0; i < 3; ++i) {
    const MetricValue* v = ganglia.daemon(i).lookup("n0", "custom");
    ASSERT_NE(v, nullptr) << "daemon " << i;
    EXPECT_DOUBLE_EQ(v->value, 42.0);
  }
}

TEST(Gmond, PublishRejectsANameThatDoesNotFitAPacket) {
  Env env(2);
  GangliaConfig cfg;
  cfg.collect_period = seconds(100);
  GangliaCluster ganglia(env.fabric, env.node_ptrs(), cfg);
  const std::string longest(MetricPacket::kNameCapacity - 1, 'm');
  const std::string too_long(MetricPacket::kNameCapacity, 'm');
  EXPECT_THROW(ganglia.daemon(0).publish(too_long, 1.0), std::length_error);
  EXPECT_EQ(ganglia.daemon(0).lookup("n0", too_long), nullptr);
  ganglia.daemon(0).publish(longest, 2.0);
  env.simu.run_for(seconds(1));
  // The longest name that fits arrives whole at the peer.
  const MetricValue* v = ganglia.daemon(1).lookup("n0", longest);
  ASSERT_NE(v, nullptr);
  EXPECT_DOUBLE_EQ(v->value, 2.0);
}

TEST(Gmetric, AgentPublishesFineGrainedLoadViaScheme) {
  Env env(3);  // n0 = frontend, n1 = backend, n2 = observer
  GangliaConfig cfg;
  cfg.collect_period = seconds(100);
  GangliaCluster ganglia(env.fabric, env.node_ptrs(), cfg);
  monitor::MonitorConfig mcfg;
  mcfg.scheme = monitor::Scheme::RdmaSync;
  GmetricAgent agent(env.fabric, ganglia.daemon(0), *env.nodes[0],
                     *env.nodes[1], mcfg, msec(4), msec(100));
  env.simu.run_for(seconds(2));
  // Fetches at 4ms threshold: hundreds of them.
  EXPECT_GT(agent.fetches(), 300u);
  // The observer node learned the fine-grained metric via gossip.
  const MetricValue* v = ganglia.daemon(2).lookup("n0", agent.metric_name());
  ASSERT_NE(v, nullptr);
}

TEST(Gmetric, RdmaSyncAgentAddsNoBackendThreads) {
  Env env(2);
  GangliaConfig cfg;
  cfg.collect_period = seconds(100);
  // No ganglia on the backend node: isolate the agent's footprint.
  std::vector<os::Node*> front_only = {env.nodes[0].get()};
  GangliaCluster ganglia(env.fabric, front_only, cfg);
  monitor::MonitorConfig mcfg;
  mcfg.scheme = monitor::Scheme::RdmaSync;
  GmetricAgent agent(env.fabric, ganglia.daemon(0), *env.nodes[0],
                     *env.nodes[1], mcfg, msec(1), msec(100));
  env.simu.run_for(seconds(1));
  EXPECT_EQ(env.nodes[1]->stats().nr_threads(), 0);
  // The 1ms sleep rounds up to the next tick after each fetch, so the
  // effective cycle is ~2ms.
  EXPECT_GE(agent.fetches(), 450u);
}

}  // namespace
}  // namespace rdmamon::ganglia
