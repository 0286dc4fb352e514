#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "alloc_counter.hpp"
#include "lb/balancer.hpp"
#include "web/cluster.hpp"
#include "web/metrics.hpp"
#include "sim/simulation.hpp"

namespace rdmamon::web {
namespace {

using monitor::Scheme;
using sim::msec;
using sim::seconds;

TEST(LoadIndex, WeightsCombineAndClamp) {
  lb::WeightConfig w;
  os::LoadSnapshot s;
  s.cpu_load = 1.0;
  s.mem_load = 1.0;
  s.net_rate = 1e12;      // way over capacity: clamps to 1
  s.connections = 10'000; // clamps to 1
  EXPECT_NEAR(lb::load_index(s, w),
              lb::kWCpu + lb::kWMem + lb::kWNet + lb::kWConn, 1e-9);
  os::LoadSnapshot idle;
  EXPECT_NEAR(lb::load_index(idle, w), 0.0, 1e-9);
}

TEST(LoadIndex, IrqPenaltyOnlyForERdmaSync) {
  os::LoadSnapshot s;
  s.irq_pending = {3, 2};
  const auto plain = lb::WeightConfig::for_scheme(Scheme::RdmaSync);
  const auto extended = lb::WeightConfig::for_scheme(Scheme::ERdmaSync);
  EXPECT_DOUBLE_EQ(lb::load_index(s, plain), 0.0);
  // 5 pending, 2 allowed for free: 3 x 0.15 penalty.
  EXPECT_NEAR(lb::load_index(s, extended), 0.45, 1e-9);
}

TEST(ResponseStats, RecordsPerClassAndOverall) {
  ResponseStats st;
  st.record(0, msec(2));
  st.record(0, msec(4));
  st.record(1, msec(10));
  st.record_rejected();
  EXPECT_EQ(st.completed(), 3u);
  EXPECT_EQ(st.rejected(), 1u);
  EXPECT_DOUBLE_EQ(st.by_class(0).mean(), static_cast<double>(msec(3).ns));
  EXPECT_DOUBLE_EQ(st.by_class(1).max(), static_cast<double>(msec(10).ns));
  EXPECT_EQ(st.by_class(42).count(), 0u);
  EXPECT_NEAR(st.throughput(seconds(3)), 1.0, 1e-9);
  st.reset();
  EXPECT_EQ(st.completed(), 0u);
}

ClusterConfig small_cluster(Scheme scheme) {
  ClusterConfig cfg;
  cfg.backends = 4;
  cfg.scheme = scheme;
  return cfg;
}

TEST(Cluster, ServesRubisRequestsEndToEnd) {
  sim::Simulation simu;
  ClusterTestbed bed(simu, small_cluster(Scheme::RdmaSync));
  ClientGroupConfig ccfg;
  ccfg.threads_per_node = 4;
  ClientGroup& g = bed.add_clients(2, make_rubis_generator(), ccfg);
  simu.run_for(seconds(5));
  EXPECT_GT(g.stats().completed(), 500u);
  // Unloaded-ish cluster: mean response in the low milliseconds.
  EXPECT_LT(g.stats().overall().mean(),
            static_cast<double>(msec(50).ns));
  // All backends participated.
  for (auto n : bed.dispatcher().per_backend()) EXPECT_GT(n, 0u);
}

TEST(Cluster, EveryQueryClassGetsResponses) {
  sim::Simulation simu;
  ClusterTestbed bed(simu, small_cluster(Scheme::RdmaSync));
  ClientGroupConfig ccfg;
  ccfg.threads_per_node = 8;
  ClientGroup& g = bed.add_clients(2, make_rubis_generator(), ccfg);
  simu.run_for(seconds(10));
  for (auto q : workload::kAllRubisQueries) {
    EXPECT_GT(g.stats().by_class(static_cast<int>(q)).count(), 0u)
        << workload::to_string(q);
  }
  // Heavier classes respond slower on average.
  EXPECT_GT(
      g.stats()
          .by_class(static_cast<int>(
              workload::RubisQuery::BrowseCategoriesInRegion))
          .mean(),
      g.stats().by_class(static_cast<int>(workload::RubisQuery::Home)).mean());
}

TEST(Cluster, ZipfStaticWorkloadRuns) {
  sim::Simulation simu;
  ClusterTestbed bed(simu, small_cluster(Scheme::RdmaSync));
  auto trace = std::make_shared<workload::ZipfTrace>(
      workload::ZipfTraceConfig{}, 77);
  ClientGroupConfig ccfg;
  ccfg.threads_per_node = 4;
  ClientGroup& g = bed.add_clients(2, make_zipf_generator(trace), ccfg);
  simu.run_for(seconds(5));
  EXPECT_GT(g.stats().completed(), 200u);
  EXPECT_GT(g.stats().by_class(kStaticClass).count(), 0u);
}

TEST(Cluster, AdmissionControlRejectsUnderThresholdZero) {
  sim::Simulation simu;
  ClusterConfig cfg = small_cluster(Scheme::RdmaSync);
  cfg.admission_threshold = 0.0;  // reject everything
  ClusterTestbed bed(simu, cfg);
  ClientGroupConfig ccfg;
  ccfg.threads_per_node = 2;
  ClientGroup& g = bed.add_clients(1, make_rubis_generator(), ccfg);
  simu.run_for(seconds(2));
  EXPECT_EQ(g.stats().completed(), 0u);
  EXPECT_GT(g.stats().rejected(), 0u);
  EXPECT_GT(bed.admission()->rejected(), 0u);
  EXPECT_EQ(bed.admission()->admitted(), 0u);
}

TEST(Cluster, BalancerSpreadsLoadAcrossEqualBackends) {
  sim::Simulation simu;
  ClusterTestbed bed(simu, small_cluster(Scheme::RdmaSync));
  ClientGroupConfig ccfg;
  ccfg.threads_per_node = 8;
  bed.add_clients(2, make_rubis_generator(), ccfg);
  simu.run_for(seconds(10));
  const auto& per = bed.dispatcher().per_backend();
  std::uint64_t lo = ~0ull, hi = 0;
  for (auto n : per) {
    lo = std::min(lo, n);
    hi = std::max(hi, n);
  }
  ASSERT_GT(lo, 0u);
  // No severe skew on identical back ends.
  EXPECT_LT(static_cast<double>(hi) / static_cast<double>(lo), 2.0);
}

TEST(Cluster, FineGrainedRdmaBeatsStaleSocketUnderHeterogeneousLoad) {
  // Mini Fig 9: co-hosted Zipf traffic plus RUBiS, fine granularity.
  // RDMA-Sync's fresh data should not do worse than Socket-Async's stale
  // view; we only assert the direction weakly here (full sweep in bench).
  auto run = [](Scheme scheme) {
    sim::Simulation simu;
    ClusterConfig cfg;
    cfg.backends = 4;
    cfg.scheme = scheme;
    cfg.lb_granularity = msec(64);
    ClusterTestbed bed(simu, cfg);
    ClientGroupConfig rc;
    rc.threads_per_node = 8;
    rc.think = msec(10);
    ClientGroup& rubis = bed.add_clients(2, make_rubis_generator(), rc);
    auto trace = std::make_shared<workload::ZipfTrace>(
        workload::ZipfTraceConfig{}, 13);
    ClientGroupConfig zc;
    zc.threads_per_node = 8;
    zc.think = msec(10);
    ClientGroup& zipf = bed.add_clients(2, make_zipf_generator(trace), zc);
    simu.run_for(seconds(10));
    return rubis.stats().completed() + zipf.stats().completed();
  };
  const auto rdma = run(Scheme::RdmaSync);
  const auto sock = run(Scheme::SocketAsync);
  EXPECT_GT(static_cast<double>(rdma), static_cast<double>(sock) * 0.95);
}

// --- dispatcher pending table ----------------------------------------------

/// Sends one request per id back to back, each holding the back end for
/// 10 s, then reads as many replies.
os::Program send_all_then_read(os::SimThread& self, net::Socket* sock,
                               std::vector<std::uint64_t> ids,
                               std::vector<Reply>* replies) {
  for (std::uint64_t id : ids) {
    Request req;
    req.id = id;
    req.demand.cpu_php = seconds(10);
    co_await sock->send(self, req.request_bytes, req);
  }
  for (std::size_t i = 0; i < ids.size(); ++i) {
    net::Message m;
    co_await sock->recv(self, m);
    replies->push_back(m.payload.as<Reply>());
  }
}

TEST(Dispatcher, FailoverAnswersInForwardingOrder) {
  sim::Simulation simu;
  ClusterConfig cfg;
  cfg.backends = 1;
  ClusterTestbed bed(simu, cfg);
  os::Node client(simu, {.name = "raw-client"});
  bed.fabric().attach(client);
  net::Socket& sock = bed.dispatcher().add_client(client);
  // Ids out of numeric order; the back end holds each for 10 s, so all
  // four are pending when the front end fails them over.
  const std::vector<std::uint64_t> ids = {7, 3, 9, 5};
  std::vector<Reply> replies;
  client.spawn("raw", [&](os::SimThread& t) {
    return send_all_then_read(t, &sock, ids, &replies);
  });
  std::size_t failed = 0;
  simu.at(sim::TimePoint{msec(5).ns},
          [&] { failed = bed.dispatcher().fail_pending_to(0); });
  simu.run_for(msec(20));

  EXPECT_EQ(failed, ids.size());
  EXPECT_EQ(bed.dispatcher().pending(), 0u);
  ASSERT_EQ(replies.size(), ids.size());
  for (std::size_t i = 0; i < ids.size(); ++i) {
    EXPECT_EQ(replies[i].id, ids[i]) << "reply " << i;
    EXPECT_TRUE(replies[i].rejected);
  }
}

/// One client, one front end and one back end, wired by hand: the
/// balancer is never started, so there is no poller and no dispatch log.
struct HandWiredFrontEnd {
  sim::Simulation simu;
  net::Fabric fabric{simu, {}};
  os::Node fe{simu, {.name = "frontend"}};
  os::Node be{simu, {.name = "backend0"}};
  os::Node client{simu, {.name = "client"}};
  WebServer server{fabric, be, {}};
  lb::LoadBalancer balancer{lb::WeightConfig::for_scheme(Scheme::RdmaSync)};
  lb::Dispatcher dispatcher{fabric, fe, balancer};

  HandWiredFrontEnd() {
    fabric.attach(fe);
    fabric.attach(be);
    fabric.attach(client);
    dispatcher.add_backend(server);
    balancer.add_backend(std::make_unique<monitor::MonitorChannel>(
        fabric, fe, be, monitor::MonitorConfig{}));
  }
};

/// Closed loop: one request at a time; `marks` gets the allocation count
/// after `warm` requests and after the last.
os::Program closed_loop(os::SimThread& self, net::Socket* sock, int warm,
                        int total, std::vector<std::uint64_t>* marks) {
  for (int i = 0; i < total; ++i) {
    if (i == warm) marks->push_back(allocation_count());
    Request req;
    req.id = static_cast<std::uint64_t>(i + 1);
    req.demand.cpu_php = sim::usec(100);
    co_await sock->send(self, req.request_bytes, req);
    net::Message m;
    co_await sock->recv(self, m);
  }
  marks->push_back(allocation_count());
}

TEST(Dispatcher, WarmRequestDoesNotAllocate) {
  // The Request and the Reply cross four sockets as inline payload
  // images, each parked in one packet slot until read, and the pending
  // table stops growing once it has held one request.
  HandWiredFrontEnd env;
  net::Socket& sock = env.dispatcher.add_client(env.client);
  constexpr int kWarm = 20, kMeasured = 100;
  std::vector<std::uint64_t> marks;
  marks.reserve(2);
  env.client.spawn("loop", [&](os::SimThread& t) {
    return closed_loop(t, &sock, kWarm, kWarm + kMeasured, &marks);
  });
  env.simu.run_for(seconds(1));

  ASSERT_EQ(marks.size(), 2u);
  EXPECT_EQ(env.server.completed(),
            static_cast<std::uint64_t>(kWarm + kMeasured));
  EXPECT_EQ(env.fabric.packets_in_flight(), 0u);
  EXPECT_EQ(marks[1] - marks[0], 0u);
}

/// The ids pending at a fresh hand-wired front end 5 ms after a group of
/// three client threads started sending requests that each hold the back
/// end for 10 s.
std::vector<std::uint64_t> ids_a_fresh_simulation_numbers() {
  HandWiredFrontEnd env;
  ClientGroupConfig cfg;
  cfg.threads_per_node = 3;
  ClientGroup group(
      env.fabric, env.dispatcher, {&env.client},
      [](sim::Rng&) {
        Request r;
        r.demand.cpu_php = seconds(10);
        return r;
      },
      cfg, sim::Rng(1));
  env.simu.run_for(msec(5));
  return env.dispatcher.pending_ids();
}

TEST(Dispatcher, EachSimulationNumbersItsRequestsFromOne) {
  // Ids come from the dispatcher a group sends through, not from process
  // state: a second simulation in the same process numbers its requests
  // exactly as the first did.
  const std::vector<std::uint64_t> first = ids_a_fresh_simulation_numbers();
  const std::vector<std::uint64_t> second = ids_a_fresh_simulation_numbers();
  std::vector<std::uint64_t> sorted = first;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, (std::vector<std::uint64_t>{1, 2, 3}));
  EXPECT_EQ(second, first);
}

TEST(Payload, ReadingAReplyFromARequestThrows) {
  Request req;
  req.id = 3;
  net::Message m;
  m.payload = req;
  EXPECT_EQ(m.payload.size(), sizeof(Request));
  EXPECT_EQ(m.payload.as<Request>().id, 3u);
  EXPECT_THROW(m.payload.as<Reply>(), std::length_error);
  EXPECT_THROW(net::Payload{}.as<Reply>(), std::length_error);
}

}  // namespace
}  // namespace rdmamon::web
