#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <vector>

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

/// Picks once and checks the one record pick() appended against the
/// winner's view: its index, its age and the path that refreshed it.
DispatchRecord pick_and_check(LoadBalancer& lb) {
  const std::size_t before = lb.dispatch_log().size();
  const int winner = lb.pick();
  EXPECT_EQ(lb.dispatch_log().size(), before + 1);
  const DispatchRecord r = lb.dispatch_log().back();
  EXPECT_EQ(r.backend, winner);
  EXPECT_EQ(r.view_age, lb.view_age(static_cast<std::size_t>(winner)));
  EXPECT_EQ(r.via, lb.view(winner).source);
  return r;
}

TEST(DispatchLog, EachPickLogsTheWinnersViewAgeAndSource) {
  {  // Before any sample, then after poll rounds.
    LbEnv env(2);
    LoadBalancer& lb = *env.lb;
    (void)lb.pick();  // no clock bound yet: nothing is logged
    EXPECT_TRUE(lb.dispatch_log().empty());
    lb.start(env.frontend, msec(20));
    for (int k = 0; k < 2; ++k) {
      const DispatchRecord r = pick_and_check(lb);
      EXPECT_EQ(r.view_age, sim::nsec(-1));
    }
    env.simu.run_for(msec(100));
    for (int k = 0; k < 2; ++k) {
      const DispatchRecord r = pick_and_check(lb);
      EXPECT_GE(r.view_age.ns, 0);
      EXPECT_EQ(r.via, ViewSource::Pull);
    }
  }
  {  // A gossiped record: back end 1 is a peer's shard.
    LbEnv env(2);
    LoadBalancer& lb = *env.lb;
    lb.set_poll_filter([](std::size_t i) { return i == 0; });
    lb.start(env.frontend, msec(20));
    env.simu.run_for(msec(100));
    os::LoadSnapshot info;
    info.computed_at = env.simu.now() - msec(3);
    lb.ingest_peer(PeerRecord{1, true, info, env.simu.now(), env.simu.now()});
    int gossiped = 0;
    for (int k = 0; k < 4; ++k) {
      const DispatchRecord r = pick_and_check(lb);
      if (r.backend != 1) continue;
      ++gossiped;
      EXPECT_EQ(r.via, ViewSource::Gossip);
      EXPECT_EQ(r.view_age, msec(3));
    }
    EXPECT_GT(gossiped, 0);
  }
  {  // A scanned inbox slot: back end 1's image is planted in its slot.
    LbEnv env(2);
    LoadBalancer& lb = *env.lb;
    monitor::PushInbox inbox(env.fabric, env.frontend, 2);
    lb.enable_push(inbox, {monitor::MonitorStrategy::Push});
    lb.start(env.frontend, msec(20));
    env.simu.run_for(msec(10));
    monitor::InboxSlot slot;
    slot.seq = slot.seq_check = 1;
    slot.info.computed_at = env.simu.now();
    inbox.poke(1, slot);
    env.simu.run_for(msec(20));  // the scanner consumes it
    int pushed = 0;
    for (int k = 0; k < 4; ++k) {
      const DispatchRecord r = pick_and_check(lb);
      if (r.backend != 1) continue;
      ++pushed;
      EXPECT_EQ(r.via, ViewSource::Push);
      EXPECT_EQ(r.view_age, msec(20));
    }
    EXPECT_GT(pushed, 0);
  }
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

// --- pick(): one pass against the three-pass reference ----------------------

/// The three-pass pick() the balancer ran before it cached indices and
/// kept its alive count. It walks the public views three times: to count
/// the alive back ends, to look for a server in rotation below the
/// cutoff, and to weigh every server, recomputing each index from its
/// sample. Moves `credit` as pick() must move the balancer's credits.
int three_pass_pick(const LoadBalancer& lb, const WeightConfig& w,
                    std::vector<double>& credit) {
  constexpr double kFloor = 0.02;
  const int n = lb.backends();
  auto index_of = [&](int i) {
    const monitor::MonitorSample& s = lb.last_sample(i);
    return s.ok ? load_index(s.info, w) : 0.0;
  };
  bool any_alive = false;
  for (int i = 0; i < n; ++i) {
    any_alive = any_alive || lb.health_of(i) != BackendHealth::Dead;
  }
  auto in_rotation = [&](int i) {
    return !any_alive || lb.health_of(i) != BackendHealth::Dead;
  };
  bool any_ok = false;
  for (int i = 0; i < n; ++i) {
    if (in_rotation(i) && index_of(i) < kOverloadCutoff) {
      any_ok = true;
      break;
    }
  }
  double total = 0.0;
  int winner = -1;
  for (int i = 0; i < n; ++i) {
    const double idx = index_of(i);
    double wt;
    if (!in_rotation(i) || (any_ok && idx >= kOverloadCutoff)) {
      wt = 0.0;
    } else if (lb.health_of(i) == BackendHealth::Suspect) {
      wt = kFloor;
    } else {
      wt = std::max(kFloor, 1.0 - idx);
    }
    const auto ui = static_cast<std::size_t>(i);
    credit[ui] += wt;
    total += wt;
    if (wt > 0.0 &&
        (winner < 0 || credit[ui] > credit[static_cast<std::size_t>(winner)])) {
      winner = i;
    }
  }
  if (winner < 0) winner = 0;
  credit[static_cast<std::size_t>(winner)] -= total;
  return winner;
}

/// A snapshot whose load index is at or above kOverloadCutoff when `hot`,
/// and anywhere from idle to past the cutoff otherwise.
os::LoadSnapshot random_snapshot(std::mt19937& rng, bool hot) {
  std::uniform_real_distribution<double> u(0.0, 1.0);
  os::LoadSnapshot s;
  s.cpu_load = hot ? 1.0 : u(rng);
  s.nr_running = static_cast<int>(hot ? 8 + rng() % 4 : rng() % 9);
  s.mem_load = u(rng);
  s.net_rate = u(rng) * monitor::kNetCapacityBps;
  s.connections = static_cast<int>(rng() % 160);
  s.cpus = 2;
  s.irq_pending = {static_cast<int>(rng() % 5), static_cast<int>(rng() % 5)};
  return s;
}

TEST(PickProperty, OnePassPicksAndCreditsAsTheThreePassReference) {
  // Random views and health states, driven through the balancer's own
  // entry points (a gossiped record applies a sample, a staleness strike
  // counts a failure, a takeover resets the detector). Every pick must
  // name the reference's winner and leave every credit bit-equal to the
  // reference's. Four shapes of cluster: random, all Dead, every index
  // at or above the cutoff, and some Suspect.
  std::mt19937 rng(20061025);
  int all_dead = 0, all_hot = 0, some_suspect = 0;
  for (int trial = 0; trial < 160; ++trial) {
    const Scheme scheme = trial % 2 == 0 ? Scheme::RdmaSync : Scheme::ERdmaSync;
    const WeightConfig w = WeightConfig::for_scheme(scheme);
    const int n = 1 + static_cast<int>(rng() % 9);
    const int shape = (trial / 2) % 4;
    LbEnv env(n, scheme);
    LoadBalancer& lb = *env.lb;
    auto feed = [&](int b, bool hot) {
      lb.ingest_peer(PeerRecord{b, true, random_snapshot(rng, hot), {}, {}});
    };
    auto strike = [&](int b, int times) {
      for (int k = 0; k < times; ++k) lb.note_stale(static_cast<std::size_t>(b));
    };
    // Some back ends keep "no good sample yet" (index 0) for a while.
    for (int b = 0; b < n; ++b) {
      if (rng() % 3 != 0) feed(b, shape == 2);
    }
    if (shape == 1) {
      for (int b = 0; b < n; ++b) strike(b, kDeadAfter);
    }
    std::vector<double> credit(static_cast<std::size_t>(n), 0.0);
    for (int step = 0; step < 60; ++step) {
      const int b = static_cast<int>(rng() % static_cast<unsigned>(n));
      switch (shape) {
        case 0:  // anything goes
          switch (rng() % 4) {
            case 0: feed(b, false); break;
            case 1: feed(b, true); break;
            case 2: strike(b, 1); break;
            default: lb.reset_health(static_cast<std::size_t>(b)); break;
          }
          break;
        case 1:  // a new sample, then a strike: still Dead
          feed(b, rng() % 2 == 0);
          strike(b, 1);
          break;
        case 2:  // every sample past the cutoff, health moving
          feed(b, true);
          if (rng() % 3 == 0) strike(b, 1 + static_cast<int>(rng() % 3));
          break;
        default:  // fresh samples, one strike now and then
          feed(b, false);
          if (rng() % 2 == 0) {
            strike(static_cast<int>(rng() % static_cast<unsigned>(n)), 1);
          }
          break;
      }
      int alive = 0;
      bool hot = true, suspect = false;
      for (int i = 0; i < n; ++i) {
        const monitor::MonitorSample& s = lb.last_sample(i);
        ASSERT_EQ(lb.index_of(i), s.ok ? load_index(s.info, w) : 0.0)
            << "trial " << trial << " backend " << i;
        alive += lb.health_of(i) != BackendHealth::Dead;
        suspect = suspect || lb.health_of(i) == BackendHealth::Suspect;
      }
      ASSERT_EQ(lb.alive_backends(), alive) << "trial " << trial;
      for (int i = 0; i < n; ++i) {
        if (alive == 0 || lb.health_of(i) != BackendHealth::Dead) {
          hot = hot && lb.index_of(i) >= kOverloadCutoff;
        }
      }
      all_dead += alive == 0;
      all_hot += hot;
      some_suspect += suspect;
      const int want = three_pass_pick(lb, w, credit);
      ASSERT_EQ(lb.pick(), want) << "trial " << trial << " step " << step;
      for (int i = 0; i < n; ++i) {
        ASSERT_EQ(lb.wrr_credit(i), credit[static_cast<std::size_t>(i)])
            << "trial " << trial << " step " << step << " backend " << i;
      }
    }
  }
  EXPECT_GT(all_dead, 500);
  EXPECT_GT(all_hot, 500);
  EXPECT_GT(some_suspect, 500);
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
