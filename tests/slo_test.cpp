// Staleness SLO engine + flight recorder + RDMA-readable alarms.
//
// Covers the freshness plane end to end: bounded flight rings and their
// merged time-ordered dumps, edge-triggered alarm semantics (one record
// per transition, deterministic budget refill on the simulated clock,
// byte-identical logs), probe polling, the timer, alarms served from a
// registered region — and the acceptance scenario: kill a push publisher's
// node, watch "lb.view_age" breach within one window, read the alarm
// from another node with a one-sided RDMA READ, and validate the
// post-mortem flight dump it left behind.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "alloc_counter.hpp"
#include "fault/fault.hpp"
#include "lb/balancer.hpp"
#include "monitor/inbox.hpp"
#include "monitor/monitor.hpp"
#include "net/fabric.hpp"
#include "net/nic.hpp"
#include "net/verbs.hpp"
#include "os/node.hpp"
#include "sim/simulation.hpp"
#include "telemetry/recorder.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/slo.hpp"

namespace rdmamon {
namespace {

using sim::msec;
using telemetry::AlarmEntry;
using telemetry::AlarmState;
using telemetry::AlarmView;
using telemetry::FlightRecorder;
using telemetry::FlightRing;
using telemetry::SloEngine;
using telemetry::SloSpec;

sim::TimePoint tp(std::int64_t ms) { return sim::TimePoint{} + msec(ms); }

/// Every `"t_ns": <v>` inside the events array of a dump string, in
/// document order (util::JsonValue has no const readers, so dump
/// validation goes through the rendered text).
std::vector<std::int64_t> event_times(const std::string& dump) {
  std::vector<std::int64_t> out;
  const std::string key = "\"t_ns\": ";
  for (std::size_t pos = dump.find(key); pos != std::string::npos;
       pos = dump.find(key, pos + key.size())) {
    out.push_back(std::strtoll(dump.c_str() + pos + key.size(), nullptr, 10));
  }
  return out;
}

// --- flight recorder ---------------------------------------------------------

TEST(FlightRing, BoundedOverwriteKeepsNewestAndCountsDrops) {
  FlightRecorder rec;
  FlightRing* r = rec.ring("x", 4);
  for (int i = 0; i < 10; ++i) r->record_at(tp(i), "e", i);
  EXPECT_EQ(r->capacity(), 4u);
  EXPECT_EQ(r->size(), 4u);
  EXPECT_EQ(r->recorded(), 10u);
  EXPECT_EQ(r->dropped(), 6u);
  const std::vector<telemetry::FlightEvent> evs = r->events();
  ASSERT_EQ(evs.size(), 4u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(evs[static_cast<std::size_t>(i)].a, 6 + i);  // oldest first
  }
  // Same subsystem name returns the same ring; the creation capacity
  // sticks.
  EXPECT_EQ(rec.ring("x", 999), r);
  EXPECT_EQ(r->capacity(), 4u);
}

TEST(FlightRing, DisabledRecorderDropsEverything) {
  FlightRecorder rec;
  FlightRing* r = rec.ring("x", 4);
  rec.set_enabled(false);
  r->record_at(tp(1), "e");
  telemetry::fr_record(r, "e2");
  EXPECT_EQ(r->recorded(), 0u);
  EXPECT_EQ(r->size(), 0u);
  rec.set_enabled(true);
  r->record_at(tp(2), "e3");
  EXPECT_EQ(r->recorded(), 1u);
}

TEST(FlightRecorder, NullRingHelpersAreNoOps) {
  telemetry::fr_record(nullptr, "e", 1, 2, 3.0);  // must not crash
  telemetry::fr_record_at(nullptr, tp(1), "e");
}

TEST(FlightRecorder, MergedDumpIsTimeOrderedAcrossRings) {
  FlightRecorder rec;
  FlightRing* a = rec.ring("aaa", 8);
  FlightRing* b = rec.ring("bbb", 8);
  // Interleaved stamps, including a same-instant tie across rings: the
  // global sequence number must break it in record order.
  a->record_at(tp(5), "a1");
  b->record_at(tp(1), "b1");
  a->record_at(tp(3), "a2");
  b->record_at(tp(3), "b2");
  const std::string doc = rec.dump("unit").dump(2);
  EXPECT_NE(doc.find("\"reason\": \"unit\""), std::string::npos);
  const std::vector<std::int64_t> ts = event_times(doc);
  ASSERT_EQ(ts.size(), 4u);
  for (std::size_t i = 1; i < ts.size(); ++i) EXPECT_LE(ts[i - 1], ts[i]);
  // The same-instant pair keeps record order: a2 (recorded first) before b2.
  EXPECT_LT(doc.find("\"kind\": \"a2\""), doc.find("\"kind\": \"b2\""));
  // Per-ring accounting is present, in name order.
  EXPECT_LT(doc.find("\"name\": \"aaa\""), doc.find("\"name\": \"bbb\""));
}

TEST(FlightRecorder, PostmortemWritesFileOnlyWhenDirConfigured) {
  ::unsetenv("RDMAMON_FLIGHT_DIR");
  FlightRecorder rec;
  rec.ring("r", 4)->record_at(tp(1), "boom", 7);
  EXPECT_EQ(rec.postmortem("nowhere"), "");  // always-on default: no disk

  const std::string dir = ::testing::TempDir() + "slo_test_pm";
  std::filesystem::create_directories(dir);
  rec.set_postmortem_dir(dir);
  const std::string path = rec.postmortem("slo lb.view_age");
  ASSERT_FALSE(path.empty());
  EXPECT_NE(path.find("flight_slo_lb_view_age_0.json"), std::string::npos);
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream ss;
  ss << in.rdbuf();
  EXPECT_NE(ss.str().find("\"reason\": \"slo lb.view_age\""),
            std::string::npos);
  EXPECT_NE(ss.str().find("\"kind\": \"boom\""), std::string::npos);
  // Repeated triggers never clobber earlier dumps.
  const std::string path2 = rec.postmortem("slo lb.view_age");
  EXPECT_NE(path2.find("_1.json"), std::string::npos);
}

// --- SLO engine: edge semantics ----------------------------------------------

SloSpec age_spec(double target, double budget = 1.0,
                 std::size_t min_count = 4) {
  SloSpec spec;
  spec.name = "age";
  spec.metric = "test view age";
  spec.target = target;
  spec.window = msec(500);
  spec.error_budget = budget;
  spec.warn_fraction = 0.5;
  spec.min_count = min_count;
  return spec;
}

TEST(SloEngine, EdgeFiresExactlyOncePerTransition) {
  SloEngine eng;
  SloEngine::Stream* s = eng.add(age_spec(/*target=*/100.0));
  // Healthy observations: state stays Ok, nothing logged.
  for (int i = 0; i < 4; ++i) eng.observe(s, 50.0, tp(i * 10));
  eng.evaluate(tp(40));
  EXPECT_EQ(eng.state(s), AlarmState::Ok);
  EXPECT_TRUE(eng.log().empty());

  // All-violating window (the old healthy points slid out): one Breach
  // edge, and ONLY one — re-evaluating in the breached state is silent.
  for (int i = 0; i < 4; ++i) eng.observe(s, 500.0, tp(600 + i * 20));
  eng.evaluate(tp(700));
  EXPECT_EQ(eng.state(s), AlarmState::Breach);
  ASSERT_EQ(eng.log().size(), 1u);
  EXPECT_EQ(eng.log()[0].from, AlarmState::Ok);
  EXPECT_EQ(eng.log()[0].to, AlarmState::Breach);
  EXPECT_DOUBLE_EQ(eng.log()[0].consumed, 1.0);
  eng.evaluate(tp(710));
  eng.evaluate(tp(720));
  EXPECT_EQ(eng.log().size(), 1u);

  // Budget refill is purely clock-driven: once the violating points age
  // out of the window and healthy ones replace them, exactly one
  // recovery edge fires.
  for (int i = 0; i < 8; ++i) eng.observe(s, 10.0, tp(1300 + i * 10));
  eng.evaluate(tp(1400));
  EXPECT_EQ(eng.state(s), AlarmState::Ok);
  ASSERT_EQ(eng.log().size(), 2u);
  EXPECT_EQ(eng.log()[1].from, AlarmState::Breach);
  EXPECT_EQ(eng.log()[1].to, AlarmState::Ok);
  eng.evaluate(tp(1450));
  EXPECT_EQ(eng.log().size(), 2u);
}

TEST(SloEngine, WarnLadderBeforeBreach) {
  SloEngine eng;
  // budget 0.5: consumed = 2x the violating fraction, so 25% violating
  // arms BreachWarn (consumed 0.5) and 50% violating breaches.
  SloEngine::Stream* s = eng.add(age_spec(100.0, /*budget=*/0.5));
  for (int i = 0; i < 3; ++i) eng.observe(s, 50.0, tp(i * 10));
  eng.observe(s, 500.0, tp(30));
  eng.evaluate(tp(40));
  EXPECT_EQ(eng.state(s), AlarmState::BreachWarn);
  eng.observe(s, 500.0, tp(50));
  eng.observe(s, 500.0, tp(60));
  eng.evaluate(tp(70));
  EXPECT_EQ(eng.state(s), AlarmState::Breach);
  ASSERT_EQ(eng.log().size(), 2u);
  EXPECT_EQ(eng.log()[0].to, AlarmState::BreachWarn);
  EXPECT_EQ(eng.log()[1].to, AlarmState::Breach);
}

TEST(SloEngine, MinCountHoldsJudgement) {
  SloEngine eng;
  SloEngine::Stream* s = eng.add(age_spec(100.0, 1.0, /*min_count=*/8));
  for (int i = 0; i < 7; ++i) eng.observe(s, 500.0, tp(i * 10));
  eng.evaluate(tp(80));
  // 100% violating but below the evidence floor: no state change.
  EXPECT_EQ(eng.state(s), AlarmState::Ok);
  EXPECT_TRUE(eng.log().empty());
  eng.observe(s, 500.0, tp(90));
  eng.evaluate(tp(100));
  EXPECT_EQ(eng.state(s), AlarmState::Breach);
}

TEST(SloEngine, ProbesArePolledAtEvaluate) {
  SloEngine eng;
  SloSpec spec = age_spec(100.0, 1.0, /*min_count=*/2);
  spec.window = msec(100);
  SloEngine::Stream* s = eng.add(spec);
  double gauge = 50.0;
  const std::uint64_t id = eng.add_probe(s, [&gauge] { return gauge; });
  eng.evaluate(tp(0));
  EXPECT_EQ(eng.state(s), AlarmState::Ok);
  gauge = 500.0;
  // Two polls after the healthy point slid out: a pure-violating window.
  eng.evaluate(tp(200));
  eng.evaluate(tp(210));
  EXPECT_EQ(eng.state(s), AlarmState::Breach);
  eng.remove_probe(id);
  const std::size_t n_log = eng.log().size();
  eng.evaluate(tp(220));
  EXPECT_EQ(eng.log().size(), n_log);  // no probe, no new evidence
}

TEST(SloEngine, AlarmLogJsonIsByteIdenticalAcrossRuns) {
  const auto run = [] {
    SloEngine eng;
    SloEngine::Stream* s = eng.add(age_spec(100.0));
    for (int i = 0; i < 4; ++i) eng.observe(s, 500.0, tp(10 + i * 10));
    eng.evaluate(tp(50));
    for (int i = 0; i < 8; ++i) eng.observe(s, 1.0, tp(700 + i * 10));
    eng.evaluate(tp(800));
    return eng.log_json().dump(2);
  };
  const std::string a = run();
  EXPECT_EQ(a, run());
  EXPECT_NE(a.find("\"to\": \"breach\""), std::string::npos);
  EXPECT_NE(a.find("\"to\": \"ok\""), std::string::npos);
}

TEST(SloEngine, WarmWindowObservesAndEvaluatesWithoutAllocating) {
  // The balancer feeds "lb.view_age" once per dispatch, so a stream's
  // window must not allocate once it has held a full window: one
  // observation per simulated ms against a 500 ms window, every tenth
  // violating (consumed 0.1, so the state stays Ok and logs nothing).
  SloEngine eng;
  SloEngine::Stream* s = eng.add(age_spec(100.0));
  std::int64_t ms = 0;
  const auto step = [&] {
    eng.observe(s, ms % 10 == 0 ? 500.0 : 50.0, tp(ms));
    eng.evaluate(tp(ms));
    ++ms;
  };
  while (ms <= 500) step();
  const std::uint64_t before = allocation_count();
  for (int i = 0; i < 10'000; ++i) step();
  EXPECT_EQ(allocation_count() - before, 0u);
  EXPECT_EQ(eng.state(s), AlarmState::Ok);
  EXPECT_TRUE(eng.log().empty());
  EXPECT_NEAR(eng.consumed(s), 0.1, 0.01);
}

TEST(SloEngine, ViewSummarisesWorstStateInSpecOrder) {
  SloEngine eng;
  SloEngine::Stream* ok = eng.add(age_spec(100.0));
  SloSpec second = age_spec(100.0);
  second.name = "age2";
  SloEngine::Stream* bad = eng.add(second);
  for (int i = 0; i < 4; ++i) eng.observe(bad, 500.0, tp(i * 10));
  eng.evaluate(tp(40));
  AlarmView v = eng.view();
  EXPECT_EQ(v.worst, AlarmState::Breach);
  ASSERT_EQ(v.count, 2u);
  EXPECT_STREQ(v.entries[0].name, "age");
  EXPECT_EQ(v.entries[0].state, AlarmState::Ok);
  EXPECT_STREQ(v.entries[1].name, "age2");
  EXPECT_EQ(v.entries[1].state, AlarmState::Breach);
  EXPECT_EQ(v.entries[1].edges, 1u);
  EXPECT_EQ(eng.spec(ok).name, "age");
}

TEST(SloEngine, ViewImageKeepsTheWorstStateOfStreamsPastItsCapacity) {
  // AlarmView is a fixed-capacity image: streams past kMaxEntries get no
  // entry but are counted in `dropped` and still count towards `worst`,
  // and long names are cut to fit.
  SloEngine eng;
  std::vector<SloEngine::Stream*> streams;
  for (std::size_t i = 0; i <= AlarmView::kMaxEntries; ++i) {
    SloSpec spec = age_spec(100.0);
    spec.name = std::string(AlarmEntry::kNameBytes, 'a') + std::to_string(i);
    streams.push_back(eng.add(spec));
  }
  for (int i = 0; i < 4; ++i) eng.observe(streams.back(), 500.0, tp(i * 10));
  eng.evaluate(tp(40));
  const AlarmView v = eng.view();
  EXPECT_EQ(v.count, AlarmView::kMaxEntries);
  EXPECT_EQ(v.dropped, 1u);
  EXPECT_EQ(v.worst, AlarmState::Breach);
  for (std::size_t i = 0; i < v.count; ++i) {
    EXPECT_EQ(v.entries[i].state, AlarmState::Ok);
    EXPECT_EQ(std::string(v.entries[i].name),
              std::string(AlarmEntry::kNameBytes - 1, 'a'));
  }
}

TEST(SloEngine, TimerEvaluatesOnSimulatedClock) {
  sim::Simulation simu;
  telemetry::Registry reg;
  reg.install(simu);
  SloEngine eng;
  eng.install(reg);
  SloSpec spec = age_spec(100.0, 1.0, /*min_count=*/2);
  SloEngine::Stream* s = eng.add(spec);
  eng.add_probe(s, [] { return 500.0; });  // permanently violating
  eng.arm_timer(simu, msec(10));
  simu.run_for(msec(100));
  EXPECT_EQ(eng.state(s), AlarmState::Breach);
  ASSERT_EQ(eng.log().size(), 1u);
  // The edge is mirrored into registry counters and the "slo" flight ring
  // (which records nothing with telemetry compiled out).
  EXPECT_EQ(reg.counter("slo.edges", {{"slo", "age"}}).value(), 1u);
  EXPECT_EQ(reg.counter("slo.breach", {{"slo", "age"}}).value(), 1u);
  if constexpr (telemetry::kEnabled) {
    EXPECT_GE(reg.recorder().ring("slo")->recorded(), 1u);
  }
  eng.disarm_timer();
}

// --- AlarmMonitor: the alarm view, built at each READ's DMA instant ------

TEST(AlarmMonitor, AlarmReadableViaOneSidedRead) {
  sim::Simulation simu;
  telemetry::Registry reg;
  reg.install(simu);
  SloEngine eng;
  eng.install(reg);
  SloSpec spec = age_spec(100.0, 1.0, /*min_count=*/2);
  spec.name = "lb.view_age";
  SloEngine::Stream* s = eng.add(spec);
  eng.add_probe(s, [] { return 500.0; });
  eng.arm_timer(simu, msec(10));

  net::Fabric fabric(simu, {});
  os::Node fe(simu, {.name = "frontend"}), reader(simu, {.name = "reader"});
  fabric.attach(fe);
  fabric.attach(reader);
  AlarmView image;
  const net::MrKey key = fabric.nic(fe.id).register_mr(
      net::bytes_of(image),
      [&](net::Verb, std::span<std::byte>&) { image = eng.view(); });

  bool got = false;
  AlarmView remote;
  reader.spawn("alarm-reader", [&](os::SimThread& self) -> os::Program {
    co_await os::SleepFor{msec(60)};
    net::CompletionQueue cq;
    net::QueuePair qp{fabric.nic(reader.id), fe.id, cq};
    net::Completion c;
    co_await net::rdma_sync(self, qp,
                            {.rkey = key, .len = sizeof(AlarmView)}, c);
    if (c.status == net::WcStatus::Success) {
      remote = c.data.as<AlarmView>();
      got = true;
    }
  });
  simu.run_for(msec(120));

  ASSERT_TRUE(got);
  EXPECT_EQ(remote.worst, AlarmState::Breach);
  ASSERT_EQ(remote.count, 1u);
  EXPECT_STREQ(remote.entries[0].name, "lb.view_age");
  EXPECT_EQ(remote.entries[0].state, AlarmState::Breach);
  // Built at the READ's DMA instant, after the reader woke.
  EXPECT_GE(remote.published_at, tp(60));
}

TEST(AlarmMonitor, ReadPostedAtTheEdgeInstantSeesTheEdge) {
  // No publisher and no edge hook: a READ posted at the edge's instant
  // already sees the edge, because the region is built at its DMA instant.
  sim::Simulation simu;
  telemetry::Registry reg;
  reg.install(simu);
  SloEngine eng;
  eng.install(reg);
  SloSpec spec = age_spec(100.0, 1.0, /*min_count=*/2);
  SloEngine::Stream* s = eng.add(spec);

  net::Fabric fabric(simu, {});
  os::Node fe(simu, {.name = "frontend"}), reader(simu, {.name = "reader"});
  fabric.attach(fe);
  fabric.attach(reader);
  AlarmView image;
  const net::MrKey key = fabric.nic(fe.id).register_mr(
      net::bytes_of(image),
      [&](net::Verb, std::span<std::byte>&) { image = eng.view(); });
  net::CompletionQueue cq;
  net::QueuePair qp{fabric.nic(reader.id), fe.id, cq};
  const std::uint64_t wr = cq.alloc_wr_id();

  simu.at(tp(50), [&] {
    eng.observe(s, 500.0, simu.now());
    eng.observe(s, 500.0, simu.now());
    eng.evaluate(simu.now());
    qp.post({.rkey = key, .len = sizeof(AlarmView), .wr_id = wr});
  });
  simu.run_for(msec(100));
  net::Completion c;
  ASSERT_TRUE(cq.try_pop(wr, c));
  ASSERT_EQ(c.status, net::WcStatus::Success);
  const AlarmView remote = c.data.as<AlarmView>();
  EXPECT_EQ(remote.worst, AlarmState::Breach);
  EXPECT_EQ(remote.entries[0].since, tp(50));
  EXPECT_EQ(remote.entries[0].edges, 1u);
}

// --- acceptance: frozen publisher -> breach -> remote read -> post-mortem ----

TEST(FreshnessAlarm, DeadPublisherBreachesSloAndLeavesFlightDump) {
  // The balancer feeds the SLO stream, and the breach leaves a flight
  // dump, only with telemetry compiled in: nothing is left to check
  // without it.
  if constexpr (!telemetry::kEnabled) {
    GTEST_SKIP() << "telemetry compiled out";
  }
  ::unsetenv("RDMAMON_FLIGHT_DIR");
  const std::string dir = ::testing::TempDir() + "slo_accept_pm";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  sim::Simulation simu;
  telemetry::Registry reg;
  reg.install(simu);
  reg.recorder().set_postmortem_dir(dir);
  SloEngine slo;
  slo.install(reg);
  // p100 view age <= 150ms over a 500ms window: any sustained staleness
  // must breach within one window of the first violating probe.
  SloSpec spec;
  spec.name = "lb.view_age";
  spec.metric = "worst backend view age (ns)";
  spec.target = 150e6;
  spec.window = msec(500);
  spec.error_budget = 1.0;
  spec.warn_fraction = 0.5;
  spec.min_count = 4;
  slo.add(spec);
  slo.arm_timer(simu, msec(50));

  net::Fabric fabric(simu, {});
  os::Node fe(simu, {.name = "fe"}), reader(simu, {.name = "reader"});
  fabric.attach(fe);
  fabric.attach(reader);
  lb::LoadBalancer lb(lb::WeightConfig{});
  monitor::MonitorConfig mcfg;
  mcfg.scheme = monitor::Scheme::RdmaSync;
  std::vector<std::unique_ptr<os::Node>> backends;
  const int n = 4;
  for (int i = 0; i < n; ++i) {
    backends.push_back(std::make_unique<os::Node>(
        simu, os::NodeConfig{.name = "be" + std::to_string(i)}));
    fabric.attach(*backends.back());
    lb.add_backend(std::make_unique<monitor::MonitorChannel>(
        fabric, fe, *backends.back(), mcfg));
  }
  monitor::PushInbox inbox(fabric, fe, n);
  lb.enable_push(inbox, {monitor::MonitorStrategy::Push});
  std::vector<std::unique_ptr<monitor::PushPublisher>> pubs;
  for (int i = 0; i < n; ++i) {
    pubs.push_back(std::make_unique<monitor::PushPublisher>(
        fabric, *backends[static_cast<std::size_t>(i)]));
    pubs.back()->target(inbox, i);
    pubs.back()->start();
  }
  lb.start(fe, msec(50));
  AlarmView alarms;
  const net::MrKey alarms_key = fabric.nic(fe.id).register_mr(
      net::bytes_of(alarms),
      [&](net::Verb, std::span<std::byte>&) { alarms = slo.view(); });

  // The breach instant, captured at the edge.
  sim::TimePoint breach_at{-1};
  slo.on_edge([&](const telemetry::AlarmRecord& r) {
    if (r.to == AlarmState::Breach && breach_at.ns < 0) breach_at = r.at;
  });

  // t=1s: back end 2's node dies. Its publisher stops pushing AND the
  // silence-verification READs fail, so the front end's view of it only
  // ages — the regime the staleness SLO exists for.
  const sim::TimePoint kill = tp(1000);
  fault::FaultInjector inj(fabric);
  fault::FaultPlan plan;
  plan.crash(backends[2]->id, kill);
  inj.arm(plan);

  // A remote operator asks "is that front end's view stale?" late in the
  // run — one-sided, zero cost on the possibly-wedged front end.
  bool got = false;
  AlarmView remote;
  reader.spawn("operator", [&](os::SimThread& self) -> os::Program {
    co_await os::SleepFor{msec(2200)};
    net::CompletionQueue cq;
    net::QueuePair qp{fabric.nic(reader.id), fe.id, cq};
    net::Completion c;
    co_await net::rdma_sync(self, qp,
                            {.rkey = alarms_key, .len = sizeof(AlarmView)}, c);
    if (c.status == net::WcStatus::Success) {
      remote = c.data.as<AlarmView>();
      got = true;
    }
  });
  simu.run_for(msec(2500));

  // Breach within one window of the staleness crossing the target: ages
  // exceed 150ms at kill+150ms; every probe after that violates, so the
  // breach must land by kill + target + window (+ one probe period).
  ASSERT_GE(breach_at.ns, 0) << "SLO never breached";
  EXPECT_GT(breach_at, kill);
  EXPECT_LE(breach_at.ns, (kill + msec(150) + msec(500) + msec(50)).ns);

  // The remote read saw the breach.
  ASSERT_TRUE(got);
  EXPECT_EQ(remote.worst, AlarmState::Breach);

  // The breach edge dumped a post-mortem: merged, time-ordered, and
  // naming the rings that recorded the lead-up (the crash dumped one
  // too — flight_crash_* — which is its own feature, not this check).
  std::string pm;
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    if (e.path().filename().string().rfind("flight_slo_lb_view_age", 0) == 0) {
      pm = e.path().string();
    }
  }
  ASSERT_FALSE(pm.empty()) << "no slo post-mortem in " << dir;
  std::ifstream in(pm);
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string doc = ss.str();
  EXPECT_NE(doc.find("\"reason\": \"slo_lb.view_age\""), std::string::npos);
  EXPECT_NE(doc.find("\"ring\": \"slo\""), std::string::npos);
  EXPECT_NE(doc.find("\"kind\": \"alarm\""), std::string::npos);
  EXPECT_NE(doc.find("\"name\": \"fault\""), std::string::npos);
  const std::vector<std::int64_t> ts = event_times(doc);
  ASSERT_GE(ts.size(), 2u);
  for (std::size_t i = 1; i < ts.size(); ++i) EXPECT_LE(ts[i - 1], ts[i]);
}

}  // namespace
}  // namespace rdmamon
