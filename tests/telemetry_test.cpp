#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "alloc_counter.hpp"
#include "monitor/monitor.hpp"
#include "monitor/scatter.hpp"
#include "net/fabric.hpp"
#include "net/nic.hpp"
#include "net/verbs.hpp"
#include "os/node.hpp"
#include "sim/simulation.hpp"
#include "telemetry/export.hpp"
#include "telemetry/registry.hpp"

namespace rdmamon::telemetry {
namespace {

TEST(Labels, CanonicalIsSortedAndOrderIndependent) {
  Labels a{{"scheme", "RDMA-Sync"}, {"backend", "b0"}};
  Labels b{{"backend", "b0"}, {"scheme", "RDMA-Sync"}};
  EXPECT_EQ(a.canonical(), "backend=b0,scheme=RDMA-Sync");
  EXPECT_EQ(a.canonical(), b.canonical());
  EXPECT_TRUE(Labels{}.empty());
  EXPECT_EQ(Labels{}.canonical(), "");
}

TEST(Registry, SameNameAndLabelsResolveSameInstrument) {
  Registry reg;
  Counter& c1 = reg.counter("x.total", Labels{{"a", "1"}, {"b", "2"}});
  Counter& c2 = reg.counter("x.total", Labels{{"b", "2"}, {"a", "1"}});
  EXPECT_EQ(&c1, &c2);
  c1.inc(3);
  EXPECT_EQ(c2.value(), 3u);
  // Different labels -> different instrument.
  Counter& c3 = reg.counter("x.total", Labels{{"a", "9"}});
  EXPECT_NE(&c1, &c3);
  EXPECT_EQ(reg.instrument_count(), 2u);
}

TEST(Registry, KindsAreIndependentInstruments) {
  Registry reg;
  reg.counter("same.name").inc(1);
  reg.gauge("same.name").set(7.5);
  reg.histogram("same.name").observe(2.0);
  const Snapshot snap = reg.snapshot();
  // One entry per (name, labels, first-kind-wins) — creating a second kind
  // under the same key returns a distinct instrument slot.
  EXPECT_GE(reg.instrument_count(), 1u);
  ASSERT_NE(snap.find("same.name"), nullptr);
}

TEST(Registry, SnapshotIsDeterministicAcrossIdenticalRuns) {
  auto build = [] {
    Registry reg;
    reg.counter("z.last", Labels{{"n", "1"}}).inc(4);
    reg.counter("a.first").inc(2);
    reg.gauge("m.mid", Labels{{"n", "0"}}).set(1.5);
    reg.histogram("h.lat").observe(10.0);
    reg.histogram("h.lat").observe(1000.0);
    return to_json(reg.snapshot()).dump(2);
  };
  const std::string once = build();
  const std::string twice = build();
  EXPECT_EQ(once, twice);
  // Sorted export order: a.first before h.lat before m.mid before z.last.
  EXPECT_LT(once.find("a.first"), once.find("h.lat"));
  EXPECT_LT(once.find("h.lat"), once.find("m.mid"));
  EXPECT_LT(once.find("m.mid"), once.find("z.last"));
}

TEST(Registry, CollectorsRunAtSnapshotStart) {
  Registry reg;
  std::uint64_t component_counter = 0;
  const std::uint64_t id = reg.add_collector([&](Registry& r) {
    r.gauge("comp.level").set(static_cast<double>(component_counter));
  });
  component_counter = 42;
  const Snapshot s1 = reg.snapshot();
  ASSERT_NE(s1.find("comp.level"), nullptr);
  EXPECT_DOUBLE_EQ(s1.find("comp.level")->value, 42.0);
  component_counter = 43;
  const Snapshot s2 = reg.snapshot();
  EXPECT_DOUBLE_EQ(s2.find("comp.level")->value, 43.0);
  reg.remove_collector(id);
  component_counter = 99;
  const Snapshot s3 = reg.snapshot();
  EXPECT_DOUBLE_EQ(s3.find("comp.level")->value, 43.0);  // stale, not re-run
}

TEST(Registry, SnapshotExportsKernelSelfMonitoringGauges) {
  sim::Simulation simu;
  Registry reg;
  reg.install(simu);
  int fired = 0;
  simu.after(sim::Duration{1'000}, [&] { ++fired; });
  simu.after(sim::Duration{2'000}, [&] { ++fired; });
  // Two far-future timeouts cancelled before firing: heap-resident, so
  // they tombstone until the lazy sweep and must show up in the gauge.
  sim::EventHandle t1 = simu.after(sim::Duration{30'000'000'000ll}, [] {});
  sim::EventHandle t2 = simu.after(sim::Duration{40'000'000'000ll}, [] {});
  t1.cancel();
  t2.cancel();
  const Snapshot before = reg.snapshot();
  ASSERT_NE(before.find("sim_events_tombstoned"), nullptr);
  EXPECT_DOUBLE_EQ(before.find("sim_events_tombstoned")->value, 2.0);
  EXPECT_DOUBLE_EQ(before.find("sim_events_pending")->value, 2.0);

  simu.run_until(sim::TimePoint{5'000});
  EXPECT_EQ(fired, 2);
  // The final pop left no live event, which reaps every tombstone.
  const Snapshot after = reg.snapshot();
  ASSERT_NE(after.find("sim_events_executed"), nullptr);
  EXPECT_DOUBLE_EQ(after.find("sim_events_executed")->value, 2.0);
  EXPECT_DOUBLE_EQ(after.find("sim_events_pending")->value, 0.0);
  EXPECT_DOUBLE_EQ(after.find("sim_events_cancelled")->value, 2.0);
  EXPECT_DOUBLE_EQ(after.find("sim_events_tombstoned")->value, 0.0);
}

TEST(Registry, ScopedCollectorSurvivesEitherDestructionOrder) {
  if constexpr (!kEnabled) GTEST_SKIP() << "telemetry compiled out";
  // Collector outlives registry: release() must not touch the dead
  // registry because Registry's destructor un-installs itself first.
  sim::Simulation simu;
  auto holder = std::make_unique<ScopedCollector>();
  {
    Registry reg;
    reg.install(simu);
    holder->bind(simu, [](Registry& r) { r.gauge("g").set(1.0); });
    EXPECT_TRUE(holder->bound());
  }  // registry destroyed before collector
  holder.reset();  // must not crash

  // Registry outlives collector: normal removal path.
  Registry reg2;
  reg2.install(simu);
  {
    ScopedCollector sc;
    sc.bind(simu, [](Registry& r) { r.gauge("g2").set(2.0); });
  }
  const Snapshot snap = reg2.snapshot();
  EXPECT_EQ(snap.find("g2"), nullptr);  // removed before any snapshot
}

TEST(Registry, OfReturnsInstalledRegistryOrNull) {
  sim::Simulation simu;
  EXPECT_EQ(Registry::of(simu), nullptr);
  Registry reg;
  reg.install(simu);
  if constexpr (kEnabled) {
    EXPECT_EQ(Registry::of(simu), &reg);
  } else {
    EXPECT_EQ(Registry::of(simu), nullptr);
  }
}

TEST(RecordHelpers, NullTolerant) {
  // The hot-path helpers must accept null instrument pointers (registry
  // absent) without crashing.
  add(nullptr);
  add(nullptr, 5);
  set(nullptr, 1.0);
  observe(static_cast<HistogramMetric*>(nullptr), 2.0);
  observe(static_cast<HistogramMetric*>(nullptr), sim::usec(3));
}

TEST(RecordHelpers, DisabledPathDoesNotAllocate) {
  // With null instruments the helpers are one branch — and in particular
  // must not build strings or touch the heap. This is the run-time half
  // of "zero-cost when disabled"; the compile-time half is kEnabled being
  // constexpr (checked below).
  Counter* c = nullptr;
  Gauge* g = nullptr;
  HistogramMetric* h = nullptr;
  FlightRing* r = nullptr;
  // gtest itself allocates, so the count brackets exactly the helpers.
  const std::uint64_t before = allocation_count();
  for (int i = 0; i < 1000; ++i) {
    add(c);
    set(g, static_cast<double>(i));
    observe(h, static_cast<double>(i));
    fr_record(r, "kind", i);
  }
  EXPECT_EQ(allocation_count(), before);
  static_assert(kEnabled == (RDMAMON_TELEMETRY_ENABLED != 0),
                "kEnabled must be a compile-time constant");
}

TEST(FlightRing, UntouchedRingHoldsNoEventsAndBufferDoublesUntilItWraps) {
  FlightRecorder rec;
  const std::uint64_t bytes0 = allocated_bytes();
  FlightRing* r = rec.ring("nic.be7", 512);
  // Creating the ring pays its bookkeeping, not the 512-event buffer.
  EXPECT_LT(allocated_bytes() - bytes0, 512 * sizeof(FlightEvent));
  EXPECT_EQ(r->capacity(), 512u);
  EXPECT_EQ(r->size(), 0u);
  EXPECT_TRUE(r->events().empty());
  const std::string doc = rec.dump("untouched").dump(2);
  EXPECT_NE(doc.find("\"capacity\": 512"), std::string::npos);
  EXPECT_NE(doc.find("\"recorded\": 0"), std::string::npos);

  // The first record allocates a buffer smaller than the full one.
  const std::uint64_t before = allocation_count();
  const std::uint64_t bytes1 = allocated_bytes();
  r->record_at(sim::TimePoint{}, "fill", 1);
  EXPECT_EQ(allocation_count(), before + 1);
  EXPECT_LT(allocated_bytes() - bytes1, 512 * sizeof(FlightEvent));
  // Filling the ring doubles the buffer: at most log2(512) = 9
  // allocations in all, and the events keep their places.
  for (int i = 2; i <= 512; ++i) r->record_at(sim::TimePoint{}, "fill", i);
  const std::uint64_t filled = allocation_count();
  EXPECT_GT(filled - before, 1u);
  EXPECT_LE(filled - before, 9u);
  EXPECT_EQ(r->size(), 512u);
  EXPECT_EQ(r->dropped(), 0u);
  const std::vector<FlightEvent> full = r->events();
  for (std::size_t i = 0; i < full.size(); ++i) {
    EXPECT_EQ(full[i].a, static_cast<std::int64_t>(i + 1));
  }
  // Once it wraps, a record overwrites the oldest event in place.
  const std::uint64_t wrapped = allocation_count();
  for (int i = 0; i < 2000; ++i) {  // wraps the ring several times
    r->record_at(sim::TimePoint{}, "later", i);
  }
  EXPECT_EQ(allocation_count(), wrapped);
  EXPECT_EQ(r->capacity(), 512u);
  EXPECT_EQ(r->size(), 512u);
  EXPECT_EQ(r->recorded(), 2512u);
  EXPECT_EQ(r->dropped(), 2000u);
  EXPECT_EQ(r->events().back().a, 1999);
}

TEST(FlightRing, RecordsAtTheInstalledSimulationsClock) {
  FlightRecorder unbound;
  FlightRing* u = unbound.ring("u", 4);
  u->record("e");
  ASSERT_EQ(u->events().size(), 1u);
  EXPECT_EQ(u->events()[0].at.ns, 0);  // no simulation bound: TimePoint{}

  sim::Simulation simu;
  Registry reg;
  reg.install(simu);
  simu.at(sim::TimePoint{} + sim::usec(7),
          [&] { reg.recorder().ring("r", 4)->record("e"); });
  simu.run_for(sim::usec(10));
  const std::vector<FlightEvent> evs = reg.recorder().ring("r")->events();
  ASSERT_EQ(evs.size(), 1u);
  EXPECT_EQ(evs[0].at.ns, sim::usec(7).ns);
}

// Heap allocations made by `reads` steady-state one-sided READs, counted
// after a warm-up, with or without a registry installed.
std::uint64_t steady_read_allocs(bool with_registry, int reads) {
  sim::Simulation simu;
  Registry reg;
  if (with_registry) reg.install(simu);
  net::Fabric fabric(simu, {});
  os::Node a(simu, {.name = "a"}), b(simu, {.name = "b"});
  fabric.attach(a);
  fabric.attach(b);
  int word = 1;
  const net::MrKey key = fabric.nic(b.id).register_mr(net::bytes_of(word));
  net::CompletionQueue cq;
  net::QueuePair qp(fabric.nic(a.id), b.id, cq);
  auto read_once = [&] {
    qp.post({.rkey = key, .len = 64, .wr_id = 1});
    simu.run_for(sim::usec(100));
    net::Completion c;
    EXPECT_TRUE(cq.try_pop(1, c));
  };
  // Warm: past the NIC ring's 512 records (one per READ), so it has
  // wrapped and stopped growing.
  for (int i = 0; i < 640; ++i) read_once();
  const std::uint64_t before = allocation_count();
  for (int i = 0; i < reads; ++i) read_once();
  return allocation_count() - before;
}

TEST(RecordHelpers, RegistryAddsNoAllocationPerRead) {
  // A READ's one flight record is written into the NIC's ring at its
  // one completion point, never through a wrapper callback built per
  // op; a wrapped ring never allocates.
  EXPECT_EQ(steady_read_allocs(/*with_registry=*/true, 64),
            steady_read_allocs(/*with_registry=*/false, 64));
}

TEST(Export, PrometheusTextShape) {
  Registry reg;
  reg.counter("monitor.fetch.total",
              Labels{{"scheme", "RDMA-Sync"}, {"backend", "b0"}})
      .inc(42);
  reg.gauge("lb.alive_backends").set(4);
  reg.histogram("monitor.fetch.latency_ns").observe(1500.0);
  const std::string text = to_prometheus(reg.snapshot());
  EXPECT_NE(text.find("rdmamon_monitor_fetch_total"), std::string::npos);
  EXPECT_NE(text.find("backend=\"b0\""), std::string::npos);
  EXPECT_NE(text.find("scheme=\"RDMA-Sync\""), std::string::npos);
  EXPECT_NE(text.find("rdmamon_lb_alive_backends 4"), std::string::npos);
  EXPECT_NE(text.find("rdmamon_monitor_fetch_latency_ns_count"),
            std::string::npos);
  EXPECT_NE(text.find("rdmamon_monitor_fetch_latency_ns{quantile=\"0.99\"}"),
            std::string::npos);
}

TEST(Export, JsonRoundTripsThroughDump) {
  Registry reg;
  reg.counter("a.total").inc(7);
  const util::JsonValue doc = to_json(reg.snapshot());
  const std::string text = doc.dump(0);
  EXPECT_NE(text.find("\"a.total\""), std::string::npos);
  EXPECT_NE(text.find("\"metrics\""), std::string::npos);
}

TEST(Export, DashboardPrintsGroupedMetrics) {
  Registry reg;
  reg.counter("net.verbs.posts", Labels{{"node", "fe"}}).inc(3);
  std::ostringstream os;
  print_dashboard(os, reg.snapshot());
  const std::string out = os.str();
  EXPECT_NE(out.find("[net]"), std::string::npos);
  EXPECT_NE(out.find("net.verbs.posts"), std::string::npos);
  EXPECT_NE(out.find("{node=fe} 3"), std::string::npos);
}

TEST(Export, DashboardSectionsAreSortedAndStable) {
  // Snapshot test: sections in sorted order with 4-space-indented
  // entries, regardless of instrument registration order.
  Registry reg;
  reg.gauge("net.up").set(1);                                // [net]
  reg.counter("lb.pick", Labels{{"backend", "b0"}}).inc(2);  // [lb]
  std::ostringstream os;
  print_dashboard(os, reg.snapshot());
  const std::string out = os.str();
  const std::size_t body = out.find("  [");
  ASSERT_NE(body, std::string::npos);
  const std::string expected = std::string("  [lb]\n") +          //
                               "    lb.pick" + std::string(27, ' ') +
                               "{backend=b0} 2\n" +               //
                               "  [net]\n" +                      //
                               "    net.up" + std::string(28, ' ') + "1\n";
  EXPECT_EQ(out.substr(body), expected);
  // Deterministic: a second render is byte-identical.
  std::ostringstream os2;
  print_dashboard(os2, reg.snapshot());
  EXPECT_EQ(os.str(), os2.str());
}

TEST(Export, PrometheusEmitsHelpAndTypeOncePerMetric) {
  Registry reg;
  reg.counter("monitor.fetch", Labels{{"backend", "b0"}}).inc(1);
  reg.counter("monitor.fetch", Labels{{"backend", "b1"}}).inc(2);
  reg.histogram("lb.age_ns", Labels{{"backend", "b0"}}).observe(5.0);
  reg.histogram("lb.age_ns", Labels{{"backend", "b1"}}).observe(7.0);
  const std::string text = to_prometheus(reg.snapshot());
  auto count_of = [&text](const std::string& needle) {
    std::size_t n = 0;
    for (std::size_t p = text.find(needle); p != std::string::npos;
         p = text.find(needle, p + needle.size())) {
      ++n;
    }
    return n;
  };
  // One TYPE per family even with several label sets; scrapers reject
  // duplicates. Summaries declare the bare family name once.
  EXPECT_EQ(count_of("# TYPE rdmamon_monitor_fetch_total counter"), 1u);
  EXPECT_EQ(count_of("# HELP rdmamon_monitor_fetch_total"), 1u);
  EXPECT_EQ(count_of("# TYPE rdmamon_lb_age_ns summary"), 1u);
  EXPECT_EQ(count_of("rdmamon_monitor_fetch_total{"), 2u);
  // TYPE precedes the family's first sample.
  EXPECT_LT(text.find("# TYPE rdmamon_monitor_fetch_total"),
            text.find("rdmamon_monitor_fetch_total{"));
}

/// Minimal exposition-format line parser for the round-trip test:
/// unescapes one quoted label value (the inverse of prom_escape).
std::string prom_unescape(const std::string& v) {
  std::string out;
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (v[i] == '\\' && i + 1 < v.size()) {
      const char c = v[++i];
      out += c == 'n' ? '\n' : c;  // \\ -> backslash, \" -> quote
    } else {
      out += v[i];
    }
  }
  return out;
}

TEST(Export, PrometheusRoundTripParsesAndUnescapes) {
  const std::string nasty = "quo\"te\\slash\nline";
  Registry reg;
  reg.counter("a.total", Labels{{"k", nasty}}).inc(3);
  reg.gauge("b.current").set(1.5);
  reg.histogram("c.lat_ns").observe(10.0);
  const std::string text = to_prometheus(reg.snapshot());

  // Parse every line: comments must be HELP/TYPE (or the header), and
  // every sample must be `name[{k="v",...}] value` with a declared TYPE
  // for its family and a numeric value.
  std::map<std::string, std::string> types;  // family -> type
  std::string parsed_label;
  std::size_t samples = 0;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    if (line[0] == '#') {
      std::istringstream ls(line);
      std::string hash, what, fam, kind;
      ls >> hash >> what;
      if (what == "TYPE") {
        ls >> fam >> kind;
        EXPECT_EQ(types.count(fam), 0u) << "duplicate TYPE for " << fam;
        types[fam] = kind;
      }
      continue;
    }
    const std::size_t sp = line.rfind(' ');
    ASSERT_NE(sp, std::string::npos) << line;
    char* end = nullptr;
    (void)std::strtod(line.c_str() + sp + 1, &end);
    EXPECT_EQ(*end, '\0') << "unparseable value in: " << line;
    std::string name = line.substr(0, sp);
    const std::size_t brace = name.find('{');
    if (brace != std::string::npos) {
      // Extract the quoted value of the first label (escape-aware).
      const std::size_t q0 = name.find('"', brace);
      ASSERT_NE(q0, std::string::npos);
      std::size_t q1 = q0 + 1;
      while (q1 < name.size() &&
             !(name[q1] == '"' && name[q1 - 1] != '\\')) {
        ++q1;
      }
      if (name.compare(brace, 4, "{k=\"") == 0) {
        parsed_label = prom_unescape(name.substr(q0 + 1, q1 - q0 - 1));
      }
      name = name.substr(0, brace);
    }
    // The sample's family must have a TYPE: exact for plain metrics, the
    // base name for summary _count/_mean satellites.
    bool declared = types.count(name) > 0;
    for (const char* suffix : {"_count", "_mean"}) {
      const std::string s = suffix;
      if (!declared && name.size() > s.size() &&
          name.compare(name.size() - s.size(), s.size(), s) == 0) {
        declared = types.count(name.substr(0, name.size() - s.size())) > 0;
      }
    }
    EXPECT_TRUE(declared) << "sample before TYPE: " << name;
    ++samples;
  }
  EXPECT_GE(samples, 5u);  // counter + gauge + summary count/mean/quantiles
  // The nasty label value round-trips exactly.
  EXPECT_EQ(parsed_label, nasty);
}

// --- end-to-end: an instrumented run produces the expected metrics ----------

TEST(Integration, MonitorRunPopulatesRegistry) {
  if constexpr (!kEnabled) GTEST_SKIP() << "telemetry compiled out";
  sim::Simulation simu;
  Registry reg;
  reg.install(simu);
  net::Fabric fabric(simu, {});
  os::Node fe(simu, {.name = "fe"}), be(simu, {.name = "be"});
  fabric.attach(fe);
  fabric.attach(be);
  monitor::MonitorConfig mcfg;
  mcfg.scheme = monitor::Scheme::RdmaSync;
  monitor::MonitorChannel chan(fabric, fe, be, mcfg);
  int okay = 0;
  std::vector<std::int64_t> latency_ns;
  fe.spawn("mon", [&](os::SimThread& self) -> os::Program {
    for (int i = 0; i < 20; ++i) {
      monitor::MonitorSample s;
      co_await chan.frontend().fetch(self, s);
      if (s.ok) ++okay;
      latency_ns.push_back(s.latency().ns);
      co_await os::SleepFor{sim::msec(10)};
    }
  });
  simu.run_for(sim::seconds(1));
  ASSERT_GT(okay, 0);

  const Snapshot snap = reg.snapshot();
  const SnapshotEntry* ok_ctr =
      snap.find("monitor.fetch.outcome", "backend=be,result=ok,scheme=RDMA-Sync");
  ASSERT_NE(ok_ctr, nullptr);
  EXPECT_DOUBLE_EQ(ok_ctr->value, static_cast<double>(okay));
  // Counts are per back end, distributions per {scheme, front end}.
  const SnapshotEntry* lat =
      snap.find("monitor.fetch.latency_ns", "frontend=fe,scheme=RDMA-Sync");
  ASSERT_NE(lat, nullptr);
  EXPECT_EQ(lat->hist.count, static_cast<std::uint64_t>(okay));
  EXPECT_GT(lat->hist.p50, 0.0);
  // Verbs-layer instruments appeared too.
  EXPECT_NE(snap.find("net.nic.rdma_posted", "node=fe"), nullptr);
  // Every finished fetch left one "fetch.*" record in the front end's
  // ring, keyed 1..20, with its latency as the duration; each key's
  // attempts precede it and sum to no more than the fetch. A blocking
  // fetch is a one-target scatter round, whose "round" records the
  // ring holds too.
  const FlightRing* ring = reg.recorder().ring("monitor.fe");
  std::vector<std::int64_t> keys;
  std::map<std::int64_t, double> attempt_ns;
  for (const FlightEvent& e : ring->events()) {
    const std::string kind = e.kind;
    if (kind == "round") continue;
    EXPECT_EQ(e.a, be.id) << e.kind;
    if (kind.starts_with("attempt.")) {
      attempt_ns[e.b] += e.x;
      continue;
    }
    ASSERT_TRUE(kind.starts_with("fetch.")) << kind;
    keys.push_back(e.b);
    const std::size_t n = keys.size();
    EXPECT_EQ(e.b, static_cast<std::int64_t>(n));
    ASSERT_LE(n, latency_ns.size());
    EXPECT_DOUBLE_EQ(e.x, static_cast<double>(latency_ns[n - 1]));
    EXPECT_GT(attempt_ns[e.b], 0.0);
    EXPECT_LE(attempt_ns[e.b], e.x);
  }
  EXPECT_EQ(keys.size(), 20u);
  EXPECT_EQ(attempt_ns.size(), keys.size());
}

TEST(Integration, BlockingFetchCountsItsDoorbells) {
  // A blocking RDMA fetch rings one doorbell per attempt, so the doorbell
  // counters agree with the NIC's post count like any other post.
  if constexpr (!kEnabled) GTEST_SKIP() << "telemetry compiled out";
  sim::Simulation simu;
  Registry reg;
  reg.install(simu);
  net::Fabric fabric(simu, {});
  os::Node fe(simu, {.name = "fe"}), be(simu, {.name = "be"});
  fabric.attach(fe);
  fabric.attach(be);
  monitor::MonitorConfig mcfg;
  mcfg.scheme = monitor::Scheme::RdmaSync;
  monitor::MonitorChannel chan(fabric, fe, be, mcfg);
  fe.spawn("mon", [&](os::SimThread& self) -> os::Program {
    for (int i = 0; i < 10; ++i) {
      monitor::MonitorSample s;
      co_await chan.frontend().fetch(self, s);
    }
  });
  simu.run_for(sim::msec(100));

  const Snapshot snap = reg.snapshot();
  for (const char* name : {"net.nic.rdma_posted", "net.doorbells",
                           "net.posts"}) {
    const SnapshotEntry* e = snap.find(name, "node=fe");
    ASSERT_NE(e, nullptr) << name;
    EXPECT_EQ(e->value, 10.0) << name;
  }
}

TEST(Integration, IdenticalRunsYieldIdenticalExports) {
  auto run_once = [] {
    sim::Simulation simu;
    Registry reg;
    reg.install(simu);
    net::Fabric fabric(simu, {});
    os::Node fe(simu, {.name = "fe"}), be(simu, {.name = "be"});
    fabric.attach(fe);
    fabric.attach(be);
    monitor::MonitorConfig mcfg;
    mcfg.scheme = monitor::Scheme::SocketSync;
    monitor::MonitorChannel chan(fabric, fe, be, mcfg);
    fe.spawn("mon", [&](os::SimThread& self) -> os::Program {
      for (int i = 0; i < 10; ++i) {
        monitor::MonitorSample s;
        co_await chan.frontend().fetch(self, s);
        co_await os::SleepFor{sim::msec(5)};
      }
    });
    simu.run_for(sim::msec(200));
    return to_prometheus(reg.snapshot());
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(Integration, VerbsFastPathCountersExportDeterministically) {
  if constexpr (!kEnabled) GTEST_SKIP() << "telemetry compiled out";
  // A scatter plane on the verbs fast path (shared contexts, selective
  // signaling, CQ moderation, bounded NIC cache) must surface the new
  // counters — NIC context-cache hit/miss/eviction, unsignaled posts,
  // coalesced polls — in snapshots, the Prometheus export, and the
  // dashboard, identically on identical runs.
  auto run_once = [] {
    struct Out {
      std::string prom;
      std::string dash;
      double qpc_hits, qpc_misses, unsignaled, coalesced, retired;
    };
    sim::Simulation simu;
    Registry reg;
    reg.install(simu);
    net::FabricConfig fc;
    fc.nic_ctx_cache_entries = 4;
    net::Fabric fabric(simu, fc);
    os::Node fe(simu, {.name = "fe"});
    fabric.attach(fe);
    net::VerbsTuning vt;
    vt.signal_every = 4;
    vt.shared_contexts = 2;
    vt.cq_mod_count = 4;
    const auto pool = net::make_context_pool(fabric.nic(fe.id), vt);
    std::vector<std::unique_ptr<os::Node>> backends;
    std::vector<std::unique_ptr<monitor::MonitorChannel>> channels;
    monitor::MonitorConfig mcfg;
    mcfg.scheme = monitor::Scheme::RdmaSync;
    monitor::ScatterFetcher scatter;
    for (int b = 0; b < 8; ++b) {
      backends.push_back(std::make_unique<os::Node>(
          simu, os::NodeConfig{.name = "be" + std::to_string(b)}));
      fabric.attach(*backends.back());
      channels.push_back(std::make_unique<monitor::MonitorChannel>(
          fabric, fe, *backends.back(), mcfg,
          pool[static_cast<std::size_t>(b) % pool.size()]));
      scatter.add(channels.back()->frontend());
    }
    scatter.cq().bind_moderation(simu, vt.cq_mod_count, net::kCqModPeriod);
    fe.spawn("poller", [&](os::SimThread& self) -> os::Program {
      std::vector<monitor::MonitorSample> samples;
      for (int r = 0; r < 5; ++r) {
        co_await scatter.round_all(self, samples);
        co_await os::SleepFor{sim::msec(10)};
      }
    });
    simu.run_for(sim::msec(100));

    const Snapshot snap = reg.snapshot();
    auto value = [&snap](const char* name, const char* labels) {
      const SnapshotEntry* e = snap.find(name, labels);
      EXPECT_NE(e, nullptr) << name;
      return e != nullptr ? e->value : -1.0;
    };
    Out out;
    out.qpc_hits = value("net.nic.qpc_hits", "node=fe");
    out.qpc_misses = value("net.nic.qpc_misses", "node=fe");
    out.unsignaled = value("net.verbs.unsignaled_posted", "node=fe");
    out.coalesced = value("scatter.cq.coalesced_polls", "frontend=fe");
    out.retired = value("scatter.cq.unsignaled_retired", "frontend=fe");
    out.prom = to_prometheus(snap);
    std::ostringstream os;
    print_dashboard(os, snap);
    out.dash = os.str();
    return out;
  };
  const auto once = run_once();
  // The fast path actually engaged: the 2-context pool stayed resident in
  // the 4-entry cache (misses only cold, then hits), most WRs went
  // unsignaled and retired via closers, and wakeups were coalesced.
  EXPECT_EQ(once.qpc_misses, 2.0);
  EXPECT_GT(once.qpc_hits, once.qpc_misses);
  EXPECT_GT(once.unsignaled, 0.0);
  EXPECT_GT(once.retired, 0.0);
  EXPECT_GT(once.coalesced, 0.0);
  // Prometheus naming mangles dots to underscores under the rdmamon_ ns.
  EXPECT_NE(once.prom.find("rdmamon_net_nic_qpc_hits"), std::string::npos);
  EXPECT_NE(once.prom.find("rdmamon_net_nic_qpc_misses"), std::string::npos);
  EXPECT_NE(once.prom.find("rdmamon_net_nic_qpc_evictions"),
            std::string::npos);
  EXPECT_NE(once.prom.find("rdmamon_net_verbs_unsignaled_posted"),
            std::string::npos);
  EXPECT_NE(once.prom.find("rdmamon_scatter_cq_coalesced_polls"),
            std::string::npos);
  EXPECT_NE(once.dash.find("net.nic.qpc_misses"), std::string::npos);
  EXPECT_NE(once.dash.find("scatter.cq.coalesced_polls"), std::string::npos);
  // Determinism: byte-identical exports on a second run.
  const auto twice = run_once();
  EXPECT_EQ(once.prom, twice.prom);
  EXPECT_EQ(once.dash, twice.dash);
}

// --- meta-monitoring: reading the monitor's own telemetry via RDMA ----------

TEST(Meta, SnapshotImageRoundTripsAndCountsWhatDoesNotFit) {
  // The self-publisher's region holds a fixed-capacity image: entries
  // past kMaxEntries, or whose text would overflow the arena, are left
  // out and counted; everything kept decodes back unchanged.
  Snapshot snap;
  snap.at = sim::TimePoint{42};
  SnapshotEntry big;
  big.name = std::string(SnapshotImage::kTextBytes + 1, 'x');  // never fits
  snap.entries.push_back(big);
  for (std::size_t i = 0; i < SnapshotImage::kMaxEntries + 10; ++i) {
    SnapshotEntry e;
    e.name = "m" + std::to_string(i);
    e.labels = "node=n" + std::to_string(i);
    e.kind = SnapshotEntry::Kind::Histogram;
    e.value = static_cast<double>(i);
    e.hist.p99 = static_cast<double>(2 * i);
    snap.entries.push_back(e);
  }
  const SnapshotImage image(snap);
  EXPECT_EQ(image.count, SnapshotImage::kMaxEntries);
  EXPECT_EQ(image.dropped, 11u);
  const Snapshot back = image.snapshot();
  EXPECT_EQ(back.at, snap.at);
  ASSERT_EQ(back.entries.size(), SnapshotImage::kMaxEntries);
  for (std::size_t i = 0; i < back.entries.size(); ++i) {
    const SnapshotEntry& want = snap.entries[i + 1];
    EXPECT_EQ(back.entries[i].name, want.name);
    EXPECT_EQ(back.entries[i].labels, want.labels);
    EXPECT_EQ(back.entries[i].kind, want.kind);
    EXPECT_EQ(back.entries[i].value, want.value);
    EXPECT_EQ(back.entries[i].hist.p99, want.hist.p99);
  }
}

TEST(Meta, SelfMonitorServesSnapshotThroughOneSidedRead) {
  sim::Simulation simu;
  Registry reg;
  reg.install(simu);
  net::Fabric fabric(simu, {});
  os::Node fe(simu, {.name = "frontend"}), reader(simu, {.name = "reader"});
  fabric.attach(fe);
  fabric.attach(reader);

  reg.counter("monitor.fetch.retries").inc(5);  // something to observe
  // The front end serves its registry through its own image, rebuilt at
  // each READ's DMA instant.
  SnapshotImage image;
  const net::MrKey key = fabric.nic(fe.id).register_mr(
      net::bytes_of(image), [&](net::Verb, std::span<std::byte>&) {
        image = SnapshotImage(reg.snapshot());
      });

  bool got = false;
  Snapshot remote;
  std::uint32_t dropped = 0;
  reader.spawn("meta-reader", [&](os::SimThread& self) -> os::Program {
    co_await os::SleepFor{sim::msec(35)};
    net::CompletionQueue cq;
    net::QueuePair qp{fabric.nic(reader.id), fe.id, cq};
    net::Completion c;
    co_await net::rdma_sync(self, qp,
                            {.rkey = key, .len = sizeof(SnapshotImage)}, c);
    if (c.status == net::WcStatus::Success) {
      const SnapshotImage read = c.data.as<SnapshotImage>();
      remote = read.snapshot();
      dropped = read.dropped;
      got = true;
    }
  });
  simu.run_for(sim::msec(100));

  ASSERT_TRUE(got);
  EXPECT_EQ(dropped, 0u);
  const SnapshotEntry* e = remote.find("monitor.fetch.retries");
  ASSERT_NE(e, nullptr);
  EXPECT_DOUBLE_EQ(e->value, 5.0);
  // Taken at the READ's DMA instant, after the reader woke.
  EXPECT_GE(remote.at, sim::TimePoint{} + sim::msec(35));
}

}  // namespace
}  // namespace rdmamon::telemetry
