#include "workloads.hpp"

#include <chrono>

#include "probe.hpp"
#include "workload/zipf.hpp"

namespace perfbench {
namespace {

/// Dispatch-log capacity while the benchmark drains it every slice; a
/// full log at drain time means records were lost (a check fails).
constexpr std::size_t kLogCap = 1u << 16;

double steady_ns() {
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

bool Workload::known(const std::string& name) {
  return name == "rubis_zipf" || name == "pull_fanout" ||
         name == "push_scaleout";
}

RunShape Workload::shape(const std::string& name) {
  if (name == "rubis_zipf") return {sim::seconds(2), sim::seconds(8)};
  if (name == "pull_fanout") return {sim::msec(200), sim::msec(1500)};
  return {sim::seconds(1), sim::seconds(4)};
}

std::unique_ptr<Workload> Workload::make(const std::string& name,
                                         std::uint64_t seed, bool registry,
                                         bool timed) {
  std::unique_ptr<Workload> w(new Workload(seed, timed));
  if (name == "rubis_zipf") {
    w->build_rubis_zipf();
  } else if (name == "pull_fanout") {
    if (registry) w->install_registry(false);
    w->build_pull_fanout();
  } else {
    if (registry) w->install_registry(true);
    w->build_push_scaleout();
  }
  w->observe();
  return w;
}

Workload::~Workload() = default;

void Workload::install_registry(bool slo) {
  // Installed before wiring: components resolve instruments at
  // construction. The flight recorder is on by default.
  reg_ = std::make_unique<telemetry::Registry>();
  reg_->install(simu_);
  if (!slo) return;
  slo_ = std::make_unique<telemetry::SloEngine>();
  slo_->install(*reg_);
  telemetry::SloSpec spec;
  spec.name = "lb.view_age";
  spec.metric = "worst backend view age (ns)";
  spec.target = 250e6;
  slo_->add(spec);
  slo_->arm_timer(simu_, sim::msec(10));
}

web::RequestGenerator Workload::counted(web::RequestGenerator inner) {
  return [this, inner = std::move(inner)](sim::Rng& rng) {
    ++issued_;
    if (!timed_) return inner(rng);
    const double t0 = steady_ns();
    web::Request r = inner(rng);
    spans_.gen_ns += steady_ns() - t0;
    ++spans_.gen_calls;
    return r;
  };
}

// rubis_zipf: the co-hosted RUBiS + Zipf(0.5) mix of Figs 7 and 9 on the
// paper's 8 back ends, e-RDMA-Sync at 64 ms, with transient co-hosted
// disturbances. No registry.
void Workload::build_rubis_zipf() {
  web::ClusterConfig cfg;
  cfg.backends = 8;
  cfg.scheme = monitor::Scheme::ERdmaSync;
  cfg.lb_granularity = sim::msec(64);
  cfg.server.workers = 16;
  cfg.seed = seed_;
  bed_ = std::make_unique<web::ClusterTestbed>(simu_, cfg);

  web::ClientGroupConfig ccfg;
  ccfg.threads_per_node = 16;
  ccfg.think = sim::msec(3);
  groups_.push_back(
      &bed_->add_clients(4, counted(web::make_rubis_generator()), ccfg));
  workload::ZipfTraceConfig zcfg;
  zcfg.alpha = 0.5;
  auto trace = std::make_shared<workload::ZipfTrace>(zcfg, seed_ + 1);
  groups_.push_back(
      &bed_->add_clients(4, counted(web::make_zipf_generator(trace)), ccfg));
  client_threads_ = 8 * ccfg.threads_per_node;

  os::NodeConfig icfg;
  icfg.name = "storage";
  storage_ = std::make_unique<os::Node>(simu_, icfg);
  bed_->fabric().attach(*storage_);
  disturb_ = std::make_unique<workload::DisturbanceGenerator>(
      bed_->fabric(), bed_->backend_ptrs(), *storage_,
      workload::DisturbanceConfig{}, sim::Rng(seed_ ^ 0x5eed));
  nodes_.push_back(storage_.get());
}

os::Program Workload::toggler_body(os::SimThread& self, sim::Duration offset) {
  co_await os::SleepFor{offset};
  for (;;) {
    co_await os::Compute{sim::msec(40)};
    co_await os::SleepFor{sim::msec(40)};
  }
  (void)self;
}

os::Program Workload::dispatcher_body(os::SimThread& self) {
  // Open loop: independent users arrive as a Poisson stream with a mean
  // gap of 100 us, each dispatched by one pick(). The schedule is
  // absolute, so a slow pick delays no later arrival.
  sim::Rng arrivals(seed_ ^ 0xd15ea5e);
  for (sim::TimePoint next = simu_.now();;) {
    next += sim::nsec(static_cast<std::int64_t>(
        arrivals.exponential(static_cast<double>(sim::usec(100).ns))));
    co_await os::SleepUntil{next};
    if (!timed_) {
      lb_->pick();
      continue;
    }
    const double t0 = steady_ns();
    lb_->pick();
    spans_.pick_ns += steady_ns() - t0;
    ++spans_.pick_calls;
  }
  (void)self;
}

// pull_fanout: one front end polls 512 back ends by RDMA-Sync scatter
// every 1 ms with the large-N verbs tuning (signal every 8th WR, 16
// shared contexts, CQ moderation 8); a benchmark-owned dispatcher thread
// picks for Poisson arrivals every 100 us on average. Back ends
// alternate 40 ms compute / 40 ms sleep from a seeded phase.
void Workload::build_pull_fanout() {
  constexpr int kBackends = 512;
  fabric_ = std::make_unique<net::Fabric>(simu_, net::FabricConfig{});
  os::NodeConfig fcfg;
  fcfg.name = "frontend";
  // Sleeps round up to the scheduler tick: a 1 us tick (high-resolution
  // timers) lets the dispatcher wake at each arrival instant.
  fcfg.hz = 1'000'000;
  frontend_ = std::make_unique<os::Node>(simu_, fcfg);
  fabric_->attach(*frontend_);

  net::VerbsTuning vt;
  vt.signal_every = 8;
  vt.shared_contexts = 16;
  vt.cq_mod_count = 8;
  const std::vector<std::shared_ptr<net::QpContext>> pool =
      net::make_context_pool(fabric_->nic(frontend_->id), vt);

  lb_ = std::make_unique<lb::LoadBalancer>(
      lb::WeightConfig::for_scheme(monitor::Scheme::RdmaSync));
  monitor::MonitorConfig mcfg;
  mcfg.scheme = monitor::Scheme::RdmaSync;
  sim::Rng rng(seed_);
  for (int i = 0; i < kBackends; ++i) {
    os::NodeConfig bcfg;
    bcfg.name = "backend" + std::to_string(i);
    backends_.push_back(std::make_unique<os::Node>(simu_, bcfg));
    os::Node& be = *backends_.back();
    fabric_->attach(be);
    lb_->add_backend(std::make_unique<monitor::MonitorChannel>(
        *fabric_, *frontend_, be, mcfg,
        pool[static_cast<std::size_t>(i) % pool.size()]));
    const sim::Duration offset{rng.uniform_int(0, sim::msec(80).ns)};
    be.spawn("toggler", [this, offset](os::SimThread& t) {
      return toggler_body(t, offset);
    });
  }
  lb_->set_verbs_tuning(vt);
  lb_->start(*frontend_, sim::msec(1));
  frontend_->spawn("bench-dispatch",
                   [this](os::SimThread& t) { return dispatcher_body(t); });
}

// push_scaleout: 4 front ends over 64 back ends, Adaptive push at 20 ms
// with 25 ms gossip and default verbs; 128 RUBiS clients (5 ms think) in
// 4 groups, one per front end.
void Workload::build_push_scaleout() {
  web::ClusterConfig cfg;
  cfg.backends = 64;
  cfg.frontends = 4;
  cfg.scheme = monitor::Scheme::RdmaSync;
  cfg.lb_granularity = sim::msec(20);
  cfg.scaleout.gossip_period = sim::msec(25);
  cfg.scaleout.push.strategy = monitor::MonitorStrategy::Adaptive;
  cfg.seed = seed_;
  bed_ = std::make_unique<web::ClusterTestbed>(simu_, cfg);

  web::ClientGroupConfig ccfg;
  ccfg.threads_per_node = 16;
  ccfg.think = sim::msec(5);
  for (int g = 0; g < 4; ++g) {
    groups_.push_back(
        &bed_->add_clients(2, counted(web::make_rubis_generator()), ccfg));
  }
  client_threads_ = 4 * 2 * ccfg.threads_per_node;
}

void Workload::observe() {
  BenchScope scope;
  if (bed_) {
    fab_ = &bed_->fabric();
    for (int m = 0; m < bed_->frontend_count(); ++m) {
      nodes_.push_back(&bed_->frontend(m));
      monitor_nodes_.push_back(bed_->frontend(m).id);
      balancers_.push_back(&bed_->balancer(m));
      dispatchers_.push_back(&bed_->dispatcher(m));
      if (bed_->plane() != nullptr) {
        planes_.push_back(&bed_->plane()->frontend(m));
      }
    }
    for (int b = 0; b < bed_->backend_count(); ++b) {
      nodes_.push_back(&bed_->backend(b));
      monitor_nodes_.push_back(bed_->backend(b).id);
      servers_.push_back(&bed_->server(b));
      if (bed_->plane() != nullptr && bed_->plane()->push_enabled()) {
        publishers_.push_back(&bed_->plane()->publisher(b));
      }
    }
    // Client nodes are not reachable through the testbed; their
    // scheduler work is still in the event count.
  } else {
    fab_ = fabric_.get();
    nodes_.push_back(frontend_.get());
    monitor_nodes_.push_back(frontend_->id);
    balancers_.push_back(lb_.get());
    for (auto& be : backends_) {
      nodes_.push_back(be.get());
      monitor_nodes_.push_back(be->id);
    }
  }
  last_retrieved_.resize(balancers_.size());
  for (std::size_t k = 0; k < balancers_.size(); ++k) {
    lb::LoadBalancer* lb = balancers_[k];
    lb->set_dispatch_log_capacity(kLogCap);
    last_retrieved_[k].assign(static_cast<std::size_t>(lb->backends()),
                              sim::TimePoint{});
    // Fetch outcomes of each poll round: a sample retrieved after the
    // previous one seen for that back end came from this round's fetch.
    lb->on_round([this, lb, k](const std::vector<std::size_t>& targets) {
      BenchScope bench;
      fetch_attempts_ += targets.size();
      for (std::size_t i : targets) {
        const monitor::MonitorSample& s = lb->last_sample(static_cast<int>(i));
        sim::TimePoint& last = last_retrieved_[k][i];
        if (!s.ok || s.retrieved_at <= last) continue;
        last = s.retrieved_at;
        ++fetch_ok_;
        if (recording_) {
          fetch_lat_ns_.push_back(static_cast<double>(s.latency().ns));
        }
      }
    });
  }
}

void Workload::advance(sim::TimePoint t, bool record) {
  recording_ = record;
  if (timed_ && record) {
    const double t0 = steady_ns();
    simu_.run_until(t);
    spans_.run_ns += steady_ns() - t0;
    ++spans_.run_slices;
  } else {
    simu_.run_until(t);
  }
  BenchScope scope;
  for (lb::LoadBalancer* lb : balancers_) {
    const std::deque<lb::DispatchRecord>& log = lb->dispatch_log();
    if (log.size() >= kLogCap) log_overflow_ = true;
    if (record) {
      for (const lb::DispatchRecord& r : log) {
        ++picks_;
        if (r.view_age.ns < 0) {
          ++no_view_picks_;
        } else {
          view_age_ns_.push_back(static_cast<double>(r.view_age.ns));
        }
      }
    }
    lb->set_dispatch_log_capacity(0);  // drop what was drained
    lb->set_dispatch_log_capacity(kLogCap);
  }
  if (record) {
    // Every back end stays alive, so a Dead mark is always a false one.
    std::uint64_t dead = 0, pairs = 0;
    for (lb::LoadBalancer* lb : balancers_) {
      for (int b = 0; b < lb->backends(); ++b) {
        ++pairs;
        if (lb->health_of(b) == lb::BackendHealth::Dead) ++dead;
      }
    }
    dead_sum_ += static_cast<double>(dead) / static_cast<double>(pairs);
    ++dead_samples_;
  }
}

void Workload::begin_measure() {
  for (web::ClientGroup* g : groups_) {
    completed_before_ += g->stats().completed();
    refused_before_ += g->stats().rejected();
    g->stats().reset();
  }
}

Counts Workload::counts() const {
  Counts c;
  c.events = simu_.events_executed();
  c.cancelled = simu_.events_cancelled();
  for (os::Node* n : nodes_) c.ctx_switches += n->sched().context_switches();
  for (int id : monitor_nodes_) {
    const net::Nic& nic = fab_->nic(id);
    c.rdma_ops += nic.rdma_ops_posted();
    c.packets += nic.tx_packets();
    c.monitor_wire_bytes += nic.rdma_wire_bytes();
  }
  for (lb::LoadBalancer* lb : balancers_) {
    c.fetch_failures += lb->fetch_failures();
    if (lb->adaptive() != nullptr) {
      c.mode_switches += lb->adaptive()->total_switches();
    }
  }
  c.fetch_attempts = fetch_attempts_;
  c.fetch_ok = fetch_ok_;
  for (monitor::PushPublisher* p : publishers_) {
    c.pushes += p->pushes();
    c.heartbeats += p->heartbeats();
  }
  for (cluster::FrontendPlane* p : planes_) {
    c.gossip_reads += p->gossip_reads_ok() + p->gossip_reads_failed();
    c.stale_marks += p->stale_marks();
  }
  for (web::WebServer* s : servers_) c.web_served += s->completed();
  for (lb::Dispatcher* d : dispatchers_) c.failed_over += d->failed_over();
  c.issued = issued_;
  c.completed = completed_before_;
  c.refused = refused_before_;
  for (web::ClientGroup* g : groups_) {
    c.completed += g->stats().completed();
    c.refused += g->stats().rejected();
  }
  c.picks = picks_;
  return c;
}

sim::Histogram Workload::response_hist() const {
  sim::Histogram h;
  for (web::ClientGroup* g : groups_) h.merge(g->stats().overall_hist());
  return h;
}

std::vector<std::string> Workload::check(const Counts& end) const {
  std::vector<std::string> bad;
  if (log_overflow_) bad.push_back("dispatch log overflowed between drains");
  if (has_clients()) {
    // Every issued request is completed, refused, or still in flight —
    // and at most one per client thread can be in flight.
    const std::uint64_t resolved = end.completed + end.refused;
    if (resolved > end.issued) {
      bad.push_back("more requests resolved than issued");
    } else if (end.issued - resolved >
               static_cast<std::uint64_t>(client_threads_)) {
      bad.push_back("requests lost: " + std::to_string(end.issued - resolved) +
                    " in flight with " + std::to_string(client_threads_) +
                    " client threads");
    }
  } else if (end.fetch_attempts - end.fetch_ok != end.fetch_failures) {
    // Every fetch of a round resolves: ok, or one failure on the ladder.
    bad.push_back("fetch outcomes do not add up: " +
                  std::to_string(end.fetch_attempts) + " attempted, " +
                  std::to_string(end.fetch_ok) + " ok, " +
                  std::to_string(end.fetch_failures) + " failed");
  }
  if (no_view_picks_ > 0) {
    bad.push_back(std::to_string(no_view_picks_) +
                  " dispatches made on no view after warm-up");
  }
  return bad;
}

}  // namespace perfbench
