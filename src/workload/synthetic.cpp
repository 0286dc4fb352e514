#include "workload/synthetic.hpp"

#include <cassert>

namespace rdmamon::workload {

namespace {

/// Gap between two stages of a disturbance's ramp.
constexpr sim::Duration kStageInterval = sim::msec(100);

os::Program bg_worker_body(os::SimThread& self, net::Socket* sock,
                           BackgroundLoadConfig cfg) {
  for (;;) {
    co_await os::Compute{cfg.compute_slice};
    // Fire a burst, then drain the echoes; the returning burst exercises
    // the node's receive path (IRQ, softirq, wakeups). With burst == 0
    // the thread is a pure compute hog.
    for (int i = 0; i < cfg.burst; ++i) {
      co_await sock->send(self, cfg.message_bytes);
    }
    for (int i = 0; i < cfg.burst; ++i) {
      net::Message m;
      co_await sock->recv(self, m);
    }
    co_await os::SleepFor{cfg.think};
  }
}

os::Program bg_echo_body(os::SimThread& self, net::Socket* sock,
                         std::size_t bytes) {
  for (;;) {
    net::Message m;
    co_await sock->recv(self, m);
    co_await sock->send(self, bytes);
  }
}

os::Program fp_app_body(os::SimThread& self, sim::Duration batch,
                        sim::OnlineStats* delays) {
  sim::Simulation& simu = self.node().simu();
  for (;;) {
    const sim::TimePoint t0 = simu.now();
    co_await os::Compute{batch};
    const sim::Duration took = simu.now() - t0;
    delays->add(static_cast<double>((took - batch).ns) /
                static_cast<double>(batch.ns));
  }
}

}  // namespace

BackgroundLoad::BackgroundLoad(net::Fabric& fabric, BackgroundLoadConfig cfg)
    : fabric_(&fabric), cfg_(cfg) {}

BackgroundLoad::BackgroundLoad(net::Fabric& fabric, os::Node& node,
                               os::Node& peer, BackgroundLoadConfig cfg)
    : BackgroundLoad(fabric, cfg) {
  start(node, peer);
}

void BackgroundLoad::start(os::Node& node, os::Node& peer) {
  assert(workers_.empty() && "start() needs a stopped load");
  node_ = &node;
  peer_ = &peer;
  // The thread bodies copy the config into their frames at spawn, so a
  // closure holds a pointer or two and fits std::function's inline
  // buffer.
  for (int i = 0; i < cfg_.threads; ++i) {
    if (cfg_.burst <= 0) {
      // Pure compute hog: no connection, no echo thread.
      workers_.push_back(node.spawn(
          "bg" + std::to_string(i), [this](os::SimThread& t) {
            return bg_worker_body(t, nullptr, cfg_);
          }));
      continue;
    }
    net::Connection& conn = fabric_->connect(node, peer);
    conns_.push_back(&conn);
    workers_.push_back(node.spawn(
        "bg" + std::to_string(i),
        [this, sock = &conn.end_a()](os::SimThread& t) {
          return bg_worker_body(t, sock, cfg_);
        }));
    echoes_.push_back(peer.spawn(
        "bg-echo" + std::to_string(i),
        [sock = &conn.end_b(), bytes = cfg_.message_bytes](os::SimThread& t) {
          return bg_echo_body(t, sock, bytes);
        }));
  }
}

void BackgroundLoad::stop() {
  for (auto* t : workers_) node_->sched().kill(t);
  for (auto* t : echoes_) peer_->sched().kill(t);
  for (auto* t : workers_) node_->sched().reap(t);
  for (auto* t : echoes_) peer_->sched().reap(t);
  for (auto* c : conns_) fabric_->close(*c);
  workers_.clear();
  echoes_.clear();
  conns_.clear();
}

DisturbanceGenerator::DisturbanceGenerator(net::Fabric& fabric,
                                           std::vector<os::Node*> targets,
                                           os::Node& echo_peer,
                                           DisturbanceConfig cfg,
                                           sim::Rng rng)
    : fabric_(&fabric), targets_(std::move(targets)), echo_peer_(&echo_peer),
      cfg_(cfg), rng_(rng) {
  for (int i = 0; i < kDisturbanceStages; ++i) {
    stages_.push_back(
        std::make_unique<BackgroundLoad>(fabric, kDisturbanceStage));
  }
  schedule_next();
}

DisturbanceGenerator::~DisturbanceGenerator() { stop_all(); }

void DisturbanceGenerator::stop_all() {
  for (auto& stage : stages_) stage->stop();
}

void DisturbanceGenerator::schedule_next() {
  const auto gap = sim::nsec(static_cast<std::int64_t>(rng_.exponential(
      static_cast<double>(cfg_.mean_interval.ns))));
  fabric_->simu().after(gap, [this] { fire(); });
}

void DisturbanceGenerator::fire() {
  stop_all();
  const std::uint64_t gen = ++generation_;
  const auto idx = static_cast<std::size_t>(rng_.uniform_int(
      0, static_cast<std::int64_t>(targets_.size()) - 1));
  os::Node* victim = targets_[idx];
  ++events_;
  // The co-hosted job ramps up in stages of compute+comm threads.
  for (int stage = 0; stage < kDisturbanceStages; ++stage) {
    fabric_->simu().after(kStageInterval * stage, [this, gen, victim, stage] {
      if (generation_ != gen) return;
      stages_[static_cast<std::size_t>(stage)]->start(*victim, *echo_peer_);
    });
  }
  fabric_->simu().after(cfg_.duration, [this, gen] {
    if (generation_ == gen) stop_all();
  });
  schedule_next();
}

FloatingPointApp::FloatingPointApp(os::Node& node, sim::Duration batch,
                                   int threads)
    : node_(&node), batch_(batch) {
  const int n = threads > 0 ? threads : node.config().cpus;
  for (int i = 0; i < n; ++i) {
    threads_.push_back(
        node.spawn("fp-app" + std::to_string(i), [this](os::SimThread& t) {
          return fp_app_body(t, batch_, &delays_);
        }));
  }
}

double FloatingPointApp::normalized_delay() const { return delays_.mean(); }

void FloatingPointApp::stop() {
  for (auto* t : threads_) node_->sched().kill(t);
  threads_.clear();
}

}  // namespace rdmamon::workload
