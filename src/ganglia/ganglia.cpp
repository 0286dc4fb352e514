#include "ganglia/ganglia.hpp"

#include <stdexcept>

namespace rdmamon::ganglia {

namespace {
/// Size of one metric update packet on the wire.
constexpr std::size_t kMetricPacketBytes = 128;

/// Copies `src` into the NUL-terminated field `dst`, or throws.
template <std::size_t N>
void put_name(char (&dst)[N], std::string_view src, const char* what) {
  if (src.size() >= N) {
    throw std::length_error("ganglia " + std::string(what) + " '" +
                            std::string(src) + "' exceeds " +
                            std::to_string(N - 1) + " characters");
  }
  src.copy(dst, src.size());
}
}  // namespace

MetricPacket MetricPacket::make(std::string_view host, std::string_view name,
                                double value) {
  MetricPacket pkt;
  put_name(pkt.host, host, "host name");
  put_name(pkt.name, name, "metric name");
  pkt.value = value;
  return pkt;
}

GmondDaemon::GmondDaemon(net::Fabric& fabric, os::Node& node,
                         GangliaConfig cfg)
    : fabric_(&fabric), node_(&node), cfg_(cfg) {
  // Every packet names this host: reject one that cannot, before any
  // thread runs.
  (void)MetricPacket::make(host_name(), {}, 0.0);
  node_->spawn("gmond-collect",
               [this](os::SimThread& t) { return collect_body(t); });
  node_->spawn("gmond-gossip",
               [this](os::SimThread& t) { return gossip_body(t); });
}

void GmondDaemon::peer_with(GmondDaemon& other) {
  net::Connection& conn = fabric_->connect(*node_, *other.node_);
  peers_.push_back(&conn.end_a());
  other.peers_.push_back(&conn.end_b());
  node_->spawn("gmond-rx",
               [this, sock = &conn.end_a()](os::SimThread& t) {
                 return peer_rx_body(t, sock);
               });
  other.node_->spawn("gmond-rx",
                     [o = &other, sock = &conn.end_b()](os::SimThread& t) {
                       return o->peer_rx_body(t, sock);
                     });
}

void GmondDaemon::publish(const std::string& name, double value) {
  const MetricPacket pkt = MetricPacket::make(host_name(), name, value);
  store(host_name(), name, value);
  for (std::size_t i = 0; i < peers_.size(); ++i) outbox_.push_back(pkt);
  // Tag each queued packet with its destination by position: simpler to
  // keep (packet, peer) pairs aligned since we push one per peer in order.
  outbox_wq_.notify_one();
}

void GmondDaemon::store(const std::string& host, const std::string& name,
                        double value) {
  store_[{host, name}] = MetricValue{value, node_->simu().now()};
}

const MetricValue* GmondDaemon::lookup(const std::string& host,
                                       const std::string& name) const {
  auto it = store_.find({host, name});
  return it == store_.end() ? nullptr : &it->second;
}

os::Program GmondDaemon::collect_body(os::SimThread& self) {
  for (;;) {
    co_await os::SleepFor{cfg_.collect_period};
    co_await os::ComputeKernel{node_->procfs().read_cost()};
    const os::LoadSnapshot snap = node_->procfs().snapshot();
    publish("cpu_load", snap.cpu_load);
    publish("mem_load", snap.mem_load);
    publish("net_rate", snap.net_rate);
    publish("proc_run", snap.nr_running);
  }
  (void)self;
}

os::Program GmondDaemon::gossip_body(os::SimThread& self) {
  // Drains the outbox: packets were enqueued one per peer, in peer order.
  std::size_t next_peer = 0;
  for (;;) {
    while (outbox_.empty()) co_await os::WaitOn{&outbox_wq_};
    const MetricPacket pkt = outbox_.front();
    outbox_.pop_front();
    if (!peers_.empty()) {
      net::Socket* peer = peers_[next_peer % peers_.size()];
      ++next_peer;
      co_await peer->send(self, kMetricPacketBytes, pkt);
    }
  }
}

os::Program GmondDaemon::peer_rx_body(os::SimThread& self,
                                      net::Socket* sock) {
  for (;;) {
    net::Message m;
    co_await sock->recv(self, m);
    const MetricPacket pkt = m.payload.as<MetricPacket>();
    store(pkt.host, pkt.name, pkt.value);
  }
}

GangliaCluster::GangliaCluster(net::Fabric& fabric,
                               std::vector<os::Node*> nodes,
                               GangliaConfig cfg) {
  for (os::Node* n : nodes) {
    daemons_.push_back(std::make_unique<GmondDaemon>(fabric, *n, cfg));
  }
  for (std::size_t i = 0; i < daemons_.size(); ++i) {
    for (std::size_t j = i + 1; j < daemons_.size(); ++j) {
      daemons_[i]->peer_with(*daemons_[j]);
    }
  }
}

GmetricAgent::GmetricAgent(net::Fabric& fabric, GmondDaemon& local_gmond,
                           os::Node& frontend, os::Node& backend,
                           monitor::MonitorConfig mcfg,
                           sim::Duration threshold,
                           sim::Duration publish_period)
    : gmond_(&local_gmond), threshold_(threshold),
      publish_period_(publish_period),
      metric_name_("fg_load_" + backend.config().name) {
  // A name that cannot be published fails here, not at the first publish.
  (void)MetricPacket::make(local_gmond.host_name(), metric_name_, 0.0);
  channel_ = std::make_unique<monitor::MonitorChannel>(fabric, frontend,
                                                       backend, mcfg);
  scatter_.add(channel_->frontend());
  frontend.spawn("gmetric-agent",
                 [this](os::SimThread& t) { return agent_body(t); });
}

os::Program GmetricAgent::agent_body(os::SimThread& self) {
  sim::Simulation& simu = self.node().simu();
  sim::TimePoint last_publish{};
  for (;;) {
    co_await scatter_.round_all(self, round_buf_);
    const monitor::MonitorSample& s = round_buf_[0];
    ++fetches_;
    if (s.ok && simu.now() - last_publish >= publish_period_) {
      last_publish = simu.now();
      gmond_->publish(metric_name_, s.info.cpu_load);
    }
    co_await os::SleepFor{threshold_};
  }
}

}  // namespace rdmamon::ganglia
