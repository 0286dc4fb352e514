// A Ganglia-like distributed monitoring substrate (Section 5.2.2): gmond
// daemons on every node keep a metric store and gossip metric updates to
// their peers; gmetric injects arbitrary user metrics. The paper plugs its
// fine-grained monitoring schemes into gmetric — the scheme fetches a back
// end's load at a fine threshold and publishes it cluster-wide.
#pragma once

#include <cstddef>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "monitor/monitor.hpp"
#include "net/fabric.hpp"
#include "net/socket.hpp"
#include "os/node.hpp"

namespace rdmamon::ganglia {

struct GangliaConfig {
  /// gmond's own coarse collection period (CPU/mem/... of its host).
  sim::Duration collect_period = sim::seconds(5);
};

struct MetricValue {
  double value = 0.0;
  sim::TimePoint updated{};
};

/// Metric update on the wire: a socket payload image, so the host and
/// metric names are fixed-capacity, NUL-terminated arrays.
struct MetricPacket {
  static constexpr std::size_t kHostCapacity = 32;  ///< bytes, NUL included
  static constexpr std::size_t kNameCapacity = 40;  ///< bytes, NUL included

  char host[kHostCapacity]{};
  char name[kNameCapacity]{};
  double value = 0.0;

  /// The packet for (host, name, value). Throws std::length_error when a
  /// name does not fit; it is never truncated.
  static MetricPacket make(std::string_view host, std::string_view name,
                           double value);
};
static_assert(std::is_trivially_copyable_v<MetricPacket> &&
              sizeof(MetricPacket) <= net::Payload::kCapacity);

/// One gmond daemon: local metric store + gossip to peers. The collection
/// thread reads the host's /proc at collect_period and publishes the
/// default metrics (cpu, mem, net, procs).
class GmondDaemon {
 public:
  GmondDaemon(net::Fabric& fabric, os::Node& node, GangliaConfig cfg);

  GmondDaemon(const GmondDaemon&) = delete;
  GmondDaemon& operator=(const GmondDaemon&) = delete;

  /// Connects this daemon with a peer (bidirectional gossip).
  void peer_with(GmondDaemon& other);

  /// gmetric entry point: stores locally and enqueues gossip to every
  /// peer (the publishing thread pays the send costs). Throws
  /// std::length_error, storing nothing, when `name` does not fit a
  /// MetricPacket.
  void publish(const std::string& name, double value);

  /// Looks up a metric by (host, name); nullptr if unknown.
  const MetricValue* lookup(const std::string& host,
                            const std::string& name) const;

  std::size_t metric_count() const { return store_.size(); }
  os::Node& node() { return *node_; }
  const std::string& host_name() const { return node_->config().name; }

 private:
  os::Program collect_body(os::SimThread& self);
  os::Program gossip_body(os::SimThread& self);
  os::Program peer_rx_body(os::SimThread& self, net::Socket* sock);
  void store(const std::string& host, const std::string& name, double value);

  net::Fabric* fabric_;
  os::Node* node_;
  GangliaConfig cfg_;
  std::map<std::pair<std::string, std::string>, MetricValue> store_;
  std::vector<net::Socket*> peers_;
  std::deque<MetricPacket> outbox_;
  os::WaitQueue outbox_wq_;
};

/// Builds a full-mesh gmond deployment over the given nodes.
class GangliaCluster {
 public:
  GangliaCluster(net::Fabric& fabric, std::vector<os::Node*> nodes,
                 GangliaConfig cfg = {});

  GmondDaemon& daemon(int idx) { return *daemons_[static_cast<std::size_t>(idx)]; }
  int size() const { return static_cast<int>(daemons_.size()); }

 private:
  std::vector<std::unique_ptr<GmondDaemon>> daemons_;
};

/// The paper's gmetric integration: a front-end agent fetches one back
/// end's load through a monitoring scheme every `threshold`, and publishes
/// it into Ganglia via the local gmond (at a capped publish rate so the
/// gossip fabric is not the bottleneck; the *fetch* path carries the
/// scheme's full fine-grained footprint).
class GmetricAgent {
 public:
  GmetricAgent(net::Fabric& fabric, GmondDaemon& local_gmond,
               os::Node& frontend, os::Node& backend,
               monitor::MonitorConfig mcfg, sim::Duration threshold,
               sim::Duration publish_period = sim::seconds(1));

  std::uint64_t fetches() const { return fetches_; }
  const std::string& metric_name() const { return metric_name_; }

 private:
  os::Program agent_body(os::SimThread& self);

  GmondDaemon* gmond_;
  std::unique_ptr<monitor::MonitorChannel> channel_;
  sim::Duration threshold_;
  sim::Duration publish_period_;
  std::string metric_name_;
  std::uint64_t fetches_ = 0;
};

}  // namespace rdmamon::ganglia
