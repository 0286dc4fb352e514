// The paper's testbed in one object: a front-end dispatcher node, eight
// dual-CPU back-end web servers, client nodes, the chosen monitoring
// scheme wiring, and the WebSphere-style load balancer. Every
// application-level experiment (Table 1, Figs 7-9) builds one of these.
#pragma once

#include <memory>
#include <vector>

#include "cluster/scaleout.hpp"
#include "lb/admission.hpp"
#include "lb/balancer.hpp"
#include "lb/dispatcher.hpp"
#include "monitor/scheme.hpp"
#include "net/fabric.hpp"
#include "os/node.hpp"
#include "web/client.hpp"
#include "web/server.hpp"
#include "workload/rubis.hpp"
#include "workload/zipf.hpp"

namespace rdmamon::web {

struct ClusterConfig {
  int backends = 8;
  /// Front-end dispatcher/balancer count. 1 (default) builds the
  /// paper's single-front-end testbed exactly as before; > 1 builds the
  /// scale-out plane: M front ends partition polling by consistent
  /// hash, gossip shard views over one-sided READs, and each run their
  /// own dispatcher (client groups are assigned round-robin).
  int frontends = 1;
  /// Scale-out tuning (gossip cadence, staleness bound, verbs fast path,
  /// refresh strategy). Ignored when frontends == 1.
  cluster::ScaleOutConfig scaleout;
  monitor::Scheme scheme = monitor::Scheme::RdmaSync;
  /// T: async schemes' back-end update period.
  sim::Duration monitor_period = sim::msec(50);
  /// The balancer poller's pause between the end of one poll round and
  /// the start of the next, rounded up to the scheduler tick: a round
  /// recurs every pause plus its fetch time plus the rounding, not every
  /// pause (lb::LoadBalancer).
  sim::Duration lb_granularity = sim::msec(50);
  ServerConfig server;
  net::FabricConfig fabric;
  /// When set (>= 0), enables admission control at this load threshold.
  double admission_threshold = -1.0;
  std::uint64_t seed = 42;

  /// Monitoring failure handling (per fetch attempt; see MonitorConfig).
  sim::Duration fetch_timeout = sim::msec(200);
  int fetch_retries = 2;
  sim::Duration retry_backoff = sim::msec(2);
  /// Tenant identity of the monitoring plane (see MonitorConfig::tenant):
  /// with fabric QoS enabled, give the plane a weighted spec under this
  /// id so its READs are protected from noisy neighbors. 0 = untagged.
  net::TenantId monitor_tenant = 0;
};

class ClusterTestbed {
 public:
  ClusterTestbed(sim::Simulation& simu, ClusterConfig cfg);
  ~ClusterTestbed();

  ClusterTestbed(const ClusterTestbed&) = delete;
  ClusterTestbed& operator=(const ClusterTestbed&) = delete;

  /// Adds a group of closed-loop clients running `gen` on `nodes` fresh
  /// client nodes. Returns the group (for its ResponseStats).
  ClientGroup& add_clients(int nodes, RequestGenerator gen,
                           ClientGroupConfig ccfg = {});

  sim::Simulation& simu() { return simu_; }
  net::Fabric& fabric() { return *fabric_; }
  os::Node& frontend(int i = 0) {
    return *frontends_[static_cast<std::size_t>(i)];
  }
  int frontend_count() const { return static_cast<int>(frontends_.size()); }
  os::Node& backend(int i) { return *backends_[static_cast<std::size_t>(i)]; }
  int backend_count() const { return static_cast<int>(backends_.size()); }
  std::vector<os::Node*> backend_ptrs() {
    std::vector<os::Node*> out;
    for (auto& b : backends_) out.push_back(b.get());
    return out;
  }
  WebServer& server(int i) { return *servers_[static_cast<std::size_t>(i)]; }
  lb::LoadBalancer& balancer(int i = 0) {
    return plane_ ? plane_->frontend(i).balancer() : *lb_;
  }
  lb::Dispatcher& dispatcher(int i = 0) {
    return *dispatchers_[static_cast<std::size_t>(i)];
  }
  /// The scale-out plane; nullptr in the single-front-end testbed.
  cluster::ScaleOutPlane* plane() { return plane_.get(); }
  lb::AdmissionController* admission() { return admission_.get(); }
  const ClusterConfig& config() const { return cfg_; }

 private:
  /// Creates back end `i`: its node, fabric attachment and web server.
  os::Node& add_backend_node(int i);

  sim::Simulation& simu_;
  ClusterConfig cfg_;
  sim::Rng seed_rng_;
  std::unique_ptr<net::Fabric> fabric_;
  std::vector<std::unique_ptr<os::Node>> frontends_;
  std::vector<std::unique_ptr<os::Node>> backends_;
  std::vector<std::unique_ptr<os::Node>> clients_;
  std::vector<std::unique_ptr<WebServer>> servers_;
  std::unique_ptr<lb::LoadBalancer> lb_;  ///< single-front-end mode only
  std::unique_ptr<cluster::ScaleOutPlane> plane_;  ///< frontends > 1 only
  std::vector<std::unique_ptr<lb::Dispatcher>> dispatchers_;
  std::unique_ptr<lb::AdmissionController> admission_;
  std::vector<std::unique_ptr<ClientGroup>> groups_;
};

/// Generator for the RUBiS browsing mix (all eight query classes).
RequestGenerator make_rubis_generator();

/// Generator for Zipf static content (shares the trace across clients).
RequestGenerator make_zipf_generator(
    std::shared_ptr<const workload::ZipfTrace> trace);

}  // namespace rdmamon::web
