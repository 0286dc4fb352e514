// Dynamic reconfiguration of a shared data-center — the paper's stated
// future work ("we plan to extend the knowledge gained in this study to
// implement a full-fledged reconfiguration module coupled with accurate
// resource monitoring", Section 7; built the way the authors' companion
// work [9] uses remote memory operations).
//
// A cluster hosts two services; each back end carries a *role* word
// registered as a remote-writable memory region. A reconfiguration
// manager on the front end watches both service pools through a
// monitoring scheme and, when the load gap crosses a threshold, flips an
// idle-ish node's role with a one-sided RDMA WRITE — no back-end daemon,
// no interrupt, exactly like the monitoring path itself.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "monitor/monitor.hpp"
#include "monitor/scatter.hpp"
#include "net/fabric.hpp"
#include "net/nic.hpp"
#include "net/verbs.hpp"
#include "os/node.hpp"

namespace rdmamon::reconfig {

/// Which hosted service a back end currently works for.
enum class Role : int { ServiceA = 0, ServiceB = 1 };

inline const char* to_string(Role r) {
  return r == Role::ServiceA ? "A" : "B";
}

/// Back-end side: the role word, registered remote-writable so the
/// manager can flip it with a one-sided WRITE. Local readers (the
/// dispatcher's routing table refresh, the server app) see it instantly.
class RoleRegion {
 public:
  RoleRegion(net::Fabric& fabric, os::Node& node, Role initial);

  Role role() const { return role_; }
  net::MrKey mr_key() const { return key_; }
  os::Node& node() { return *node_; }

  /// Observer invoked on every remote role change (e.g. to drain queues).
  void on_change(std::function<void(Role)> cb) { on_change_ = std::move(cb); }

 private:
  os::Node* node_;
  Role role_;
  int word_;  ///< the registered role word remote WRITEs land in
  net::MrKey key_;
  std::function<void(Role)> on_change_;
};

struct ReconfigConfig {
  monitor::MonitorConfig monitor{};         ///< scheme used for pool load
  sim::Duration check_period = sim::msec(100);
  /// Minimum time between two reconfigurations (hysteresis).
  sim::Duration cooldown = sim::msec(500);
  /// Keep at least this many nodes in each service.
  int min_nodes_per_service = 1;
};

/// Front-end manager: monitors every back end, computes per-service mean
/// load, and migrates the least-loaded node of the hot service's
/// counterpart... i.e. moves a node from the cool pool to the hot pool.
class ReconfigManager {
 public:
  ReconfigManager(net::Fabric& fabric, os::Node& frontend,
                  ReconfigConfig cfg);

  /// Registers a back end with its role region. Call before start().
  void add_backend(RoleRegion& region);

  /// Spawns the manager thread.
  void start();

  int nodes_in(Role r) const;
  std::uint64_t reconfigurations() const { return reconfigs_; }
  double pool_load(Role r) const;

  /// Failure visibility: monitoring fetches that came back failed, and
  /// how many back ends the manager currently believes dead — those that
  /// failed lb::kDeadAfter fetches in a row, as the balancer's detector
  /// counts: their last-known load stops counting toward pool loads and
  /// they are never picked for a role flip (failover).
  std::uint64_t fetch_failures() const { return fetch_failures_; }
  bool believed_dead(int i) const;
  int dead_nodes() const;

 private:
  os::Program manager_body(os::SimThread& self);

  net::Fabric* fabric_;
  os::Node* frontend_;
  ReconfigConfig cfg_;
  std::vector<RoleRegion*> regions_;
  std::vector<std::unique_ptr<monitor::MonitorChannel>> channels_;
  std::vector<monitor::MonitorSample> samples_;
  std::vector<int> fail_streak_;
  monitor::ScatterFetcher scatter_;  ///< joined at start()
  std::vector<monitor::MonitorSample> round_buf_;
  /// Separate CQ for the one-sided role-flip WRITEs: those use the plain
  /// blocking pop path and must not interleave with the scatter engine's
  /// wr_id-demuxed monitoring completions.
  net::CompletionQueue cq_;
  std::uint64_t reconfigs_ = 0;
  std::uint64_t fetch_failures_ = 0;
  sim::TimePoint last_reconfig_{};
};

}  // namespace rdmamon::reconfig
