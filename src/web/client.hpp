// Closed-loop client emulators (the paper drives RUBiS with eight threads
// on each of eight client nodes).
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "lb/dispatcher.hpp"
#include "net/fabric.hpp"
#include "os/node.hpp"
#include "sim/random.hpp"
#include "web/metrics.hpp"
#include "web/request.hpp"

namespace rdmamon::web {

/// Produces the next request of a workload (demands only; id/timestamps
/// are filled in by the client thread).
using RequestGenerator = std::function<Request(sim::Rng&)>;

struct ClientGroupConfig {
  int threads_per_node = 8;
  sim::Duration think = sim::msec(20);
  /// Telemetry label of this group's exported percentiles
  /// (web.response.*{group=...}). ClusterTestbed fills it from the group's
  /// creation order when left empty.
  std::string name = "g0";
};

/// A set of client threads across one or more client nodes, all running
/// the same generator and recording into one ResponseStats.
class ClientGroup {
 public:
  ClientGroup(net::Fabric& fabric, lb::Dispatcher& dispatcher,
              std::vector<os::Node*> client_nodes, RequestGenerator gen,
              ClientGroupConfig cfg, sim::Rng seed_rng);

  ResponseStats& stats() { return stats_; }
  const ResponseStats& stats() const { return stats_; }

 private:
  os::Program client_body(os::SimThread& self, net::Socket* sock,
                          std::shared_ptr<sim::Rng> rng);

  lb::Dispatcher* dispatcher_;  ///< numbers this group's requests
  RequestGenerator gen_;
  ClientGroupConfig cfg_;
  ResponseStats stats_;
  /// Publishes stats_ percentiles at snapshot time.
  telemetry::ScopedCollector collector_;
};

}  // namespace rdmamon::web
