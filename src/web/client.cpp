#include "web/client.hpp"

namespace rdmamon::web {

ClientGroup::ClientGroup(net::Fabric& fabric, lb::Dispatcher& dispatcher,
                         std::vector<os::Node*> client_nodes,
                         RequestGenerator gen, ClientGroupConfig cfg,
                         sim::Rng seed_rng)
    : dispatcher_(&dispatcher), gen_(std::move(gen)), cfg_(cfg) {
  for (os::Node* node : client_nodes) {
    for (int i = 0; i < cfg_.threads_per_node; ++i) {
      net::Socket& sock = dispatcher.add_client(*node);
      auto rng = std::make_shared<sim::Rng>(seed_rng.split());
      node->spawn("client" + std::to_string(i),
                  [this, sock = &sock, rng](os::SimThread& t) {
                    return client_body(t, sock, rng);
                  });
    }
  }
  // Re-export this group's response percentiles at snapshot time.
  collector_.bind(fabric.simu(), [this](telemetry::Registry& reg) {
    stats_.export_to(reg, telemetry::Labels{{"group", cfg_.name}});
  });
}

os::Program ClientGroup::client_body(os::SimThread& self, net::Socket* sock,
                                     std::shared_ptr<sim::Rng> rng) {
  sim::Simulation& simu = self.node().simu();
  for (;;) {
    Request req = gen_(*rng);
    req.id = dispatcher_->next_request_id();
    req.created_at = simu.now();
    co_await sock->send(self, req.request_bytes, req);
    net::Message m;
    co_await sock->recv(self, m);
    const Reply reply = m.payload.as<Reply>();
    if (reply.rejected) {
      stats_.record_rejected();
    } else {
      stats_.record(reply.query_class, simu.now() - req.created_at);
    }
    // Exponential think time keeps arrivals from phase-locking.
    co_await os::SleepFor{sim::nsec(static_cast<std::int64_t>(
        rng->exponential(static_cast<double>(cfg_.think.ns))))};
  }
}

}  // namespace rdmamon::web
