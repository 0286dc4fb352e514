#include "lb/dispatcher.hpp"

#include <algorithm>
#include <string>

namespace rdmamon::lb {

namespace {
/// CPU spent routing one request (parse + table ops).
constexpr sim::Duration kDispatchCpu = sim::usec(15);
}  // namespace

Dispatcher::Dispatcher(net::Fabric& fabric, os::Node& frontend,
                       LoadBalancer& lb)
    : fabric_(&fabric), frontend_(&frontend), lb_(&lb) {
  collector_.bind(frontend.simu(), [this](telemetry::Registry& reg) {
    const telemetry::Labels l{{"frontend", frontend_->name()}};
    reg.gauge("lb.dispatch.forwarded", l).set(static_cast<double>(forwarded_));
    reg.gauge("lb.dispatch.rejected", l).set(static_cast<double>(rejected_));
    reg.gauge("lb.dispatch.failed_over", l)
        .set(static_cast<double>(failed_over_));
    reg.gauge("lb.dispatch.pending", l)
        .set(static_cast<double>(pending_.size()));
  });
}

void Dispatcher::add_backend(web::WebServer& server) {
  net::Connection& conn = fabric_->connect(*frontend_, server.node());
  backend_socks_.push_back(&conn.end_a());
  per_backend_.push_back(0);
  server.listen(conn.end_b());
  frontend_->spawn("disp-router" + std::to_string(backend_socks_.size()),
                   [this, sock = &conn.end_a()](os::SimThread& t) {
                     return router_body(t, sock);
                   });
}

void Dispatcher::enable_failover() {
  lb_->on_health_change([this](int backend, BackendHealth h) {
    if (h == BackendHealth::Dead) fail_pending_to(backend);
  });
}

std::size_t Dispatcher::fail_pending_to(int backend) {
  std::size_t kept = 0;
  for (const PendingEntry& p : pending_) {
    if (p.backend != backend) {
      pending_[kept++] = p;
      continue;
    }
    // Answer from the front end directly (no back-end involved). The
    // injected reply skips the forwarder thread's send cost: failover is
    // a control-plane action taken inside the poller, not a data-plane
    // hop worth modelling.
    web::Reply rej;
    rej.id = p.id;
    rej.rejected = true;
    p.client->inject_tx(256, rej);
  }
  const std::size_t failed = pending_.size() - kept;
  pending_.resize(kept);
  failed_over_ += failed;
  return failed;
}

std::vector<std::uint64_t> Dispatcher::pending_ids() const {
  std::vector<std::uint64_t> ids;
  ids.reserve(pending_.size());
  for (const PendingEntry& p : pending_) ids.push_back(p.id);
  return ids;
}

net::Socket& Dispatcher::add_client(os::Node& client_node) {
  net::Connection& conn = fabric_->connect(client_node, *frontend_);
  frontend_->spawn("disp-fwd" + std::to_string(++clients_),
                   [this, sock = &conn.end_b()](os::SimThread& t) {
                     return forwarder_body(t, sock);
                   });
  return conn.end_a();
}

os::Program Dispatcher::forwarder_body(os::SimThread& self,
                                       net::Socket* from_client) {
  for (;;) {
    net::Message m;
    co_await from_client->recv(self, m);
    const web::Request req = m.payload.as<web::Request>();
    co_await os::Compute{kDispatchCpu};
    const int backend = lb_->pick();
    if (admission_ != nullptr &&
        !admission_->admit(lb_->index_of(backend))) {
      ++rejected_;
      web::Reply rej;
      rej.id = req.id;
      rej.query_class = req.query_class;
      rej.rejected = true;
      co_await from_client->send(self, 256, rej);
      continue;
    }
    pending_.push_back({req.id, from_client, backend});
    ++forwarded_;
    ++per_backend_[static_cast<std::size_t>(backend)];
    co_await backend_socks_[static_cast<std::size_t>(backend)]->send(
        self, req.request_bytes, m.payload);
  }
}

os::Program Dispatcher::router_body(os::SimThread& self,
                                    net::Socket* from_backend) {
  for (;;) {
    net::Message m;
    co_await from_backend->recv(self, m);
    const std::uint64_t id = m.payload.as<web::Reply>().id;
    auto it = std::find_if(pending_.begin(), pending_.end(),
                           [id](const PendingEntry& p) { return p.id == id; });
    if (it == pending_.end()) continue;  // duplicate/late/failed-over; drop
    net::Socket* to_client = it->client;
    pending_.erase(it);
    co_await to_client->send(self, m.bytes, m.payload);
  }
}

}  // namespace rdmamon::lb
