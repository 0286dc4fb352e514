// Front-end request dispatcher: relays client requests to the back end the
// LoadBalancer picks, and routes replies back. One forwarder thread per
// client connection, one reply-router thread per back-end connection.
#pragma once

#include <cstdint>
#include <vector>

#include "lb/admission.hpp"
#include "lb/balancer.hpp"
#include "net/fabric.hpp"
#include "net/socket.hpp"
#include "os/node.hpp"
#include "web/request.hpp"
#include "web/server.hpp"

namespace rdmamon::lb {

class Dispatcher {
 public:
  /// The exported lb.dispatch.* gauges carry {frontend=<the node's
  /// name>}, so dispatchers sharing one registry stay apart.
  Dispatcher(net::Fabric& fabric, os::Node& frontend, LoadBalancer& lb);

  /// Connects the dispatcher to a back-end web server (also makes the
  /// server listen on the new connection).
  void add_backend(web::WebServer& server);

  /// Creates a connection from `client_node` to the dispatcher; returns
  /// the client-side endpoint to send Requests on.
  net::Socket& add_client(os::Node& client_node);

  /// The id for a client's next request. Ids need only be unique among
  /// this dispatcher's pending requests, so each dispatcher numbers its
  /// own from 1 and two simulations number theirs alike.
  std::uint64_t next_request_id() { return next_request_id_++; }

  /// Optional admission control (owned by caller; nullptr = admit all).
  void set_admission(AdmissionController* adm) { admission_ = adm; }

  /// Wires the balancer's failure detector to this dispatcher: when a
  /// back end goes Dead, every request still pending on it is answered
  /// with a rejection so clients unblock (instead of waiting on a reply
  /// that will never come). New requests avoid it via LoadBalancer::pick.
  void enable_failover();

  /// Rejects (and forgets) every pending request routed to `backend`, in
  /// the order they were forwarded. Returns how many were failed over.
  std::size_t fail_pending_to(int backend);

  std::uint64_t forwarded() const { return forwarded_; }
  std::uint64_t rejected() const { return rejected_; }
  /// Pending requests answered with a rejection by failover.
  std::uint64_t failed_over() const { return failed_over_; }
  /// Requests currently awaiting a back-end reply.
  std::size_t pending() const { return pending_.size(); }
  /// Their ids, in forwarding order.
  std::vector<std::uint64_t> pending_ids() const;
  /// Requests forwarded to each back end (balance quality metric).
  const std::vector<std::uint64_t>& per_backend() const {
    return per_backend_;
  }

 private:
  struct PendingEntry {
    std::uint64_t id = 0;           ///< the request's id
    net::Socket* client = nullptr;  ///< where the reply must go
    int backend = -1;               ///< who we are waiting on
  };

  os::Program forwarder_body(os::SimThread& self, net::Socket* from_client);
  os::Program router_body(os::SimThread& self, net::Socket* from_backend);

  net::Fabric* fabric_;
  os::Node* frontend_;
  LoadBalancer* lb_;
  AdmissionController* admission_ = nullptr;

  std::vector<net::Socket*> backend_socks_;
  std::size_t clients_ = 0;  ///< forwarders spawned (numbers their names)
  /// Requests awaiting a reply, in forwarding order. A closed-loop client
  /// thread has at most one in flight, so a scan is cheap, and the vector
  /// stops allocating once it has held the most ever in flight.
  std::vector<PendingEntry> pending_;
  std::uint64_t next_request_id_ = 1;
  std::vector<std::uint64_t> per_backend_;
  std::uint64_t forwarded_ = 0;
  std::uint64_t rejected_ = 0;
  std::uint64_t failed_over_ = 0;
  /// Publishes the routing totals above at snapshot time.
  telemetry::ScopedCollector collector_;
};

}  // namespace rdmamon::lb
