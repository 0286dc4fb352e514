// The back-end web server application: an Apache-prefork-style worker pool
// executing Request demands (PHP CPU, MySQL CPU, disk wait) and replying
// on the connection the request arrived on.
#pragma once

#include <cstdint>
#include <vector>

#include "net/fabric.hpp"
#include "net/socket.hpp"
#include "os/node.hpp"
#include "sim/fifo.hpp"
#include "web/request.hpp"

namespace rdmamon::web {

struct ServerConfig {
  int workers = 8;
};

class WebServer {
 public:
  WebServer(net::Fabric& fabric, os::Node& node, ServerConfig cfg);

  WebServer(const WebServer&) = delete;
  WebServer& operator=(const WebServer&) = delete;

  /// Starts serving requests arriving on `server_end` (one rx thread per
  /// listening connection; the shared worker pool serves all of them).
  void listen(net::Socket& server_end);

  os::Node& node() { return *node_; }
  std::uint64_t completed() const { return completed_; }
  std::size_t queue_depth() const { return queue_.size(); }

 private:
  struct PendingWork {
    Request req;
    net::Socket* reply_to;
  };

  os::Program rx_body(os::SimThread& self, net::Socket* sock);
  os::Program worker_body(os::SimThread& self);

  net::Fabric* fabric_;
  os::Node* node_;
  ServerConfig cfg_;
  sim::Fifo<PendingWork> queue_;
  os::WaitQueue work_wq_;
  std::uint64_t completed_ = 0;
  bool workers_started_ = false;
};

}  // namespace rdmamon::web
