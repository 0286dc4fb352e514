// Two-sided stream sockets over channel semantics (the paper's IPoIB
// baseline transport). Message-oriented: each send() delivers one Message
// at the peer after TX serialisation, wire, interrupt and protocol costs —
// plus whatever run-queue delay the receiving thread suffers.
//
// A message's payload is an inline byte image (net::Payload), and the
// message stays in its one Fabric packet-table slot from Nic::tx until a
// reader takes it out: the receive queue holds slots, not messages.
#pragma once

#include <vector>

#include "net/message.hpp"
#include "os/node.hpp"
#include "os/program.hpp"
#include "os/wait.hpp"
#include "sim/fifo.hpp"
#include "telemetry/registry.hpp"

namespace rdmamon::net {

class Fabric;
class Connection;

/// One endpoint of a Connection.
class Socket {
 public:
  /// Subprogram: pays the send syscall + copy cost, then transmits `bytes`
  /// carrying `payload` (empty by default) to the peer endpoint. `bytes`,
  /// not the payload's size, sets the wire and copy costs.
  os::Program send(os::SimThread& self, std::size_t bytes,
                   Payload payload = {});

  /// Subprogram: blocks until a message is available, pays the recv
  /// syscall + copy cost, and moves the message out of its packet slot
  /// into `out` (freeing the slot).
  os::Program recv(os::SimThread& self, Message& out);

  /// Subprogram: non-blocking receive. Requires has_data(); pops the head
  /// message and pays the recv syscall + copy cost. Issue/complete engines
  /// use this to consume a reply they already know has arrived.
  os::Program recv_ready(os::SimThread& self, Message& out);

  /// Discards every queued inbound message and frees its packet slot,
  /// returning how many were dropped. Protocols without sequence numbers
  /// (the monitoring request/response) use this to flush replies to
  /// abandoned requests.
  std::size_t drain_rx();

  /// Transmits `bytes` carrying `payload` WITHOUT charging the sender's
  /// syscall cost — used for switch-replicated multicast copies, where
  /// the host pays for one send and the fabric fans it out, and for
  /// replies the front end answers from inside its poller.
  void inject_tx(std::size_t bytes, const Payload& payload);

  /// Non-blocking check.
  bool has_data() const { return !rx_.empty(); }
  std::size_t rx_backlog() const { return rx_.size(); }

  /// Registers an additional wait queue to notify on delivery (epoll-ish):
  /// a scatter engine parks on its shared completion channel and hears
  /// about socket replies through this without per-socket waiter threads.
  void add_rx_watcher(os::WaitQueue* wq) { rx_watchers_.push_back(wq); }

  /// Delivery from the NIC receive path (protocol cost already paid):
  /// queues the parked message's slot and wakes the readers.
  void deliver(PacketSlot p);

 private:
  friend class Connection;

  /// Connection::open/close: binds this end to `local` (counting the
  /// connection there), or flushes it and uncounts it.
  void open(os::Node& local, int remote_node, std::uint64_t conn);
  void close();
  /// Caches per-node instrument pointers on first traffic (no-ops forever
  /// when no registry is installed at that point — install before traffic).
  void resolve_metrics();
  /// Hands a message from this endpoint to the local NIC. A plain
  /// function, so the 120-byte Message is built on the stack, not in
  /// send()'s coroutine frame.
  void transmit(std::size_t bytes, const Payload& payload);

  os::Node* local_ = nullptr;
  Fabric* fabric_ = nullptr;
  int remote_node_ = -1;
  std::uint64_t conn_ = 0;
  int remote_side_ = 0;  ///< which endpoint of the connection the peer is
  sim::Fifo<PacketSlot> rx_;  ///< delivered messages, still parked
  os::WaitQueue rx_wq_;
  std::vector<os::WaitQueue*> rx_watchers_;
  bool metrics_resolved_ = false;
  telemetry::Counter* tx_msgs_ = nullptr;
  telemetry::Counter* tx_bytes_ = nullptr;
  telemetry::Counter* rx_msgs_ = nullptr;
  telemetry::Counter* rx_bytes_ = nullptr;
  telemetry::Counter* watcher_wakeups_ = nullptr;
};

/// A bidirectional connection between two nodes; owns its two endpoints.
/// Fabric::connect opens it and Fabric::close ends its life; the fabric
/// keeps the object, and the next connect() between any two nodes opens
/// it again with its receive queues' capacity intact.
class Connection {
 public:
  Connection(Fabric& fabric, std::uint32_t index);
  ~Connection();

  Socket& end_a() { return a_; }
  Socket& end_b() { return b_; }
  Socket& endpoint(int side) { return side == 0 ? a_ : b_; }
  /// The low 32 bits are the object's index in the fabric; each close()
  /// moves the rest on, so a message stamped with an id from an earlier
  /// life matches no open connection.
  std::uint64_t id() const { return id_; }

 private:
  friend class Fabric;
  static constexpr std::uint64_t kLife = std::uint64_t{1} << 32;

  /// Binds end_a to `a` and end_b to `b`; both nodes count a connection.
  void open(os::Node& a, os::Node& b);
  /// Frees both receive queues' messages, drops their watchers, uncounts
  /// the connection on both nodes and moves the id to the next life.
  /// Every reader must be gone (killed) first.
  void close();

  std::uint64_t id_;
  Socket a_, b_;
};

}  // namespace rdmamon::net
