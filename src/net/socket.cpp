#include "net/socket.hpp"

#include <cassert>

#include "net/fabric.hpp"
#include "net/nic.hpp"

namespace rdmamon::net {

namespace {

/// Socket path kernel costs (IPoIB-era protocol stack), plus a per-byte
/// copy cost for send/recv.
constexpr sim::Duration kSendCost = sim::usec(8);
constexpr sim::Duration kRecvCost = sim::usec(4);
constexpr double kCopyPerByteNs = 0.2;

sim::Duration copy_cost(std::size_t bytes) {
  return sim::nsec(static_cast<std::int64_t>(static_cast<double>(bytes) *
                                             kCopyPerByteNs));
}

}  // namespace

void Socket::resolve_metrics() {
  metrics_resolved_ = true;
  if (fabric_ == nullptr || local_ == nullptr) return;
  telemetry::Registry* reg = telemetry::Registry::of(fabric_->simu());
  if (reg == nullptr) return;
  const telemetry::Labels by_node{{"node", local_->name()}};
  tx_msgs_ = &reg->counter("net.socket.tx_msgs", by_node);
  tx_bytes_ = &reg->counter("net.socket.tx_bytes", by_node);
  rx_msgs_ = &reg->counter("net.socket.rx_msgs", by_node);
  rx_bytes_ = &reg->counter("net.socket.rx_bytes", by_node);
  watcher_wakeups_ = &reg->counter("net.socket.watcher_wakeups", by_node);
}

os::Program Socket::send(os::SimThread& self, std::size_t bytes,
                         Payload payload) {
  if (!metrics_resolved_) resolve_metrics();
  telemetry::add(tx_msgs_);
  telemetry::add(tx_bytes_, bytes);
  // Syscall trap + protocol + copy, charged as system time.
  co_await os::ComputeKernel{kSendCost + copy_cost(bytes)};
  transmit(bytes, payload);
  (void)self;
}

void Socket::inject_tx(std::size_t bytes, const Payload& payload) {
  if (!metrics_resolved_) resolve_metrics();
  telemetry::add(tx_msgs_);
  telemetry::add(tx_bytes_, bytes);
  transmit(bytes, payload);
}

void Socket::transmit(std::size_t bytes, const Payload& payload) {
  Message m;
  m.src_node = local_->id;
  m.dst_node = remote_node_;
  m.conn = conn_;
  m.dst_side = remote_side_;
  m.bytes = bytes;
  m.payload = payload;
  fabric_->nic(local_->id).tx(m);
}

os::Program Socket::recv(os::SimThread& self, Message& out) {
  while (rx_.empty()) co_await os::WaitOn{&rx_wq_};
  out = fabric_->unpark(rx_.take_front());
  co_await os::ComputeKernel{kRecvCost + copy_cost(out.bytes)};
  (void)self;
}

os::Program Socket::recv_ready(os::SimThread& self, Message& out) {
  assert(!rx_.empty() && "recv_ready requires has_data()");
  out = fabric_->unpark(rx_.take_front());
  co_await os::ComputeKernel{kRecvCost + copy_cost(out.bytes)};
  (void)self;
}

std::size_t Socket::drain_rx() {
  const std::size_t n = rx_.size();
  while (!rx_.empty()) fabric_->discard(rx_.take_front());
  return n;
}

void Socket::deliver(PacketSlot p) {
  if (!metrics_resolved_) resolve_metrics();
  telemetry::add(rx_msgs_);
  telemetry::add(rx_bytes_, fabric_->packet(p).bytes);
  rx_.push_back(p);
  rx_wq_.notify_one();
  for (os::WaitQueue* wq : rx_watchers_) {
    telemetry::add(watcher_wakeups_);
    wq->notify_all();
  }
}

void Socket::open(os::Node& local, int remote_node, std::uint64_t conn) {
  // Instruments are per node: a socket reopened on its last node keeps
  // them.
  if (local_ != &local) metrics_resolved_ = false;
  local_ = &local;
  remote_node_ = remote_node;
  conn_ = conn;
  local.stats().on_connection_opened();
}

void Socket::close() {
  assert(rx_wq_.empty() && "kill a closed socket's readers first");
  drain_rx();
  rx_watchers_.clear();
  local_->stats().on_connection_closed();
}

Connection::Connection(Fabric& fabric, std::uint32_t index) : id_(index) {
  a_.fabric_ = &fabric;
  a_.remote_side_ = 1;
  b_.fabric_ = &fabric;
  b_.remote_side_ = 0;
}

void Connection::open(os::Node& a, os::Node& b) {
  a_.open(a, b.id, id_);
  b_.open(b, a.id, id_);
}

void Connection::close() {
  a_.close();
  b_.close();
  id_ += kLife;
}

// A connection still open when the fabric tears down keeps its counts:
// the endpoint nodes are caller-owned and may already be destroyed, so
// the destructor must not touch them.
Connection::~Connection() = default;

}  // namespace rdmamon::net
