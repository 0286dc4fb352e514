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

os::Program Socket::recv_until(os::SimThread& self, Message& out,
                               sim::TimePoint deadline, bool& ok) {
  ok = false;
  sim::Simulation& simu = fabric_->simu();
  // The deadline is a timer that spuriously wakes this socket's waiters;
  // the standard predicate re-check then notices the expired clock.
  // Cancelling an unexpired deadline is O(1) (eager wheel unlink), so
  // every recv may arm one without a per-message allocation or sweep.
  sim::EventHandle timer;
  if (rx_.empty() && simu.now() < deadline) {
    timer = simu.at(deadline, [this] { rx_wq_.notify_all(); });
  }
  while (rx_.empty() && simu.now() < deadline) {
    co_await os::WaitOn{&rx_wq_};
  }
  timer.cancel();
  if (rx_.empty()) co_return;
  out = fabric_->unpark(rx_.take_front());
  co_await os::ComputeKernel{kRecvCost + copy_cost(out.bytes)};
  ok = true;
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

Connection::Connection(Fabric& fabric, os::Node& a, os::Node& b,
                       std::uint64_t id)
    : id_(id) {
  a_.local_ = &a;
  a_.fabric_ = &fabric;
  a_.remote_node_ = b.id;
  a_.conn_ = id;
  a_.remote_side_ = 1;
  b_.local_ = &b;
  b_.fabric_ = &fabric;
  b_.remote_node_ = a.id;
  b_.conn_ = id;
  b_.remote_side_ = 0;
  a.stats().on_connection_opened();
  b.stats().on_connection_opened();
}

// Connections live exactly as long as the fabric (there is no mid-run
// disconnect), and the endpoint nodes are caller-owned — they may already
// be destroyed when the fabric tears down, so the destructor must not
// touch them to decrement connection counters.
Connection::~Connection() = default;

}  // namespace rdmamon::net
