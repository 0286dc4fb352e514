#include "net/fabric.hpp"

#include <cassert>
#include <stdexcept>

#include "net/nic.hpp"
#include "net/socket.hpp"
#include "os/node.hpp"

namespace rdmamon::net {

Fabric::Fabric(sim::Simulation& simu, FabricConfig cfg)
    : simu_(simu), cfg_(cfg), fault_rng_(cfg.fault_seed) {}

Fabric::~Fabric() = default;

Nic& Fabric::attach(os::Node& node) {
  node.id = static_cast<int>(nodes_.size());
  nodes_.push_back(&node);
  nics_.push_back(std::make_unique<Nic>(*this, node));
  faults_.emplace_back();
  frozen_rx_.emplace_back();
  return *nics_.back();
}

Nic& Fabric::nic(int node_id) {
  return *nics_.at(static_cast<std::size_t>(node_id));
}

os::Node& Fabric::node(int node_id) {
  return *nodes_.at(static_cast<std::size_t>(node_id));
}

Connection& Fabric::connect(os::Node& a, os::Node& b) {
  if (a.id < 0 || b.id < 0) {
    throw std::logic_error("Fabric::connect: attach both nodes first");
  }
  conns_.push_back(std::make_unique<Connection>(
      *this, a, b, static_cast<std::uint64_t>(conns_.size())));
  return *conns_.back();
}

void Fabric::ship(Message msg) {
  // A packet to or from a crashed node never makes it onto the wire; a
  // degraded link may eat it. Loss is sampled at ship time so the RNG
  // consumption order is a deterministic function of traffic order.
  if (fault_at(msg.src_node).crashed || fault_at(msg.dst_node).crashed) {
    return;
  }
  if (sample_link_drop(msg.src_node, msg.dst_node)) return;
  // Propagation through the non-blocking switch (plus degradation).
  const sim::Duration lat =
      kPropLatency + link_extra(msg.src_node, msg.dst_node);
  simu_.after(lat, [this, msg = std::move(msg)] {
    NodeFaultState& f = fault_at(msg.dst_node);
    if (f.crashed) return;  // died while the packet was in flight
    if (f.frozen) {
      // Host hung: the packet waits at the ingress port until unfreeze.
      frozen_rx_[static_cast<std::size_t>(msg.dst_node)].push_back(msg);
      return;
    }
    nic(msg.dst_node).rx(msg);
  });
}

// --- fault-injection hooks ----------------------------------------------------

NodeFaultState& Fabric::fault_at(int node_id) {
  return faults_.at(static_cast<std::size_t>(node_id));
}

const NodeFaultState& Fabric::fault_state(int node_id) const {
  return faults_.at(static_cast<std::size_t>(node_id));
}

void Fabric::inject_crash(int node_id) {
  fault_at(node_id).crashed = true;
  // Packets parked at a frozen ingress die with the node.
  frozen_rx_[static_cast<std::size_t>(node_id)].clear();
}

void Fabric::inject_recover(int node_id) { fault_at(node_id).crashed = false; }

void Fabric::inject_freeze(int node_id) { fault_at(node_id).frozen = true; }

void Fabric::inject_unfreeze(int node_id) {
  NodeFaultState& f = fault_at(node_id);
  if (!f.frozen) return;
  f.frozen = false;
  // The backlog bursts into the receive path at the unfreeze instant —
  // the post-hang interrupt storm a real host sees.
  auto& held = frozen_rx_[static_cast<std::size_t>(node_id)];
  for (Message& m : held) nic(node_id).rx(std::move(m));
  held.clear();
}

void Fabric::inject_link_fault(int node_id, sim::Duration extra_latency,
                               double loss) {
  NodeFaultState& f = fault_at(node_id);
  f.link_extra_latency = extra_latency;
  f.link_loss = loss;
}

void Fabric::clear_link_fault(int node_id) {
  inject_link_fault(node_id, {}, 0.0);
}

sim::Duration Fabric::link_extra(int src, int dst) const {
  return fault_state(src).link_extra_latency +
         fault_state(dst).link_extra_latency;
}

bool Fabric::sample_link_drop(int src, int dst) {
  const double loss = fault_state(src).link_loss + fault_state(dst).link_loss;
  if (loss <= 0.0) return false;  // healthy path: no RNG consumed
  return fault_rng_.chance(loss);
}

void Fabric::deliver_to_socket(const Message& msg) {
  Connection& c = *conns_.at(static_cast<std::size_t>(msg.conn));
  c.endpoint(msg.dst_side).deliver(msg);
}

}  // namespace rdmamon::net
