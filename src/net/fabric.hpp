// The cluster interconnect: a non-blocking switch connecting every node's
// NIC (the paper's InfiniScale switch + InfiniHost HCAs), plus the
// connection registry for the socket layer.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "net/message.hpp"
#include "net/qos.hpp"
#include "sim/random.hpp"
#include "sim/simulation.hpp"
#include "sim/slot_table.hpp"
#include "sim/time.hpp"

namespace rdmamon::os {
class Node;
}

namespace rdmamon::net {

class Nic;
class Connection;

/// One-way propagation (wire + switch) latency.
inline constexpr sim::Duration kPropLatency = sim::usec(1);

/// Interconnect timing/behaviour knobs. Defaults approximate a 4x IB fabric
/// of the paper's era: ~1.25 GB/s links, microsecond-scale switch+wire
/// latency (kPropLatency), RDMA READ service a few microseconds.
struct FabricConfig {
  /// Link bandwidth in bytes/second (serialisation on the TX link).
  double bandwidth_bps = 1.25e9;

  /// Target-NIC DMA engine: fixed service cost per RDMA op (plus a
  /// per-byte cost of reading/writing host memory, see net/nic.cpp).
  sim::Duration rdma_dma_base = sim::usec(3);

  /// Bounded NIC connection-context cache (QP contexts at the initiator,
  /// MR entries at the target — the HCA's ICM cache, see net/qpcache.hpp).
  /// 0 keeps the cache unbounded and entirely un-modelled (no penalty, no
  /// accounting): the historical behaviour, and the default so existing
  /// experiments replay byte-identically. Set to the on-chip entry count
  /// to model RDMAvisor-style context thrash at high connection fan-out.
  /// A miss costs kCtxMissPenalty (net/qpcache.hpp).
  std::size_t nic_ctx_cache_entries = 0;

  /// Per-tenant fabric QoS (token-bucket rate caps + weighted fair
  /// queueing at every NIC's one-sided tx path; see net/qos.hpp).
  /// Disabled by default: no arbiter is built and all one-sided posts
  /// take the historical path byte-identically.
  QosConfig qos;

  /// Seed of the link-loss sampling stream (runs replay bit-for-bit).
  std::uint64_t fault_seed = 0x8d0fb18a12c5e3a7ull;

  sim::Duration wire_delay(std::size_t bytes) const {
    return kPropLatency +
           sim::nsec(static_cast<std::int64_t>(
               static_cast<double>(bytes) / bandwidth_bps * 1e9));
  }
};

/// Injected fault status of one node (driven by fault::FaultInjector).
/// Crash kills host *and* NIC; freeze hangs the host (no interrupt
/// servicing, so no two-sided progress) while the NIC keeps DMA-ing —
/// the regime where the paper's one-sided monitoring claim bites. Link
/// degradation adds one-way latency and a per-packet loss probability on
/// the node's access link.
struct NodeFaultState {
  bool crashed = false;
  bool frozen = false;
  sim::Duration link_extra_latency{};
  double link_loss = 0.0;
};

/// Owns the NICs and the message-in-flight bookkeeping. Nodes are created
/// by the caller (they carry their own OS config) and attached here.
///
/// A socket message lives in one packet-table slot from Nic::tx until the
/// receiving socket hands it to a reader: TX serialisation, the wire, a
/// frozen host's ingress port, the receiver's IRQ/softirq path and the
/// socket's receive queue all carry only the slot. It is freed where it
/// is read (Socket::recv, recv_until, recv_ready), flushed
/// (Socket::drain_rx) or dropped (crashed end, lossy link, crash of a
/// frozen host holding it).
class Fabric {
 public:
  Fabric(sim::Simulation& simu, FabricConfig cfg);
  ~Fabric();

  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;

  /// Creates a NIC for `node` and assigns node.id. Returns the NIC.
  Nic& attach(os::Node& node);

  Nic& nic(int node_id);
  os::Node& node(int node_id);
  int num_nodes() const { return static_cast<int>(nodes_.size()); }

  /// Establishes a socket connection between two attached nodes.
  /// Setup handshake latency is not modelled (connections are created
  /// during experiment wiring); both nodes' connection counters bump.
  Connection& connect(os::Node& a, os::Node& b);

  /// Parks an outgoing message (Nic::tx) and returns its slot.
  PacketSlot park(const Message& msg) { return packets_.put(msg); }
  /// The message parked in `p`.
  Message& packet(PacketSlot p) { return packets_[p]; }
  /// Moves the message out of `p` and frees the slot (a socket read).
  Message unpark(PacketSlot p) { return packets_.take(p); }
  /// Frees `p` and the message in it (a flush or a drop).
  void discard(PacketSlot p) { packets_.release(p); }
  /// Messages parked and not yet read or dropped: on the wire, held at a
  /// frozen ingress port, in a receive path or queued at a socket.
  std::size_t packets_in_flight() const { return packets_.live(); }

  /// Ships a parked message: propagation delay, then the destination
  /// NIC's receive path (called by Nic after TX serialisation).
  void ship(PacketSlot p);

  /// Queues a parked message at its connection endpoint; the slot stays
  /// parked until the socket is read (called by the destination NIC once
  /// protocol processing has been paid).
  void deliver_to_socket(PacketSlot p);

  sim::Simulation& simu() { return simu_; }
  const FabricConfig& config() const { return cfg_; }

  // --- fault-injection hooks (see src/fault) -------------------------------
  /// Node dies whole: in-flight and future packets to/from it vanish,
  /// RDMA ops against it error-complete after the retry budget.
  void inject_crash(int node_id);
  /// Node comes back (threads/NIC state survive — the simulator models
  /// reachability, not reboot).
  void inject_recover(int node_id);
  /// Hung kernel: inbound packets queue at the switch port (no interrupt
  /// servicing), but the NIC's DMA engine keeps serving one-sided ops.
  void inject_freeze(int node_id);
  /// Un-hang: queued inbound packets burst into the receive path.
  void inject_unfreeze(int node_id);
  /// Degrades the node's access link: `extra_latency` one-way, `loss`
  /// drop probability per packet (also applied to RDMA request/response).
  void inject_link_fault(int node_id, sim::Duration extra_latency,
                         double loss);
  void clear_link_fault(int node_id);

  const NodeFaultState& fault_state(int node_id) const;
  /// Extra one-way latency on src->dst (both endpoints' access links).
  sim::Duration link_extra(int src, int dst) const;
  /// Samples the loss process for one packet on src->dst (advances the
  /// fault RNG; deterministic for a fixed fault_seed and call sequence).
  bool sample_link_drop(int src, int dst);

 private:
  NodeFaultState& fault_at(int node_id);
  /// A shipped message reaches its destination's ingress port.
  void arrive(PacketSlot p);

  sim::Simulation& simu_;
  FabricConfig cfg_;
  std::vector<os::Node*> nodes_;
  std::vector<std::unique_ptr<Nic>> nics_;
  std::vector<std::unique_ptr<Connection>> conns_;
  std::vector<NodeFaultState> faults_;
  sim::SlotTable<Message> packets_;  ///< socket messages not yet read
  std::vector<std::vector<PacketSlot>> frozen_rx_;  ///< held while frozen
  sim::Rng fault_rng_;
};

}  // namespace rdmamon::net
