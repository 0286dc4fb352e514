// The simulated network adapter. Two personalities, matching the paper's
// two transports:
//
//  - channel semantics (two-sided): TX serialisation, then at the receiver
//    an interrupt + protocol processing, inline in IRQ context when the
//    receive path is keeping up and deferred to ksoftirqd when it is not
//    (the load-coupling that makes socket monitoring degrade, Fig 3);
//
//  - memory semantics (one-sided): registered memory regions served by the
//    NIC's DMA engine with zero host-CPU involvement.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <unordered_map>

#include "net/fabric.hpp"
#include "net/message.hpp"
#include "net/qpcache.hpp"
#include "net/verbs.hpp"
#include "os/node.hpp"
#include "sim/inline_fn.hpp"
#include "sim/slot_table.hpp"
#include "telemetry/registry.hpp"

namespace rdmamon::net {

/// Size of a one-sided request packet, and of a WRITE's ack, on the wire.
inline constexpr std::size_t kRequestBytes = 32;

/// The opcode's two wire legs: a READ's request is bare and its response
/// carries the data; a WRITE's request carries the payload and its
/// response is a bare ack.
constexpr std::size_t request_bytes(Verb verb, std::size_t len) {
  return kRequestBytes + (verb == Verb::Write ? len : 0);
}
constexpr std::size_t response_bytes(Verb verb, std::size_t len) {
  return verb == Verb::Read ? len : kRequestBytes;
}

/// Wire footprint of one one-sided op of `len` bytes, both legs: what
/// Nic::rdma_wire_bytes charges per post.
constexpr std::size_t rdma_footprint(Verb verb, std::size_t len) {
  return request_bytes(verb, len) + response_bytes(verb, len);
}

class Nic {
 public:
  Nic(Fabric& fabric, os::Node& node);

  os::Node& node() { return node_; }
  int node_id() const { return node_.id; }

  // --- two-sided -----------------------------------------------------------
  /// Transmits a message: parks it in the fabric's packet table,
  /// serialises it on the TX link (FIFO at link bandwidth), then hands it
  /// to the fabric. The caller has already paid the send syscall cost.
  void tx(Message msg);

  // --- one-sided -----------------------------------------------------------
  /// Registers `image`, bytes the caller owns and keeps alive until
  /// deregister_mr, as a memory region. A READ copies the image at the
  /// DMA instant; `on_dma` (optional) runs then — before a READ's copy,
  /// after a WRITE landed. Read-only unless `remote_writable`. `tenant`
  /// is the owner a cached MR entry's eviction is attributed to (0 =
  /// system plane).
  MrKey register_mr(std::span<std::byte> image, DmaHook on_dma = nullptr,
                    bool remote_writable = false, TenantId tenant = 0);

  /// Invalidates an rkey. In-flight ops that reach the DMA engine after the
  /// deregistration complete with InvalidKey — the rkey is resolved at the
  /// DMA instant, never cached across the wire delay. Returns false if the
  /// key was unknown (double-dereg is a caller bug but must not crash).
  bool deregister_mr(MrKey key);

  /// Completion callback: move-only and inline up to 48 bytes of
  /// captures (QpContext's is 40), so a post allocates nothing.
  using Done = sim::InlineFunction<void(Completion)>;

  /// Initiator-side one-sided op: request packet to the target NIC, DMA
  /// service there (no target CPU), response back, then `done` runs at the
  /// initiator with the completion. The op lives in this NIC's op table
  /// from post to completion; each of its events captures only the slot.
  /// A READ copies the region's image into a sim::ByteBlock at the DMA
  /// instant; a WRITE lands `payload` (a block
  /// copied at post time; wr.payload is ignored here) at wr.offset then,
  /// and is rejected with ProtectionError when the region is not
  /// remote_writable or the bytes would overrun it. wr.len alone sets the
  /// wire and DMA time.
  /// `ctx_id` names the posting QpContext for the context-cache model (0 =
  /// uncontexted, never charged); with a bounded cache configured, a
  /// QP-context miss delays the request by the fetch penalty, serialised
  /// on the NIC's single fetch engine, and an MR miss at the target stalls
  /// its DMA engine by the same penalty.
  ///
  /// `tenant` tags the WR for fabric QoS: with FabricConfig::qos enabled
  /// the op passes this NIC's per-tenant token-bucket + WFQ arbiter
  /// before reaching the wire (and may be DROPPED at the tenant's queue
  /// cap, error-completing with RetryExceeded). With QoS disabled the
  /// tag is inert and the path is byte-identical to history.
  void post(int target_node, const WorkRequest& wr, sim::ByteBlock payload,
            Done done, std::uint64_t ctx_id = 0, TenantId tenant = 0);

  /// Allocates a NIC-unique QpContext identity (context-cache key space).
  std::uint64_t alloc_ctx_id() { return next_ctx_id_++; }

  /// Bookkeeping hook for QpContext: one WR posted unsignaled.
  void count_unsignaled() { ++unsignaled_posted_; }

  /// Telemetry: one doorbell rung on this node, covering `wrs` work
  /// requests (the scatter engine's merged posts make this ratio
  /// interesting). Wall-clock-only bookkeeping; charges no simulated
  /// time. The instruments are resolved on the first doorbell, so a NIC
  /// that never rings exports no doorbell series.
  void count_doorbell(std::size_t wrs);

  // --- introspection ---------------------------------------------------------
  std::uint64_t tx_packets() const { return tx_packets_; }
  std::uint64_t rx_packets() const { return rx_packets_; }
  std::uint64_t rx_deferred() const { return rx_deferred_; }
  std::uint64_t rdma_ops_served() const { return rdma_served_; }
  std::uint64_t rdma_ops_posted() const { return rdma_posted_; }
  /// One-sided ops this NIC initiated that have not completed yet.
  std::size_t rdma_ops_in_flight() const { return ops_.live(); }
  /// Wire bytes of one-sided ops THIS node initiated (request + payload +
  /// ack/response), charged at post time — retried-and-failed ops consumed
  /// the fabric too. The freshness-per-fabric-byte analyses read this:
  /// front-end NICs accumulate pull (READ) bytes, back-end NICs push
  /// (WRITE) bytes.
  std::uint64_t rdma_wire_bytes() const { return rdma_wire_bytes_; }
  /// WRs posted through this NIC's contexts without a CQE request.
  std::uint64_t unsignaled_posted() const { return unsignaled_posted_; }
  /// Context-cache accounting (all zero while the cache is unbounded —
  /// FabricConfig::nic_ctx_cache_entries == 0).
  std::uint64_t qpc_hits() const { return ctx_cache_ ? ctx_cache_->hits() : 0; }
  std::uint64_t qpc_misses() const {
    return ctx_cache_ ? ctx_cache_->misses() : 0;
  }
  std::uint64_t qpc_evictions() const {
    return ctx_cache_ ? ctx_cache_->evictions() : 0;
  }
  /// Context-cache evictions whose displaced entry belonged to `tenant`
  /// (the noisy-neighbor attribution the MR-thrash tests assert on).
  std::uint64_t qpc_evictions_for(TenantId tenant) const {
    return ctx_cache_ ? ctx_cache_->evictions_for(tenant) : 0;
  }

  /// The per-tenant QoS arbiter on this NIC's one-sided tx path; null
  /// unless FabricConfig::qos.enabled.
  const TenantArbiter* arbiter() const { return arbiter_.get(); }

 private:
  friend class Fabric;

  /// Context-cache key namespaces: one unified cache holds QP contexts
  /// (initiator side) and MR entries (target side), like the real ICM.
  static constexpr std::uint64_t kQpcKey = 1ull << 63;
  static constexpr std::uint64_t kMrKeyBit = 1ull << 62;

  /// Touches the initiator-side QP context `ctx_id`; on a miss returns
  /// the delay until the single context-fetch engine has brought it in
  /// (serialised across concurrent misses — the thrash regime).
  sim::Duration charge_qpc(std::uint64_t ctx_id, TenantId tenant);
  /// Touches the target-side MR entry; on a miss returns the penalty to
  /// add to the DMA service time (the DMA engine already serialises).
  sim::Duration charge_mr(std::uint32_t rkey);

  /// One in-flight one-sided op, parked in ops_ from post() to finish().
  struct Op {
    int target = -1;
    WorkRequest wr;
    sim::ByteBlock payload;  ///< a WRITE's bytes, until the DMA instant
    Completion c;
    Done done;
    std::uint64_t ctx_id = 0;
    TenantId tenant = 0;
  };
  using OpSlot = sim::SlotTable<Op>::Slot;

  /// The wire half of post(), entered directly (QoS off) or as the
  /// arbiter's grant continuation (QoS on): fault checks, context-cache
  /// charge, then the request leg.
  void start(OpSlot s);
  /// The request reaches the target NIC: queue on its DMA engine.
  void on_request(OpSlot s);
  /// The DMA instant: copy the image out (READ) or the payload in
  /// (WRITE), then the response leg.
  void on_dma(OpSlot s);
  /// Transport-level failure: the RC state machine retransmits until the
  /// retry budget is spent, then flushes the WR with RetryExceeded. The
  /// initiator always gets a completion — nothing hangs on a dead peer.
  void fail_after_retries(OpSlot s);
  /// The one completion point of every op: frees the op's slot, stamps
  /// `completed`, records read.comp / write.comp, hands the completion to
  /// `done` (which may post again).
  void finish(OpSlot s);

  /// Receive path entry (Fabric, on arrival): raises a NetRx interrupt;
  /// protocol processing happens inline in handler context when the
  /// backlog is small, otherwise via ksoftirqd.
  void rx(PacketSlot p);
  /// The deferred branch of rx(): queue the packet for `cpu`'s ksoftirqd.
  void defer_rx(int cpu, PacketSlot p);

  Fabric& fabric_;
  os::Node& node_;
  std::unordered_map<std::uint32_t, MemoryRegion> regions_;
  std::uint32_t next_rkey_ = 1;
  std::uint64_t next_ctx_id_ = 1;
  sim::TimePoint tx_busy_{};
  sim::TimePoint dma_busy_{};
  sim::TimePoint ctx_fetch_busy_{};
  /// Bounded connection-context cache; null when unbounded (default).
  std::unique_ptr<NicCtxCache> ctx_cache_;
  /// Per-tenant QoS arbiter; null when FabricConfig::qos is disabled.
  std::unique_ptr<TenantArbiter> arbiter_;
  sim::SlotTable<Op> ops_;  ///< one-sided ops this NIC initiated, in flight
  std::uint64_t tx_packets_ = 0;
  std::uint64_t rx_packets_ = 0;
  std::uint64_t rx_deferred_ = 0;
  std::uint64_t rdma_served_ = 0;
  std::uint64_t rdma_posted_ = 0;
  std::uint64_t rdma_wire_bytes_ = 0;
  std::uint64_t unsignaled_posted_ = 0;
  /// Publishes the counters above as gauges at snapshot time, so the
  /// hot packet paths need no extra bookkeeping.
  telemetry::ScopedCollector collector_;
  /// Flight-recorder ring for this NIC's verbs posts/completions
  /// ("net.<node>"); null when no registry is installed.
  telemetry::FlightRing* fr_ = nullptr;
  /// count_doorbell's instruments, resolved on the first doorbell; null
  /// when no registry is installed.
  bool doorbell_resolved_ = false;
  telemetry::Counter* m_doorbells_ = nullptr;
  telemetry::Counter* m_posts_ = nullptr;
  telemetry::HistogramMetric* m_doorbell_wrs_ = nullptr;
};

}  // namespace rdmamon::net
