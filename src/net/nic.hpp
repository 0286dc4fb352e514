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
#include <functional>
#include <unordered_map>

#include <memory>

#include "net/fabric.hpp"
#include "net/message.hpp"
#include "net/qpcache.hpp"
#include "net/verbs.hpp"
#include "os/node.hpp"
#include "telemetry/registry.hpp"

namespace rdmamon::net {

class Nic {
 public:
  Nic(Fabric& fabric, os::Node& node);

  os::Node& node() { return node_; }
  int node_id() const { return node_.id; }

  // --- two-sided -----------------------------------------------------------
  /// Transmits a message: serialises on the TX link (FIFO at link
  /// bandwidth), then hands it to the fabric. The caller has already paid
  /// the send syscall cost.
  void tx(Message msg);

  /// Receive path entry (called by the Fabric on arrival): raises a NetRx
  /// interrupt; protocol processing happens inline in handler context when
  /// the backlog is small, otherwise via ksoftirqd.
  void rx(Message msg);

  // --- one-sided -----------------------------------------------------------
  /// Registers a memory region; `reader` is sampled at DMA time.
  /// Read-only unless `remote_writable`. `tenant` is the owner a cached
  /// MR entry's eviction is attributed to (0 = system plane).
  MrKey register_mr(std::size_t bytes, std::function<std::any()> reader,
                    bool remote_writable = false,
                    std::function<void(const std::any&)> writer = nullptr,
                    TenantId tenant = 0);

  /// Invalidates an rkey. In-flight ops that reach the DMA engine after the
  /// deregistration complete with InvalidKey — the rkey is resolved at the
  /// DMA instant, never cached across the wire delay. Returns false if the
  /// key was unknown (double-dereg is a caller bug but must not crash).
  bool deregister_mr(MrKey key);

  using Done = std::function<void(Completion)>;

  /// Initiator-side one-sided op: request packet to the target NIC, DMA
  /// service there (no target CPU), response back, then `done` runs at the
  /// initiator with the completion. A READ samples the region's reader at
  /// the DMA instant; a WRITE applies `wr.value` through its writer, and is
  /// rejected with ProtectionError when the region is not remote_writable.
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
  void post(int target_node, WorkRequest wr, Done done,
            std::uint64_t ctx_id = 0, TenantId tenant = 0);

  /// Allocates a NIC-unique QpContext identity (context-cache key space).
  std::uint64_t alloc_ctx_id() { return next_ctx_id_++; }

  /// Bookkeeping hook for QpContext: one WR posted unsignaled.
  void count_unsignaled() { ++unsignaled_posted_; }

  // --- introspection ---------------------------------------------------------
  std::uint64_t tx_packets() const { return tx_packets_; }
  std::uint64_t rx_packets() const { return rx_packets_; }
  std::uint64_t rx_deferred() const { return rx_deferred_; }
  std::uint64_t rdma_ops_served() const { return rdma_served_; }
  std::uint64_t rdma_ops_posted() const { return rdma_posted_; }
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

  /// The wire half of post(), entered directly (QoS off) or as the
  /// arbiter's grant continuation (QoS on): fault checks, context-cache
  /// charge, request leg, target DMA, response leg.
  void start(int target_node, WorkRequest wr, Completion c, Done done,
             std::uint64_t ctx_id, TenantId tenant);
  /// Transport-level failure: the RC state machine retransmits until the
  /// retry budget is spent, then flushes the WR with RetryExceeded. The
  /// initiator always gets a completion — nothing hangs on a dead peer.
  void fail_after_retries(Completion c, Done done);
  /// The one completion point of every op: stamps `completed`, records
  /// read.comp / write.comp, hands the completion to `done`.
  void finish(Completion c, const Done& done);

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
};

}  // namespace rdmamon::net
