#include "net/nic.hpp"

#include <algorithm>
#include <cstring>
#include <utility>

namespace rdmamon::net {

namespace {

/// CPU that takes NetRx interrupts: the paper-era HCA routes them to the
/// second CPU (the only CPU of a uniprocessor).
constexpr int kRxIrqCpu = 1;

/// Target-NIC DMA engine: per-byte cost of reading/writing host memory
/// (on top of FabricConfig::rdma_dma_base per op).
constexpr double kDmaPerByteNs = 0.8;
/// RC transport failure budget: an op whose packet is lost or whose target
/// is dead error-completes (RetryExceeded) after this long — retry_cnt x
/// local ACK timeout collapsed into one figure.
constexpr sim::Duration kRetryTimeout = sim::msec(4);

constexpr const char* kPostKind[] = {"read.post", "write.post"};
constexpr const char* kCompKind[] = {"read.comp", "write.comp"};

}  // namespace

Nic::Nic(Fabric& fabric, os::Node& node) : fabric_(fabric), node_(node) {
  if (fabric.config().nic_ctx_cache_entries > 0) {
    ctx_cache_ =
        std::make_unique<NicCtxCache>(fabric.config().nic_ctx_cache_entries);
  }
  if (fabric.config().qos.enabled) {
    arbiter_ = std::make_unique<TenantArbiter>(
        fabric.simu(), fabric.config().qos, fabric.config().bandwidth_bps,
        "qos." + node.name());
  }
  // Snapshot-time export of the NIC's always-on introspection counters;
  // a no-op bind when no registry is installed.
  collector_.bind(fabric.simu(), [this](telemetry::Registry& reg) {
    const telemetry::Labels by_node{{"node", node_.name()}};
    reg.gauge("net.nic.tx_packets", by_node)
        .set(static_cast<double>(tx_packets_));
    reg.gauge("net.nic.rx_packets", by_node)
        .set(static_cast<double>(rx_packets_));
    reg.gauge("net.nic.rx_deferred", by_node)
        .set(static_cast<double>(rx_deferred_));
    reg.gauge("net.nic.rdma_served", by_node)
        .set(static_cast<double>(rdma_served_));
    reg.gauge("net.nic.rdma_posted", by_node)
        .set(static_cast<double>(rdma_posted_));
    reg.gauge("net.nic.rdma_wire_bytes", by_node)
        .set(static_cast<double>(rdma_wire_bytes_));
    reg.gauge("net.nic.qpc_hits", by_node)
        .set(static_cast<double>(qpc_hits()));
    reg.gauge("net.nic.qpc_misses", by_node)
        .set(static_cast<double>(qpc_misses()));
    reg.gauge("net.nic.qpc_evictions", by_node)
        .set(static_cast<double>(qpc_evictions()));
    reg.gauge("net.verbs.unsignaled_posted", by_node)
        .set(static_cast<double>(unsignaled_posted_));
    if (arbiter_ != nullptr) {
      // Per-tenant QoS counters, iterated in ascending tenant order so
      // snapshots are deterministic.
      for (const TenantId t : arbiter_->tenants()) {
        const TenantArbiter::Stats s = arbiter_->stats(t);
        telemetry::Labels l = by_node;
        l.add("tenant", std::to_string(t));
        reg.gauge("net.qos.admitted", l).set(static_cast<double>(s.admitted));
        reg.gauge("net.qos.deferred", l).set(static_cast<double>(s.deferred));
        reg.gauge("net.qos.dropped", l).set(static_cast<double>(s.dropped));
        reg.gauge("net.qos.admitted_bytes", l)
            .set(static_cast<double>(s.admitted_bytes));
        reg.gauge("net.qos.queue_depth", l)
            .set(static_cast<double>(s.queue_depth));
      }
    }
  });
  if (telemetry::Registry* reg = telemetry::Registry::of(fabric.simu())) {
    fr_ = reg->recorder().ring("net." + node.name());
  }
}

// --- two-sided ----------------------------------------------------------------

void Nic::tx(Message msg) {
  ++tx_packets_;
  sim::Simulation& simu = fabric_.simu();
  node_.stats().on_net_bytes(msg.bytes, simu.now());
  // FIFO serialisation on the TX link.
  const sim::TimePoint start =
      tx_busy_ > simu.now() ? tx_busy_ : simu.now();
  const sim::Duration ser = sim::nsec(static_cast<std::int64_t>(
      static_cast<double>(msg.bytes) / fabric_.config().bandwidth_bps * 1e9));
  tx_busy_ = start + ser;
  const PacketSlot p = fabric_.park(std::move(msg));
  simu.at(tx_busy_, [this, p] { fabric_.ship(p); });
}

void Nic::rx(PacketSlot p) {
  ++rx_packets_;
  sim::Simulation& simu = fabric_.simu();
  node_.stats().on_net_bytes(fabric_.packet(p).bytes, simu.now());
  const int cpu = std::min(kRxIrqCpu, node_.config().cpus - 1);
  os::IrqController& irq = node_.irq();
  // Keep-up heuristic: protocol processing runs inline in IRQ context
  // while the receive path is keeping up (short HW queue, empty softirq
  // backlog); otherwise only the ack runs in the handler and the packet is
  // deferred to ksoftirqd — which competes with runnable threads.
  const bool inline_ok =
      irq.softirq_backlog(cpu) == 0 &&
      irq.pending_hard(cpu, os::IrqType::NetRx) < os::kRxInlineBudget;
  if (inline_ok) {
    irq.raise(
        cpu, os::IrqType::NetRx, [this, p] { fabric_.deliver_to_socket(p); },
        /*extra_cost=*/os::kSoftirqPacketCost);
  } else {
    ++rx_deferred_;
    irq.raise(cpu, os::IrqType::NetRx, [this, cpu, p] { defer_rx(cpu, p); });
  }
}

void Nic::defer_rx(int cpu, PacketSlot p) {
  node_.irq().raise_softirq(
      cpu, os::SoftirqItem{os::kSoftirqPacketCost,
                           [this, p] { fabric_.deliver_to_socket(p); }});
}

// --- one-sided ------------------------------------------------------------------

MrKey Nic::register_mr(std::span<std::byte> image, DmaHook on_dma,
                       bool remote_writable, TenantId tenant) {
  MemoryRegion mr;
  mr.rkey = next_rkey_++;
  mr.image = image;
  mr.remote_writable = remote_writable;
  mr.tenant = tenant;
  mr.on_dma = std::move(on_dma);
  const MrKey key{mr.rkey};
  regions_.emplace(mr.rkey, std::move(mr));
  return key;
}

bool Nic::deregister_mr(MrKey key) {
  if (ctx_cache_) ctx_cache_->erase(kMrKeyBit | key.key);
  return regions_.erase(key.key) > 0;
}

sim::Duration Nic::charge_qpc(std::uint64_t ctx_id, TenantId tenant) {
  if (ctx_cache_ == nullptr || ctx_id == 0) return sim::Duration{};
  if (ctx_cache_->access(kQpcKey | ctx_id, tenant)) return sim::Duration{};
  // Miss: the context is fetched from host memory through the NIC's one
  // fetch engine — concurrent misses queue behind each other, so a post
  // burst over more contexts than the cache holds collapses into a
  // serial context-reload train (the RDMAvisor thrash regime).
  sim::Simulation& simu = fabric_.simu();
  const sim::TimePoint start =
      ctx_fetch_busy_ > simu.now() ? ctx_fetch_busy_ : simu.now();
  ctx_fetch_busy_ = start + kCtxMissPenalty;
  return ctx_fetch_busy_ - simu.now();
}

sim::Duration Nic::charge_mr(std::uint32_t rkey) {
  if (ctx_cache_ == nullptr) return sim::Duration{};
  // The MR entry is owned by the region's registering tenant (the region
  // may already be gone — the rkey resolves later — in which case the
  // entry is charged to the system plane).
  auto it = regions_.find(rkey);
  const TenantId owner = it != regions_.end() ? it->second.tenant : 0;
  if (ctx_cache_->access(kMrKeyBit | rkey, owner)) return sim::Duration{};
  // MR entry miss stalls the (already serialised) DMA engine while the
  // entry is fetched; the caller adds this to the service time.
  return kCtxMissPenalty;
}

void Nic::count_doorbell(std::size_t wrs) {
  if (!doorbell_resolved_) {
    doorbell_resolved_ = true;
    if (telemetry::Registry* reg = telemetry::Registry::of(fabric_.simu())) {
      const telemetry::Labels by_node{{"node", node_.name()}};
      m_doorbells_ = &reg->counter("net.doorbells", by_node);
      m_posts_ = &reg->counter("net.posts", by_node);
      m_doorbell_wrs_ = &reg->histogram("net.doorbell.wrs", by_node);
    }
  }
  telemetry::add(m_doorbells_);
  telemetry::add(m_posts_, wrs);
  telemetry::observe(m_doorbell_wrs_, static_cast<double>(wrs));
}

void Nic::post(int target_node, const WorkRequest& wr, sim::ByteBlock payload,
               Done done, std::uint64_t ctx_id, TenantId tenant) {
  ++rdma_posted_;
  telemetry::fr_record(fr_, kPostKind[static_cast<std::size_t>(wr.verb)],
                       target_node, static_cast<std::int64_t>(wr.wr_id),
                       static_cast<double>(wr.len));
  // Charged at post time: retried-and-failed ops consumed the fabric too.
  const std::size_t footprint = rdma_footprint(wr.verb, wr.len);
  rdma_wire_bytes_ += footprint;
  Completion c;
  c.wr_id = wr.wr_id;
  c.verb = wr.verb;
  c.posted = fabric_.simu().now();
  const OpSlot s = ops_.put(Op{target_node, wr, std::move(payload),
                               std::move(c), std::move(done), ctx_id, tenant});
  if (arbiter_ != nullptr) {
    // Fabric QoS: the op's full wire footprint passes the per-tenant
    // token bucket + WFQ arbiter before the wire logic runs. A queue-cap
    // refusal drops the WR; the RC layer error-completes it exactly like
    // a retry-budget exhaustion.
    if (!arbiter_->submit(tenant, footprint, [this, s] { start(s); })) {
      fail_after_retries(s);
    }
    return;
  }
  start(s);
}

void Nic::start(OpSlot s) {
  const Op& op = ops_[s];
  // Dead host at EITHER end or lost request packet: the op can never
  // succeed. The initiator-side check mirrors the socket path (a crashed
  // node's packets vanish both ways) — without it a crashed front end
  // would keep one-sided monitoring through its own NIC.
  if (fabric_.fault_state(node_id()).crashed ||
      fabric_.fault_state(op.target).crashed ||
      fabric_.sample_link_drop(node_id(), op.target)) {
    fail_after_retries(s);
    return;
  }
  // QP-context cache touch at the initiator: an evicted context delays
  // the request by the (serialised) fetch penalty before it reaches the
  // wire. Zero with the default unbounded cache.
  const sim::Duration qpc_delay = charge_qpc(op.ctx_id, op.tenant);
  // Request packet to the target NIC.
  const sim::Duration req =
      qpc_delay +
      fabric_.config().wire_delay(request_bytes(op.wr.verb, op.wr.len)) +
      fabric_.link_extra(node_id(), op.target);
  fabric_.simu().after(req, [this, s] { on_request(s); });
}

void Nic::on_request(OpSlot s) {
  const Op& op = ops_[s];
  if (fabric_.fault_state(op.target).crashed) {
    // Died while the request was in flight. NOTE: a *frozen* target
    // still serves the read — the DMA engine needs no host CPU, the
    // property the paper's RDMA-Sync scheme exploits.
    fail_after_retries(s);
    return;
  }
  // DMA engine serialisation at the target NIC (an MR-entry cache miss
  // stalls the engine for the fetch).
  sim::Simulation& simu = fabric_.simu();
  Nic& target = fabric_.nic(op.target);
  const sim::TimePoint start =
      target.dma_busy_ > simu.now() ? target.dma_busy_ : simu.now();
  const sim::Duration service =
      target.charge_mr(op.wr.rkey.key) + fabric_.config().rdma_dma_base +
      sim::nsec(static_cast<std::int64_t>(static_cast<double>(op.wr.len) *
                                          kDmaPerByteNs));
  target.dma_busy_ = start + service;
  simu.at(target.dma_busy_, [this, s] { on_dma(s); });
}

void Nic::on_dma(OpSlot s) {
  Op& op = ops_[s];
  Nic& target = fabric_.nic(op.target);
  ++target.rdma_served_;
  // Resolve the rkey only now: a region deregistered while the request
  // was on the wire (or queued behind the DMA engine) must fail with
  // InvalidKey — never touch a stale entry.
  auto it = target.regions_.find(op.wr.rkey.key);
  if (it == target.regions_.end()) {
    op.c.status = WcStatus::InvalidKey;
  } else if (op.wr.verb == Verb::Read) {
    // THE key semantic: the content is copied at the DMA instant.
    MemoryRegion& mr = it->second;
    if (mr.on_dma) mr.on_dma(Verb::Read, mr.image);
    if (op.wr.offset > mr.image.size()) {
      op.c.status = WcStatus::ProtectionError;
    } else {
      op.c.data = sim::ByteBlock(mr.image.data() + op.wr.offset,
                                 mr.image.size() - op.wr.offset);
    }
  } else if (!it->second.remote_writable ||
             op.wr.offset > it->second.image.size() ||
             op.payload.size() > it->second.image.size() - op.wr.offset) {
    // Read-only exposure (the paper's defence for exporting kernel
    // memory), or bytes that would overrun the region: the write is
    // discarded and the region left untouched.
    op.c.status = WcStatus::ProtectionError;
  } else {
    MemoryRegion& mr = it->second;
    if (!op.payload.empty()) {
      std::memcpy(mr.image.data() + op.wr.offset, op.payload.data(),
                  op.payload.size());
    }
    if (mr.on_dma) mr.on_dma(Verb::Write, mr.image);
  }
  op.payload.reset();
  // Response back to the initiator — a READ's data, a WRITE's ack (may
  // die on a lossy return path, or find either host dead meanwhile).
  if (fabric_.fault_state(op.target).crashed ||
      fabric_.fault_state(node_id()).crashed ||
      fabric_.sample_link_drop(op.target, node_id())) {
    fail_after_retries(s);
    return;
  }
  const sim::Duration resp =
      fabric_.config().wire_delay(response_bytes(op.wr.verb, op.wr.len)) +
      fabric_.link_extra(op.target, node_id());
  fabric_.simu().after(resp, [this, s] { finish(s); });
}

void Nic::fail_after_retries(OpSlot s) {
  ops_[s].c.status = WcStatus::RetryExceeded;
  fabric_.simu().after(kRetryTimeout, [this, s] { finish(s); });
}

void Nic::finish(OpSlot s) {
  Op& op = ops_[s];
  Completion c = std::move(op.c);
  Done done = std::move(op.done);
  ops_.release(s);
  c.completed = fabric_.simu().now();
  telemetry::fr_record_at(fr_, c.completed,
                          kCompKind[static_cast<std::size_t>(c.verb)],
                          static_cast<std::int64_t>(c.status),
                          static_cast<std::int64_t>(c.wr_id),
                          static_cast<double>((c.completed - c.posted).ns));
  done(std::move(c));
}

}  // namespace rdmamon::net
