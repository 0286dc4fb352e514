// Per-tenant fabric QoS at the NIC's one-sided tx path (ROADMAP item 4's
// defence half). The noisy-neighbor papers show co-located tenants
// exhausting shared NIC/fabric resources; real HCAs answer with per-SL
// rate limiters and weighted arbitration between send queues. We model
// that pair:
//
//  - a token bucket per tenant caps the tenant's admitted wire bytes per
//    second (burst-tolerant, long-run rate bound);
//  - a start-time-fair weighted arbiter (SFQ) orders token-eligible ops
//    from different tenants onto the NIC's tx engine, so a tenant's
//    share of a contended NIC degrades gracefully with its weight
//    instead of collapsing under a neighbour's flood.
//
// Ops are metered by their total fabric footprint (net::rdma_footprint:
// request + payload + ack, as Nic::rdma_wire_bytes counts), because that is
// the resource a one-sided flood actually exhausts: a READ's bytes
// arrive on the response path, but they are the tenant's bytes all the
// same. An op that exceeds its tenant's queue cap is DROPPED (the NIC
// refuses the WR; the RC layer error-completes it), which bounds the
// arbiter's state under an unbounded aggressor.
//
// Everything is deterministic: no RNG, decisions ordered by (virtual
// start tag, global post sequence), timers on the simulation clock.
// With QosConfig::enabled false (the default) no arbiter exists at all
// and the fabric behaves byte-identically to every earlier experiment.
#pragma once

#include <cstdint>
#include <map>
#include <string_view>
#include <vector>

#include "sim/fifo.hpp"
#include "sim/inline_fn.hpp"
#include "sim/simulation.hpp"
#include "sim/time.hpp"

namespace rdmamon::telemetry {
class FlightRing;
}

namespace rdmamon::net {

/// Tenant identity carried on QP contexts and individual WRs. 0 is the
/// untenanted/system plane: it participates in arbitration like any
/// other tenant (default weight, no rate cap) so legacy callers need no
/// special-casing.
using TenantId = std::uint32_t;

/// Per-tenant QoS parameters (absent tenants get the config defaults).
struct TenantQosSpec {
  TenantId tenant = 0;
  /// WFQ weight: relative share of a contended tx engine.
  double weight = 1.0;
  /// Token-bucket rate in wire bytes/second. 0 = uncapped.
  double rate_bps = 0.0;
  /// Bucket depth: bytes that may burst past the rate. Also the maximum
  /// token charge per op — an op bigger than the bucket admits on a full
  /// bucket and drains it (long-run rate stays ~rate_bps), instead of
  /// being forever inadmissible.
  std::size_t burst_bytes = 256 * 1024;
  /// Max ops queued at the arbiter before new ones are dropped.
  /// 0 = use QosConfig::default_queue_cap.
  std::size_t queue_cap = 0;
};

/// FabricConfig::qos. Disabled by default: no arbiter is built and the
/// one-sided post path is exactly the historical one.
struct QosConfig {
  bool enabled = false;
  std::size_t default_queue_cap = 1024;
  std::vector<TenantQosSpec> tenants;

  const TenantQosSpec* find(TenantId t) const {
    for (const TenantQosSpec& s : tenants) {
      if (s.tenant == t) return &s;
    }
    return nullptr;
  }
};

/// The per-NIC arbiter. Nic::post submits an op's wire-byte footprint
/// plus a continuation; the continuation runs (synchronously
/// when uncontended) once the op wins arbitration. The tx engine then
/// stays occupied for bytes/engine_bps before the next op is picked.
/// With a telemetry registry installed, every decision lands in the
/// flight ring `ring_name` as "qos.admit" / "qos.drop" (a = tenant,
/// b = the op's submission sequence number, x = its wire bytes).
class TenantArbiter {
 public:
  /// Per-tenant accounting, exported as net.qos.* gauges by the NIC.
  struct Stats {
    std::uint64_t submitted = 0;
    std::uint64_t admitted = 0;
    /// Admitted ops that had to wait (engine busy or tokens short).
    std::uint64_t deferred = 0;
    /// Ops refused at the queue cap (error-completed by the caller).
    std::uint64_t dropped = 0;
    std::uint64_t admitted_bytes = 0;
    /// Current arbiter queue occupancy (sampled at stats() time).
    std::size_t queue_depth = 0;
  };

  TenantArbiter(sim::Simulation& simu, const QosConfig& cfg,
                double engine_bps, std::string_view ring_name = "qos");

  /// Submits one op of `bytes` wire footprint for `tenant`. Returns false
  /// when the tenant's queue is full — the op is dropped and `grant` is
  /// destroyed unrun. Otherwise `grant` runs at admission (possibly
  /// before submit returns).
  bool submit(TenantId tenant, std::size_t bytes, sim::InlineFn grant);

  /// Snapshot of one tenant's counters (zeroes for a never-seen tenant).
  Stats stats(TenantId t) const;
  /// Tenants that have submitted at least one op, ascending.
  std::vector<TenantId> tenants() const;

 private:
  struct Op {
    std::uint64_t seq = 0;
    std::size_t bytes = 0;
    double start_tag = 0.0;
    sim::TimePoint enqueued{};
    sim::InlineFn grant;
  };
  struct TenantState {
    double weight = 1.0;
    double rate_bps = 0.0;
    double burst = 0.0;
    std::size_t cap = 0;
    double tokens = 0.0;
    sim::TimePoint last_refill{};
    double vfinish = 0.0;  ///< virtual finish of the tenant's last-tagged op
    sim::Fifo<Op> q;  ///< FIFO within the tenant (no reordering)
    Stats stats;
  };

  TenantState& state_of(TenantId t);
  void refill(TenantState& st, sim::TimePoint now);
  void pump();

  sim::Simulation& simu_;
  QosConfig cfg_;
  double engine_bps_;
  /// Ordered by tenant id: deterministic iteration for arbitration
  /// tie-breaks and telemetry export.
  std::map<TenantId, TenantState> ts_;
  double vtime_ = 0.0;  ///< SFQ virtual time (start tag in service)
  bool busy_ = false;
  std::uint64_t seq_ = 0;
  telemetry::FlightRing* fr_ = nullptr;  ///< decision ring (registry only)
  sim::EventHandle timer_;
  bool timer_armed_ = false;
  sim::TimePoint timer_at_{};
};

}  // namespace rdmamon::net
