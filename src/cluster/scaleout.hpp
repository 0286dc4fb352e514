// Multi-front-end scale-out plane: M LoadBalancer front-ends share one
// back-end set. Polling responsibility is partitioned by the consistent
// hash ring (cluster/ring) through reconfig::FrontendMembership, so each
// back end is polled by exactly ONE owner; every front end still sees
// all N back ends because each owner publishes its shard's records into
// a registered MR that peers RDMA-READ one-sided. The MR's DMA hook
// writes the view from the balancer's own per-back-end records into the
// region at the DMA instant — there is no second copy to keep fresh, so
// whatever refreshed a record (wire poll, pushed WRITE, verification
// READ) reaches peers. A view READ asks for exactly the peer's shard as
// the shared ring has it: the header plus one fixed-size peer record per
// back end the peer owns.
// The gossip READs cost the publisher no CPU, so the view stays readable
// even off a saturated or frozen owner.
//
// Failure handling composes three existing mechanisms:
//  - a peer whose view READs error-complete (crashed host) or whose
//    published_at stops advancing (a stalled publisher whose NIC still
//    DMA-serves the last content) accrues a fail streak and is evicted
//    from the ring via membership.leave — every survivor's ownership
//    filter is recomputed before its next poll round. Note the fault
//    model: inject_freeze parks inbound SOCKET packets only, while
//    one-sided ops bypass the host CPU at both ends — a frozen front
//    end keeps monitoring unimpaired under the RDMA schemes (the
//    paper's core claim), so "the owner died" means inject_crash;
//  - a back end whose record's evidence is older than the staleness
//    bound counts a strike against that BACK END through
//    LoadBalancer::note_stale, feeding the Suspect/Dead ladder;
//  - a front end that takes over a shard resets the detector of its new
//    back ends (LoadBalancer::reset_health) so dead-probe throttling
//    cannot delay the takeover polls.
//
// Self-isolation guard: a front end only evicts peers while its OWN
// shard refreshes (polls or consumed pushes) are succeeding (or it owns
// nothing) — if everything looks
// dead, the sane conclusion is that WE are the partitioned one, so we
// hold our tongue until connectivity proves otherwise. A front end that
// finds itself evicted rejoins on its first successful peer read.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "cluster/ring.hpp"
#include "lb/balancer.hpp"
#include "monitor/monitor.hpp"
#include "net/fabric.hpp"
#include "net/verbs.hpp"
#include "os/node.hpp"
#include "reconfig/membership.hpp"
#include "telemetry/registry.hpp"

namespace rdmamon::cluster {

/// What one front end publishes through its registered view MR, built
/// into the region at the DMA instant by its hook: this header, then
/// `count` ShardViewEntry records in back-end order. A publisher whose
/// poller has stalled keeps serving — published_at stops advancing,
/// which is what peers key on.
struct ShardViewHeader {
  int frontend = -1;
  std::uint32_t count = 0;  ///< entries following the header
  std::uint64_t round = 0;  ///< poll rounds the publisher has finished
  std::uint64_t membership_epoch = 0;
  sim::TimePoint published_at{};  ///< end of the publisher's last round
};
/// The peer record of one back end the publisher owns at the DMA instant:
/// what gossip ingest reads of the balancer's record, nothing more.
using ShardViewEntry = lb::PeerRecord;
static_assert(std::is_trivially_copyable_v<ShardViewHeader>);

/// Bytes a view READ of a shard of `owned` back ends asks for.
constexpr std::size_t view_read_bytes(int owned) {
  return sizeof(ShardViewHeader) +
         static_cast<std::size_t>(owned) * sizeof(ShardViewEntry);
}

struct ScaleOutConfig {
  /// Gossip pause: a front end sleeps this long between the end of one
  /// round of view READs (every peer in turn) and the start of the next,
  /// the sleep's end rounded up to the scheduler tick — the discipline
  /// the balancer's poller keeps between poll rounds. A round recurs
  /// every pause plus its READ time plus the rounding: at a 1 ms tick,
  /// 25 ms makes a round about every 26 ms, not every 25.
  /// A peer is evicted after kPeerDeadAfter (scaleout.cpp) failed or stale
  /// view reads in a row, and (kPeerDeadAfter - 1) gossip periods is the
  /// freshness an evictor's own-shard evidence must show (may_evict);
  /// keep the balancer's poll round shorter than that window or no front
  /// end can ever evict.
  sim::Duration gossip_period = sim::msec(25);
  /// Deadline of one peer-view READ.
  sim::Duration read_timeout = sim::msec(10);
  /// A non-owned back end unseen for longer than this takes a staleness
  /// strike per bound elapsed; a peer whose published view is older than
  /// this counts as failed even when the READ itself succeeds.
  sim::Duration staleness_bound = sim::msec(200);
  RingConfig ring;

  /// Verbs-layer tuning applied to every front end's monitoring channels
  /// and scatter CQ: signal-every-k, inflight windows, DCT-style shared
  /// contexts, CQ notification moderation (net::VerbsTuning). Defaults
  /// reproduce the historical one-context-per-channel, signal-everything
  /// behaviour byte-for-byte.
  net::VerbsTuning verbs;

  /// Refresh strategy (monitor/inbox.hpp). The default Pull keeps the
  /// plane on classic polling — no inboxes, no publishers, behaviour
  /// byte-identical to before push existed. Push/Adaptive gives every
  /// front end an N-slot inbox and every back end one publisher aimed at
  /// its CURRENT ring owner's inbox (slot index = back-end index), quiet
  /// while that owner's pulled bit for it is set.
  lb::PushPollConfig push;
};

class ScaleOutPlane;

/// One front end's half of the plane: its balancer (poll-filtered to
/// its shard), its published view, and its gossip loop.
class FrontendPlane {
 public:
  FrontendPlane(ScaleOutPlane& plane, os::Node& node, int id,
                lb::WeightConfig weights);

  FrontendPlane(const FrontendPlane&) = delete;
  FrontendPlane& operator=(const FrontendPlane&) = delete;

  lb::LoadBalancer& balancer() { return lb_; }
  os::Node& node() { return *node_; }
  int id() const { return id_; }

  /// The header of the view peers READ, as a READ now would see it.
  ShardViewHeader view() const;
  net::MrKey view_mr_key() const { return view_mr_; }

  /// This front end's push inbox (null under strategy Pull).
  monitor::PushInbox* inbox() { return inbox_.get(); }

  /// Graceful departure (drain, maintenance): leaves the ring AND stops
  /// the gossip loop from auto-rejoining. Peers take the shard over at
  /// their next poll round. Distinct from being evicted: an evicted
  /// front end still wants membership and rejoins on its first
  /// successful peer read.
  void leave(const std::string& reason = "drain");
  /// Re-enters after a graceful leave().
  void rejoin(const std::string& reason = "rejoin");

  /// Kills this front end's monitoring threads in place (poller, inbox
  /// scanner, gossip): the host stays attached and its NIC keeps
  /// DMA-serving the view MR, but neither published_at nor any record's
  /// evidence advances. Models a hung monitoring process (SIGSTOP,
  /// livelock) — which inject_freeze cannot express, since a frozen
  /// node's threads keep being scheduled — and is the trigger for the
  /// peers' stale-view eviction path.
  void stall();

  /// Back ends this front end currently owns on the ring.
  int owned_count() const;
  /// Oldest evidence instant of any back end owned by OTHER members (how
  /// far behind this front end's picture of foreign shards is). Zero
  /// when every back end is ours.
  sim::Duration max_peer_view_age() const;

  // --- counters (for tests and the scale bench) ---------------------------
  /// Local refreshes per back end: the poll rounds that targeted it plus,
  /// under push, the pushes consumed from its inbox slot.
  std::vector<std::uint64_t> poll_counts() const;
  std::uint64_t gossip_reads_ok() const { return gossip_ok_; }
  std::uint64_t gossip_reads_failed() const { return gossip_fail_; }
  /// Wire footprint of every view READ posted (net::rdma_footprint of
  /// each READ's length), failed ones included.
  std::uint64_t gossip_wire_bytes() const { return gossip_bytes_; }
  std::uint64_t stale_marks() const { return stale_marks_; }
  std::uint64_t evictions() const { return evictions_; }
  std::uint64_t takeovers() const { return takeovers_; }
  std::uint64_t rejoins() const { return rejoins_; }

 private:
  friend class ScaleOutPlane;

  /// Called by ScaleOutPlane::start: channels, filter, view MR, gossip.
  void wire(sim::Duration granularity);
  void on_round();
  void on_membership_change();
  os::Program gossip_body(os::SimThread& self);
  /// The view MR's DMA hook: writes the view into view_image_ and
  /// returns its live prefix.
  std::span<std::byte> build_view();
  /// Ingests the entries of a peer's view image that fall within the
  /// READ's `len` bytes; returns its header.
  ShardViewHeader process_view(const sim::ByteBlock& image, std::size_t len);
  bool may_evict() const;

  ScaleOutPlane* plane_;
  os::Node* node_;
  int id_;
  lb::LoadBalancer lb_;
  bool wants_membership_ = true;  ///< false after a graceful leave()

  std::uint64_t round_ = 0;         ///< ShardViewHeader::round
  sim::TimePoint published_at_{};  ///< ShardViewHeader::published_at
  /// The view MR's bytes: room for the header and an entry per back end.
  std::vector<std::byte> view_image_;
  net::MrKey view_mr_{};
  std::unique_ptr<monitor::PushInbox> inbox_;  ///< strategy != Pull only

  os::SimThread* gossip_thread_ = nullptr;
  net::CompletionQueue gossip_cq_;
  std::vector<std::unique_ptr<net::QueuePair>> peer_qps_;  ///< by peer id
  std::vector<int> gossip_members_;  ///< this gossip round's member list
  std::vector<int> peer_fail_;            ///< consecutive bad view reads
  std::vector<int> owned_by_;             ///< last seen owner per back end
  std::vector<sim::TimePoint> last_strike_;  ///< latest staleness strike

  std::uint64_t gossip_ok_ = 0;
  std::uint64_t gossip_fail_ = 0;
  std::uint64_t gossip_bytes_ = 0;
  std::uint64_t stale_marks_ = 0;
  std::uint64_t evictions_ = 0;
  std::uint64_t takeovers_ = 0;
  std::uint64_t rejoins_ = 0;

  telemetry::Registry* reg_ = nullptr;
  telemetry::Counter* m_gossip_ok_ = nullptr;
  telemetry::Counter* m_gossip_fail_ = nullptr;
  telemetry::Counter* m_stale_ = nullptr;
  telemetry::Counter* m_evict_ = nullptr;
  telemetry::ScopedCollector collector_;
  /// The membership flight ring.
  telemetry::FlightRing* fr_ = nullptr;
};

/// The whole plane: shared back-end monitors, the membership ring, and
/// one FrontendPlane per front end. Wiring order: add_backend /
/// add_frontend freely, configure each FrontendPlane's balancer, then
/// start() once.
class ScaleOutPlane {
 public:
  ScaleOutPlane(net::Fabric& fabric, ScaleOutConfig cfg,
                monitor::MonitorConfig mcfg);
  ~ScaleOutPlane();

  ScaleOutPlane(const ScaleOutPlane&) = delete;
  ScaleOutPlane& operator=(const ScaleOutPlane&) = delete;

  /// Registers a back end: creates its ONE shared BackendMonitor (one
  /// daemon set / one registered MR total, however many front ends
  /// attach). Returns the back-end index.
  int add_backend(os::Node& node);

  /// Registers a front end; its id is the creation index.
  FrontendPlane& add_frontend(os::Node& node, lb::WeightConfig weights);

  /// Bootstraps membership (all front ends join), wires every front
  /// end's channels against the shared back-end monitors, and starts
  /// the balancer pollers and gossip loops.
  void start(sim::Duration granularity);

  int backend_count() const {
    return static_cast<int>(backend_monitors_.size());
  }
  int frontend_count() const { return static_cast<int>(frontends_.size()); }
  FrontendPlane& frontend(int i) {
    return *frontends_[static_cast<std::size_t>(i)];
  }
  monitor::BackendMonitor& backend_monitor(int i) {
    return *backend_monitors_[static_cast<std::size_t>(i)];
  }
  reconfig::FrontendMembership& membership() { return membership_; }
  int owner_of(int backend) const { return membership_.owner_of(backend); }

  bool push_enabled() const {
    return cfg_.push.strategy != monitor::MonitorStrategy::Pull;
  }
  /// Back end `b`'s publisher (started by start(); strategy != Pull only).
  monitor::PushPublisher& publisher(int b) {
    return *publishers_[static_cast<std::size_t>(b)];
  }

  net::Fabric& fabric() { return *fabric_; }
  const ScaleOutConfig& config() const { return cfg_; }

 private:
  friend class FrontendPlane;

  /// Re-aims every publisher at its back end's slot in the current ring
  /// owner's inbox, whose pulled bit the owner's balancer keeps, so the
  /// publisher follows that owner's mode switches on its own.
  /// Runs inside the membership change hook — omniscient wiring (the
  /// real protocol would gossip the new owner's inbox rkey to the back
  /// ends; the plane already knows it), same simplification as the
  /// plane's direct channel wiring. A publisher whose owner is unchanged
  /// is untouched (PushPublisher::target no-ops on an identical target).
  void retarget_publishers();

  net::Fabric* fabric_;
  ScaleOutConfig cfg_;
  monitor::MonitorConfig mcfg_;
  reconfig::FrontendMembership membership_;
  std::vector<std::unique_ptr<monitor::BackendMonitor>> backend_monitors_;
  std::vector<std::unique_ptr<monitor::PushPublisher>> publishers_;
  std::vector<std::unique_ptr<FrontendPlane>> frontends_;
  bool started_ = false;
};

}  // namespace rdmamon::cluster
