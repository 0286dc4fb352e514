// Push-based monitoring over one-sided RDMA WRITE (ROADMAP item 1): the
// pull model inverted. Each back end WRITEs its load snapshot into its own
// slot of a front-end-registered inbox region; the front end only *scans
// local memory* — no doorbell, no wire round-trip, no back-end reporting
// daemon serving requests.
//
// The trade RFP (PAPERS.md) quantifies: an in-bound READ costs the front
// end a full fabric round-trip per backend per poll whether or not
// anything changed; an out-bound WRITE costs fabric bytes only when the
// *back end* decides the value moved. Below the poll rate's change rate,
// push wins on fabric bytes; above it, pull's fixed budget wins. The
// AdaptiveController (adaptive.hpp) switches per backend on that signal.
//
// Torn/stale-write defence: the writer is a remote DMA engine with no
// locks, so the slot uses a seqlock-style double stamp — `seq` at the
// head, `seq_check` at the tail of the slot image. A reader accepts a slot
// only when both match (untorn) AND the sequence advanced past the last
// consumed one (no time travel from reordered or replayed writes).
//
// Refresh mode: the inbox also keeps one "pulled" bit per slot, beside
// the registered slot images so no WRITE can reach it. The balancer that
// owns the inbox writes it (set while it pulls that back end) and the
// slot's publisher reads it at every check, staying quiet while it is set.
#pragma once

#include <cstdint>
#include <optional>
#include <type_traits>
#include <vector>

#include "monitor/monitor.hpp"
#include "net/fabric.hpp"
#include "net/nic.hpp"
#include "net/verbs.hpp"
#include "os/node.hpp"
#include "telemetry/recorder.hpp"

namespace rdmamon::monitor {

/// Capacities that scale the load components to [0,1]: the balancer's
/// load index (lb::load_index) clamps with them and change_delta below
/// measures movement with them, so a delta threshold is in "index units"
/// on both sides of the wire.
inline constexpr double kNetCapacityBps = 1.25e9;
inline constexpr double kConnCapacity = 128.0;
inline constexpr double kRunqCapacity = 8.0;  ///< runnable threads = saturated

/// Normalised magnitude of the difference between two snapshots: the max
/// over the load-index components, each scaled to [0,1] with the
/// capacities above. This is the shared "did the load move" yardstick of
/// the push trigger (publisher side) and the adaptive controller's
/// change-rate estimate (front-end side) — both sides must agree on it or
/// the controller mispredicts push traffic.
double change_delta(const os::LoadSnapshot& a, const os::LoadSnapshot& b);

/// One inbox slot as it lies in the front end's registered region: the
/// region is the inbox's slot array, and a push is one WRITE of a whole
/// slot image at its slot's offset. The WRITE overwrites the slot blindly
/// — the raw-memory semantics of a real RDMA WRITE; all validation is
/// reader-side.
struct InboxSlot {
  std::uint64_t seq = 0;  ///< seqlock head stamp
  os::LoadSnapshot info;
  sim::TimePoint pushed_at{};  ///< back-end clock at WRITE post
  bool heartbeat = false;      ///< pushed by the heartbeat timer, not a change
  std::uint64_t seq_check = 0; ///< seqlock tail stamp; == seq when untorn
};
static_assert(std::is_trivially_copyable_v<InboxSlot>);

/// Front-end side: one remote-writable MR holding N slots, plus the
/// scanning discipline (seqlock check + consumed-sequence tracking).
class PushInbox {
 public:
  /// Slot image size on the wire (what a push's WRITE is charged).
  static constexpr std::size_t kSlotBytes = 256;

  PushInbox(net::Fabric& fabric, os::Node& frontend, int slots);

  net::MrKey mr_key() const { return key_; }
  int slots() const { return static_cast<int>(slots_.size()); }
  os::Node& node() { return *frontend_; }

  /// What one scan of a slot observed.
  enum class ScanResult {
    Empty,      ///< never written
    Unchanged,  ///< no new sequence since the last consuming scan
    Fresh,      ///< new, untorn image consumed; `out` filled
    Torn,       ///< seq != seq_check: write raced the scan; discarded
    Regressed,  ///< sequence went backwards (reordered/replayed write)
  };

  /// Scans slot `i`. On Fresh, `out` is a successful MonitorSample whose
  /// retrieved_at is now (the scan instant) — staleness then measures the
  /// push pipeline end to end, exactly like a fetched sample would — and
  /// `heartbeat` (if non-null) says whether the image was timer-pushed
  /// rather than change-pushed (the adaptive change-rate estimate needs
  /// the distinction). Torn and Regressed images are never consumed: the
  /// slot's consumed sequence only advances on Fresh, so a later good
  /// write still lands.
  ScanResult scan(int i, MonitorSample& out, bool* heartbeat = nullptr);

  /// Simulated instant of the last Fresh consumption of slot `i` (the
  /// inbox creation time before any). Silence — now minus this exceeding
  /// the publisher's heartbeat bound — is the balancer's cue to fall back
  /// to a verification READ before advancing the health ladder.
  sim::TimePoint last_fresh(int i) const { return last_fresh_[static_cast<std::size_t>(i)]; }

  /// Whether slot `i`'s back end is refreshed by pulling, so its
  /// publisher must not push (clear at construction). Only the owning
  /// balancer writes it: LoadBalancer::enable_push and its adaptive
  /// mode switches. The publisher reads it in place, the same omniscient
  /// wiring as PushPublisher::target (a real back end would be told by a
  /// control message, which is not modelled).
  bool pulled(int i) const { return pulled_[static_cast<std::size_t>(i)]; }
  void set_pulled(int i, bool pulled) {
    pulled_[static_cast<std::size_t>(i)] = pulled;
  }

  // --- introspection --------------------------------------------------------
  std::uint64_t writes_applied() const { return writes_applied_; }
  std::uint64_t fresh() const { return fresh_; }
  std::uint64_t torn() const { return torn_; }
  std::uint64_t regressed() const { return regressed_; }

  /// Test hook: plants a raw slot image (e.g. a deliberately torn one —
  /// the fault the seqlock exists for, which the in-order simulated fabric
  /// never produces on its own).
  void poke(int i, const InboxSlot& s) { slots_[static_cast<std::size_t>(i)] = s; }

 private:
  os::Node* frontend_;
  net::MrKey key_{};
  std::vector<InboxSlot> slots_;
  std::vector<std::uint64_t> consumed_;   ///< last consumed seq per slot
  std::vector<sim::TimePoint> last_fresh_;
  std::vector<bool> pulled_;  ///< not registered: no WRITE reaches it
  std::uint64_t writes_applied_ = 0;
  std::uint64_t fresh_ = 0;
  std::uint64_t torn_ = 0;
  std::uint64_t regressed_ = 0;
  /// Flight ring for consumed/rejected slot images ("inbox.<frontend>");
  /// Empty/Unchanged scans are NOT recorded — they would drown the
  /// interesting history at scanner rates.
  telemetry::FlightRing* fr_ = nullptr;
};

/// Back-end side: a daemon that samples /proc every kCheckPeriod and
/// RDMA-WRITEs the snapshot into its inbox slot when it moved by more than
/// kChangeThreshold (rate-limited by kMinInterval) or the kHeartbeat
/// heartbeat is due. At most one WRITE in flight, so sequence numbers
/// arrive in order on the in-order RC fabric, and that WRITE's source is
/// the publisher's own slot image, read by the target NIC at the DMA
/// instant: a push allocates nothing. The publisher must outlive its
/// last WRITE, as it must for the CQ that WRITE completes into.
///
/// Failure semantics mirror the pull schemes': a crashed peer (or this
/// node itself crashed — the crashed-initiator case) error-completes the
/// WRITE with RetryExceeded after the retry timeout; the publisher absorbs
/// the error, drops its change baseline (so the next decision pushes
/// unconditionally) and keeps going. InvalidKey (inbox deregistered, e.g.
/// mid shard handoff) is counted separately and handled the same way —
/// retargeting installs the new inbox.
class PushPublisher {
 public:
  /// How often the daemon wakes to sample /proc and decide.
  static constexpr sim::Duration kCheckPeriod = sim::msec(5);
  /// Floor between change-triggered pushes (burst damping).
  static constexpr sim::Duration kMinInterval = sim::msec(5);
  /// Heartbeat ceiling: a push goes out at least this often even with no
  /// change, so inbox silence is a bounded-delay death signal.
  static constexpr sim::Duration kHeartbeat = sim::msec(100);
  /// change_delta() vs the last pushed snapshot that triggers a push.
  static constexpr double kChangeThreshold = 0.05;

  PushPublisher(net::Fabric& fabric, os::Node& backend);

  /// Points this publisher at `slot` of `inbox`, which must outlive the
  /// daemon. May be called again later (shard migration): the next
  /// decision pushes to the new owner unconditionally.
  ///
  /// At each check the daemon reads the slot's pulled bit and pushes
  /// nothing while it is set (it keeps reaping completions). Seeing the
  /// bit clear after having seen it set drops the change baseline, so
  /// data flows again at that very check.
  void target(PushInbox& inbox, int slot);

  /// Spawns the publisher daemon (idempotent).
  void start();

  // --- introspection --------------------------------------------------------
  std::uint64_t pushes() const { return pushes_; }
  std::uint64_t heartbeats() const { return heartbeats_; }
  std::uint64_t errors() const { return errors_; }
  std::uint64_t invalid_key() const { return invalid_key_; }

 private:
  os::Program body(os::SimThread& self);

  net::Fabric* fabric_;
  os::Node* backend_;
  net::CompletionQueue cq_;
  std::optional<net::QueuePair> qp_;
  PushInbox* inbox_ = nullptr;  ///< not owned
  int slot_ = -1;
  os::SimThread* thread_ = nullptr;
  std::uint64_t seq_ = 0;
  bool saw_pulled_ = false;  ///< the pulled bit at the last check
  bool in_flight_ = false;
  bool has_baseline_ = false;
  bool has_pushed_ = false;
  /// The in-flight WRITE's source; rewritten only once it completed.
  InboxSlot image_;
  os::LoadSnapshot baseline_;
  sim::TimePoint last_push_{};
  std::uint64_t pushes_ = 0;
  std::uint64_t heartbeats_ = 0;
  std::uint64_t errors_ = 0;
  std::uint64_t invalid_key_ = 0;
};

}  // namespace rdmamon::monitor
