// ibverbs-style one-sided primitives: memory regions, RC queue pairs and
// completion queues. The semantics the paper exploits are preserved:
//
//  - RDMA READ is serviced entirely by the target NIC's DMA engine; no
//    target thread runs, no interrupt fires, no scheduler is involved.
//  - A registered region is a byte image its registrant owns, plus an
//    optional hook that runs at the DMA instant. A READ returns the
//    image's bytes *at the DMA service instant* (the hook fills in
//    lazily computed fields first); a WRITE lands its bytes then.
//  - Regions registered read-only reject remote writes with a protection
//    error — the paper's Section 6 security argument.
//
// On top of the basic primitives sits the verbs fast path used at scale
// (rdmaperf's -cq_mod / -tx knobs, RDMAvisor's shared connections):
//
//  - selective signaling: a QpContext posting with signal_every = k marks
//    only every k-th WR signaled; an unsignaled WR that SUCCEEDS raises no
//    CQE (its data still lands) and is proven complete by the next
//    signaled/error completion on the same context (RC ordering). Error
//    completions always surface immediately.
//  - completion coalescing: a CQ bound to a moderation config batches its
//    wait-queue notifications (count or period, errors flush), so one
//    consumer wakeup drains many completions.
//  - inflight windows: a QpContext with send_depth > 0 defers posts past
//    the window and drains them as completions free slots (backpressure
//    instead of unbounded send queues).
//  - shared contexts: many QueuePairs may post through ONE QpContext
//    (DCT-style multiplexing) so a front end watching thousands of back
//    ends occupies a handful of NIC context-cache entries instead of
//    thrashing it (see net/qpcache.hpp).
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "net/qos.hpp"
#include "os/program.hpp"
#include "os/wait.hpp"
#include "sim/fifo.hpp"
#include "sim/byte_block.hpp"
#include "sim/inline_fn.hpp"
#include "sim/simulation.hpp"
#include "sim/time.hpp"

namespace rdmamon::net {

class Nic;
struct ReadBatchEntry;

/// User-space cost of ringing the doorbell for one post (or one merged
/// batch of posts — the RDMAbox-style amortisation the scatter engine
/// exploits).
inline constexpr sim::Duration kDoorbellCost = sim::nsec(300);

/// Verbs fast-path knobs, carried from ScaleOutConfig (or a bench's own
/// wiring) down to the code that creates contexts and CQs. The defaults
/// reproduce the historical behaviour exactly: every WR signaled, every
/// completion notified immediately, unbounded send queues, one dedicated
/// context per QueuePair.
struct VerbsTuning {
  /// Signal every k-th WR (rdmaperf -cq_mod). 1 = all signaled.
  int signal_every = 1;
  /// Per-context inflight window (rdmaperf -tx). 0 = unbounded.
  std::size_t send_depth = 0;
  /// DCT-style shared contexts per front end: monitoring QPs round-robin
  /// over this many QpContexts instead of each owning one. 0 = dedicated.
  int shared_contexts = 0;
  /// CQ notification moderation: wake the consumer only per this many
  /// surfaced completions (1 = immediate), or kCqModPeriod after the first
  /// held notification.
  int cq_mod_count = 1;
};

/// Moderation flush period: a partial batch of held CQ notifications
/// wakes the consumer this long after the first of them.
inline constexpr sim::Duration kCqModPeriod = sim::usec(16);

/// Remote key naming a registered memory region on some node's NIC.
struct MrKey {
  std::uint32_t key = 0;
};

/// One-sided opcode (ibv_wr_opcode).
enum class Verb : std::uint8_t { Read, Write };

/// The bytes of a trivially copyable object: a region's image
/// (register_mr) or a WRITE's payload (WorkRequest::payload). Every
/// struct that crosses a region is trivially copyable, and this is where
/// that is checked. Temporaries are refused — the span would dangle.
template <typename T>
std::span<std::byte> bytes_of(T& obj) {
  static_assert(std::is_trivially_copyable_v<T>,
                "a registered region holds plain bytes");
  return std::as_writable_bytes(std::span<T, 1>(&obj, 1));
}
template <typename T>
std::span<const std::byte> bytes_of(const T& obj) {
  static_assert(std::is_trivially_copyable_v<T>,
                "a registered region holds plain bytes");
  return std::as_bytes(std::span<const T, 1>(&obj, 1));
}
template <typename T>
void bytes_of(const T&&) = delete;

/// One work request (ibv_send_wr): the single record every post carries
/// from QueuePair::post down to the NIC. `len` is what the op costs on
/// the wire and at the DMA engine; it is not what is copied. A READ
/// returns the region's image from `offset` on; a WRITE lands `payload`
/// at `offset`. The payload is the caller's bytes, copied by the target
/// NIC at the DMA instant, as an ibverbs WRITE without IBV_SEND_INLINE
/// reads its local buffer: they must stay valid, and should stay
/// unchanged, until the op completes, even when its wr_id is forgotten
/// (the op still runs). A WRITE lands what they hold at the DMA instant.
struct WorkRequest {
  Verb verb = Verb::Read;
  MrKey rkey;
  std::size_t len = 0;
  std::uint64_t wr_id = 0;
  std::size_t offset = 0;
  std::span<const std::byte> payload{};
};

/// Runs at the DMA instant of an op on a region, on the target: before a
/// READ copies the image (to fill in lazily computed fields; it may
/// re-point `image`, e.g. to the live prefix of a variable-length view),
/// and after a WRITE landed in it. It must not post on the initiating
/// NIC.
using DmaHook = sim::InlineFunction<void(Verb, std::span<std::byte>& image)>;

/// Registered memory region: a byte image its registrant owns and keeps
/// alive until deregister_mr, plus the optional DMA-instant hook.
struct MemoryRegion {
  std::uint32_t rkey = 0;
  std::span<std::byte> image;
  bool remote_writable = false;
  /// Registering tenant: the owner a cached MR entry's eviction is
  /// attributed to (0 = system plane).
  TenantId tenant = 0;
  DmaHook on_dma;
};

enum class WcStatus {
  Success,
  ProtectionError,  ///< write to a read-only region, or past its end
  InvalidKey,       ///< no such rkey at the target
  RetryExceeded,    ///< RC retransmit budget spent (lost packet / dead peer)
};

/// Work completion delivered to the initiator's CQ.
struct Completion {
  std::uint64_t wr_id = 0;
  WcStatus status = WcStatus::Success;
  Verb verb = Verb::Read;     ///< the completed WR's opcode (ibv_wc.opcode)
  /// READ: the region's bytes at the DMA instant, from the WR's offset
  /// on; read them with data.as<T>().
  sim::ByteBlock data{};
  sim::TimePoint posted{};    ///< when the WR was posted
  sim::TimePoint completed{}; ///< when the completion arrived
};

/// Completion queue with a blocking wait channel. A real verbs consumer
/// would poll; blocking on the wait queue models the same latency without
/// burning simulated front-end CPU (documented simplification).
///
/// Several QPs may share one CQ (the scatter engine's shared-CQ demux):
/// consumers match completions by wr_id, with ids handed out by
/// alloc_wr_id() so they are unique per CQ. Stale-completion handling is
/// centralized here — a consumer that gives up on a WR calls forget() and
/// the CQ drops that completion whether it is already queued, still in
/// flight, or held unsignaled in a context's shadow buffer, so no caller
/// ever needs its own discard loop.
///
/// Selective signaling: QpContexts deliver through deliver(), which holds
/// an unsignaled SUCCESS in a per-context shadow buffer (no CQE, no
/// notification) until a later signaled or error completion on the same
/// context proves — by RC in-order execution — that it retired; then the
/// shadowed data surfaces for the consumer in post order. Errors always
/// surface immediately. Consumers are unaffected: try_pop/pop see
/// surfaced completions only.
class CompletionQueue {
 public:
  CompletionQueue() = default;
  ~CompletionQueue();
  CompletionQueue(const CompletionQueue&) = delete;
  CompletionQueue& operator=(const CompletionQueue&) = delete;

  /// Delivery from a QpContext: `seq` is the WR's per-context post
  /// sequence, `signaled` whether it carries a CQE.
  void deliver(std::uint64_t ctx, std::uint64_t seq, bool signaled,
               Completion c);

  /// Enables notification moderation (VerbsTuning::cq_mod_count): wait-queue
  /// wakeups are batched per `count` surfaced completions, with a timer
  /// flushing a partial batch after `period`. Errors flush immediately.
  /// Call before completions flow; `simu` drives the flush timer.
  void bind_moderation(sim::Simulation& simu, int count, sim::Duration period);

  bool empty() const { return q_.empty(); }
  std::size_t size() const { return q_.size(); }
  Completion pop() { return q_.take_front(); }

  /// Monotonic work-request id source. A CQ shared by many QPs hands out
  /// CQ-unique ids, so one drain loop can demux all consumers' completions
  /// by wr_id alone.
  std::uint64_t alloc_wr_id() { return next_wr_id_++; }

  /// Filtered pop: removes and returns the completion matching `wr_id`,
  /// leaving other consumers' completions queued. False if not arrived.
  bool try_pop(std::uint64_t wr_id, Completion& out);

  /// Abandons a WR (e.g. its deadline passed): a queued completion with
  /// this id is dropped now; one held unsignaled in a shadow buffer is
  /// reclaimed now; one still in flight is dropped when it lands. The RC
  /// fabric always produces exactly one completion per WR, so every
  /// forgotten id is eventually reclaimed — including unsignaled WRs
  /// abandoned mid-window, which must not leak their shadow slot.
  void forget(std::uint64_t wr_id);

  os::WaitQueue& wait_queue() { return wq_; }

  // --- introspection (exported through the telemetry plane) ----------------
  /// Completions delivered by the fabric (including ones dropped stale and
  /// unsignaled ones held in shadow).
  std::uint64_t completions_pushed() const { return pushed_; }
  /// forget() calls (attempts abandoned past their deadline).
  std::uint64_t forgets() const { return forgets_; }
  /// Forgotten-WR completions discarded (on arrival, queued, or shadowed).
  std::uint64_t stale_dropped() const { return stale_dropped_; }
  /// CQEs that surfaced carrying a signal (the ~N/k of a moderated round).
  std::uint64_t cqes_signaled() const { return cqes_signaled_; }
  /// Unsignaled successes retired via a later closer's CQE.
  std::uint64_t unsignaled_retired() const { return unsignaled_retired_; }
  /// Wait-queue notification batches fired.
  std::uint64_t notifies() const { return notifies_; }
  /// Notification batches that covered more than one completion — polls
  /// the consumer saved relative to signal-everything.
  std::uint64_t coalesced_polls() const { return coalesced_polls_; }
  /// Unsignaled successes currently held awaiting a closer.
  std::size_t shadowed() const { return shadow_count_; }

 private:
  struct Shadowed {
    std::uint64_t seq = 0;
    Completion c;
  };
  struct CtxState {
    sim::Fifo<Shadowed> shadow;      ///< unsignaled successes, post order
    std::uint64_t released_upto = 0; ///< every seq below is proven retired
  };

  /// Surfaces earlier shadowed successes of `st` proven complete by a CQE
  /// with sequence `upto` (exclusive).
  void release_shadows(CtxState& st, std::uint64_t upto);
  /// One completion surfaced into q_: apply the notification policy.
  void note_surfaced(bool urgent);
  void fire_notify();
  /// True, and `wr_id` no longer forgotten, if it was forgotten in flight.
  bool unforget(std::uint64_t wr_id);

  sim::Fifo<Completion> q_;
  /// Ids forgotten while in flight, dropped when they land. Unordered and
  /// short (one per abandoned attempt); the vector keeps its capacity, so
  /// a warm forget allocates nothing.
  std::vector<std::uint64_t> forgotten_;
  std::unordered_map<std::uint64_t, CtxState> ctxs_;
  std::uint64_t next_wr_id_ = 1;
  std::uint64_t pushed_ = 0;
  std::uint64_t forgets_ = 0;
  std::uint64_t stale_dropped_ = 0;
  std::uint64_t cqes_signaled_ = 0;
  std::uint64_t unsignaled_retired_ = 0;
  std::uint64_t notifies_ = 0;
  std::uint64_t coalesced_polls_ = 0;
  std::size_t shadow_count_ = 0;
  // Notification moderation (bind_moderation; defaults = immediate).
  sim::Simulation* simu_ = nullptr;
  int mod_count_ = 1;
  sim::Duration mod_period_{};
  sim::EventHandle mod_timer_;
  bool mod_timer_armed_ = false;
  int since_fire_ = 0;  ///< surfaced completions since the last wakeup
  os::WaitQueue wq_;
};

/// NIC-resident connection context: the send queue a QueuePair posts
/// through, carrying the signal-every-k policy, the inflight window, and
/// the identity the NIC's context cache is keyed on. One per QueuePair by
/// default (dedicated RC); share one across many QueuePairs for DCT-style
/// multiplexing. Always hold via shared_ptr (completions keep it alive).
class QpContext : public std::enable_shared_from_this<QpContext> {
 public:
  explicit QpContext(Nic& local, int signal_every = 1,
                     std::size_t send_depth = 0);

  /// Posts `wr` through this context to `target_node`, completing into
  /// `cq`. A WRITE's payload is read at its DMA instant, also when the
  /// window defers the post. `force_signal` overrides the every-k policy
  /// (chain closers, solitary posts a consumer synchronously waits on).
  /// WRITEs are always signaled (the publishers that use them are
  /// completion-driven).
  void post(int target_node, const WorkRequest& wr, CompletionQueue& cq,
            bool force_signal);

  /// The NIC this context posts through.
  Nic& nic() { return *local_; }

  /// NIC context-cache identity (nonzero; allocated by the local NIC).
  std::uint64_t ctx_id() const { return ctx_id_; }
  int signal_every() const { return signal_every_; }
  std::size_t send_depth() const { return send_depth_; }

  /// Tenant identity stamped on every WR this context posts (fabric QoS
  /// arbitration + context-cache eviction attribution). Default 0: the
  /// system plane.
  void set_tenant(TenantId t) { tenant_ = t; }
  TenantId tenant() const { return tenant_; }

  // --- introspection --------------------------------------------------------
  std::size_t inflight() const { return inflight_; }
  std::size_t deferred_pending() const { return deferred_.size(); }
  std::uint64_t unsignaled_posted() const { return unsignaled_; }
  /// Posts that hit the window and waited for a free slot.
  std::uint64_t deferred_total() const { return deferred_total_; }

 private:
  struct Pending {
    int target = -1;
    WorkRequest wr;
    CompletionQueue* cq = nullptr;
    bool force_signal = true;
  };

  void launch(Pending p);

  Nic* local_;
  std::uint64_t ctx_id_;
  int signal_every_;
  std::size_t send_depth_;
  TenantId tenant_ = 0;
  std::uint64_t seq_ = 0;      ///< per-context post sequence (launch order)
  std::size_t inflight_ = 0;
  sim::Fifo<Pending> deferred_;
  std::uint64_t unsignaled_ = 0;
  std::uint64_t deferred_total_ = 0;

  /// Set by post_read_batch: index of this context's last entry in the
  /// batch being posted.
  std::size_t batch_last_ = 0;
  friend os::Program post_read_batch(os::SimThread& self,
                                     const std::vector<ReadBatchEntry>& batch);
};

/// Reliable-connected queue pair from a local NIC to a remote node. Posts
/// flow through its QpContext — a private one by default, or a shared one
/// passed at construction (DCT-style multiplexing; the context's NIC must
/// be the same `local`).
class QueuePair {
 public:
  QueuePair(Nic& local, int remote_node, CompletionQueue& cq,
            std::shared_ptr<QpContext> ctx = nullptr);
  /// An unbound QP: it holds its context (created now, so context ids
  /// follow construction order) but posts nothing until bind_cq.
  explicit QueuePair(Nic& local, int remote_node,
                     std::shared_ptr<QpContext> ctx = nullptr);

  /// Posts a one-sided READ or WRITE against the remote region `wr.rkey`.
  /// The completion (a READ's with the sampled data) lands in the CQ.
  /// `force_signal` defaults true: a solitary post must carry its own CQE
  /// or a waiting consumer would hang; batched posts pass false and let
  /// the context's signal-every-k policy decide (the batch closer is
  /// forced).
  void post(const WorkRequest& wr, bool force_signal = true);

  /// Points this QP's completions at `cq` (e.g. an engine's shared CQ).
  /// Must not be called with WRs in flight.
  void bind_cq(CompletionQueue& cq) { cq_ = &cq; }

  /// Convenience: stamps this QP's context with a tenant identity (a
  /// shared context is stamped for all its QPs — they belong to one
  /// tenant by construction in DCT-style wiring).
  void set_tenant(TenantId t) { ctx_->set_tenant(t); }

  int remote_node() const { return remote_node_; }
  CompletionQueue& cq() {
    assert(cq_ != nullptr && "QueuePair has no CQ: bind_cq first");
    return *cq_;
  }
  QpContext& context() { return *ctx_; }
  const QpContext& context() const { return *ctx_; }

 private:
  int remote_node_;
  CompletionQueue* cq_ = nullptr;  ///< null until bound
  std::shared_ptr<QpContext> ctx_;
};

/// Builds a pool of `tuning.shared_contexts` contexts on `nic` for
/// DCT-style multiplexed wiring (assign QueuePair i the context
/// pool[i % size]). Empty when shared_contexts <= 0 — dedicated mode.
std::vector<std::shared_ptr<QpContext>> make_context_pool(
    Nic& nic, const VerbsTuning& tuning);

/// One entry of a cross-QP scatter batch: a READ on some QP. The QPs may
/// target different remote nodes; sharing one CQ lets a single gatherer
/// drain all their completions.
struct ReadBatchEntry {
  QueuePair* qp = nullptr;
  WorkRequest wr;
};

/// Subprogram: posts every READ in `batch` back-to-back, charging ONE
/// doorbell cost for the lot — the WR-merging trick (RDMAbox) that makes a
/// scatter round's issue phase O(1) in doorbells instead of O(N). The
/// last WR of each distinct QpContext in the batch is force-signaled so
/// every context's chain closes with a CQE; the rest follow the contexts'
/// signal-every-k policy — a round of N READs over shared contexts
/// retires with ~N/k CQEs.
os::Program post_read_batch(os::SimThread& self,
                            const std::vector<ReadBatchEntry>& batch);

/// Subprogram: pays the doorbell, posts `wr` and blocks until ITS
/// completion (matched by wr_id) arrives, storing it in `out`. The
/// canonical front-end monitoring primitive for a READ; a WRITE to a
/// read-only region completes with ProtectionError. A WRITE's payload is
/// read at the DMA instant: a named object in the awaiting coroutine
/// lives long enough without a deadline. With a finite `deadline` the
/// wait gives up at that instant: the WR is abandoned via
/// CompletionQueue::forget — the CQ drops its completion (the fabric
/// always produces one, possibly RetryExceeded) whenever it lands — and
/// `*timed_out` (when given) is set; a WRITE's payload must then outlive
/// the abandoned op.
os::Program rdma_sync(os::SimThread& self, QueuePair& qp, WorkRequest wr,
                      Completion& out, sim::TimePoint deadline = sim::kNever,
                      bool* timed_out = nullptr);

}  // namespace rdmamon::net
