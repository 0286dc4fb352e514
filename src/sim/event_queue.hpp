// Cancellable time-ordered event queue: the heart of the DES kernel.
//
// Zero-allocation steady state. Event records are slab-pooled intrusive
// nodes recycled through a free list — scheduling an event performs no
// heap allocation once the pool is warm (callbacks that fit InlineFn's
// inline buffer included). Handles are plain {slot, generation} values,
// so cancel()/pending() need no refcounting.
//
// Near-future events — the NIC/socket delays, scheduler quanta and retry
// backoffs that dominate every run — live in a 3-level hierarchical timer
// wheel (1.024us ticks, 256 slots per level, ~17.6s total span) with
// per-level occupancy bitmaps; only far-future events overflow into a
// binary heap. Scheduling and cancellation are O(1): a wheel-resident
// event unlinks from its slot list immediately, while heap- and
// ready-resident events are tombstoned and lazily swept at pop time
// (observable via cancelled_pending() and the `sim_events_tombstoned`
// telemetry gauge).
//
// Ordering is exactly the seed kernel's: events fire by (time, insertion
// sequence), so ties at one timestamp fire in insertion order and every
// simulated figure is bit-identical to the heap-only implementation.
#pragma once

#include <cstdint>
#include <memory>
#include <queue>
#include <vector>

#include "sim/inline_fn.hpp"
#include "sim/time.hpp"

namespace rdmamon::sim {

class EventQueue;

/// Handle to a scheduled event; lets the owner cancel it before it fires.
/// Copyable; all copies refer to the same event. A default-constructed
/// handle refers to nothing and is inert. A handle is a {slot, generation}
/// ticket into the queue's node pool: once the event fires or is
/// cancelled the slot's generation advances and every outstanding copy
/// goes inert automatically. Handles must not outlive their EventQueue.
class EventHandle {
 public:
  EventHandle() = default;

  /// Cancels the event if it has not fired yet. Idempotent, O(1).
  void cancel();

  /// True if the event is still scheduled (not fired, not cancelled).
  bool pending() const;

 private:
  friend class EventQueue;
  EventHandle(EventQueue* q, std::uint32_t slot, std::uint32_t gen)
      : queue_(q), slot_(slot), gen_(gen) {}
  EventQueue* queue_ = nullptr;
  std::uint32_t slot_ = 0;
  std::uint32_t gen_ = 0;
};

/// Timer-wheel + overflow-heap event queue. Ties at the same timestamp
/// fire in insertion order, which keeps runs deterministic.
class EventQueue {
 public:
  using Callback = InlineFn;

  EventQueue();

  /// Schedules `fn` to fire at absolute time `when`. `when` may equal the
  /// current pop time (fires after already-popped events at that instant)
  /// but must never be in the past relative to the last popped event; the
  /// Simulation wrapper enforces that.
  EventHandle schedule(TimePoint when, Callback fn);

  /// True if no live (non-cancelled) event remains.
  bool empty() const { return live_ == 0; }

  /// Timestamp of the earliest live event; undefined when empty().
  /// Non-const: peeking sweeps tombstones and advances the wheel cursor
  /// (observable only through cancelled_pending()).
  TimePoint next_time();

  /// Pops and runs the earliest live event; returns its timestamp.
  /// Precondition: !empty().
  TimePoint pop_and_run();

  /// Number of live events currently queued (cancelled events leave this
  /// count immediately, even while their tombstone awaits the lazy sweep).
  std::size_t size() const { return live_; }

  /// Total events ever executed. Cancelled events are never counted here:
  /// a schedule/cancel pair (the timeout-armed-but-never-hit pattern) is
  /// "forgotten" work, visible only through cancelled_total().
  std::uint64_t executed() const { return executed_; }

  /// Cancelled entries still occupying a pool slot until the lazy sweep
  /// reaps them (heap- or ready-resident tombstones). Wheel-resident
  /// events unlink eagerly and never appear here. Exported as the
  /// `sim_events_tombstoned` telemetry gauge.
  std::size_t cancelled_pending() const { return tombstoned_; }

  /// Total cancellations ever observed (fired events cannot be cancelled).
  std::uint64_t cancelled_total() const { return cancelled_total_; }

 private:
  friend class EventHandle;

  // --- geometry -------------------------------------------------------------
  static constexpr int kTickBits = 10;  ///< 1 tick = 1.024us
  static constexpr int kSlotBits = 8;   ///< 256 slots per level
  static constexpr int kLevels = 3;     ///< spans ~17.6s; beyond -> heap
  static constexpr std::uint32_t kSlotsPerLevel = 1u << kSlotBits;
  static constexpr std::uint32_t kSlotMask = kSlotsPerLevel - 1;
  static constexpr std::uint32_t kNil = 0xffffffffu;
  static constexpr std::size_t kSlabNodes = 256;  ///< pool slab granularity

  enum class Where : std::uint8_t { Free, Wheel, Ready, Heap };

  struct Node {
    TimePoint when{};
    std::uint64_t seq = 0;
    std::uint32_t gen = 0;
    std::uint32_t next = kNil;  ///< slot list / free list link
    std::uint32_t prev = kNil;  ///< slot list back link
    std::uint16_t wheel_slot = 0;  ///< level<<kSlotBits | slot, when in wheel
    Where where = Where::Free;
    bool cancelled = false;
    InlineFn fn;
  };

  /// (when, seq, node) key for the ready run-list and the overflow heap.
  struct Key {
    std::int64_t when_ns;
    std::uint64_t seq;
    std::uint32_t idx;
    bool operator<(const Key& o) const {
      return when_ns != o.when_ns ? when_ns < o.when_ns : seq < o.seq;
    }
  };
  struct KeyLater {  // max-heap adapter -> min-heap
    bool operator()(const Key& a, const Key& b) const { return b < a; }
  };

  Node& node(std::uint32_t idx) {
    return slabs_[idx >> 8][idx & 255];
  }
  const Node& node(std::uint32_t idx) const {
    return slabs_[idx >> 8][idx & 255];
  }

  std::uint32_t alloc_node();
  void free_node(std::uint32_t idx);

  void place(std::uint32_t idx);           ///< into wheel, heap or ready
  void wheel_link(std::uint32_t idx, int level, std::uint32_t slot);
  void wheel_unlink(std::uint32_t idx);
  void cascade(int level, std::uint32_t slot);  ///< redistribute one slot

  /// Moves the horizon forward. Whenever it enters a new L1/L2 group the
  /// group's own slot cascades immediately, maintaining the invariant
  /// that the slots covering the horizon's position are always empty —
  /// otherwise events scheduled into L0 afterwards would mask (and fire
  /// before) earlier events still parked one level up.
  void advance_horizon(std::int64_t new_ns);

  /// Ensures ready_ holds the earliest live event at its head (sweeping
  /// tombstones, cascading wheel levels and draining the overflow heap as
  /// needed). Returns false when no live event exists.
  bool peek_ready();
  void refill_ready();
  void drain_heap_until(std::int64_t end_ns);

  /// When the last live event goes away, every remaining ready/heap entry
  /// is a tombstone: reap them all so cancelled_pending() returns to zero
  /// and an idle queue holds no pool slots hostage.
  void purge_dead();

  void do_cancel(std::uint32_t slot, std::uint32_t gen);
  bool is_pending(std::uint32_t slot, std::uint32_t gen) const;

  // --- node pool ------------------------------------------------------------
  std::vector<std::unique_ptr<Node[]>> slabs_;
  std::uint32_t free_head_ = kNil;

  // --- timer wheel ----------------------------------------------------------
  struct Slot {
    std::uint32_t head = kNil;
    std::uint32_t tail = kNil;
  };
  Slot wheel_[kLevels][kSlotsPerLevel];
  std::uint64_t occupied_[kLevels][kSlotsPerLevel / 64] = {};
  std::size_t wheel_live_ = 0;   ///< nodes resident in any wheel level
  std::int64_t horizon_ns_ = 0;  ///< all events < horizon are in ready_

  // --- ready run-list and far-future overflow -------------------------------
  std::vector<Key> ready_;   ///< sorted (when, seq); head_ indexes the front
  std::size_t head_ = 0;
  std::priority_queue<Key, std::vector<Key>, KeyLater> heap_;

  // --- counters -------------------------------------------------------------
  std::size_t live_ = 0;
  std::size_t tombstoned_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::uint64_t cancelled_total_ = 0;
};

}  // namespace rdmamon::sim
