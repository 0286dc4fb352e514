#include "sim/event_queue.hpp"

#include <algorithm>
#include <bit>
#include <cassert>

namespace rdmamon::sim {

void EventHandle::cancel() {
  if (queue_) queue_->do_cancel(slot_, gen_);
}

bool EventHandle::pending() const {
  return queue_ != nullptr && queue_->is_pending(slot_, gen_);
}

EventQueue::EventQueue() = default;

std::uint32_t EventQueue::alloc_node() {
  if (free_head_ == kNil) {
    const std::uint32_t base =
        static_cast<std::uint32_t>(slabs_.size() * kSlabNodes);
    slabs_.push_back(std::make_unique<Node[]>(kSlabNodes));
    // Chain the fresh slab onto the free list, last node first so
    // allocation order is ascending (friendlier to the cache).
    for (std::size_t i = kSlabNodes; i-- > 0;) {
      Node& n = slabs_.back()[i];
      n.next = free_head_;
      free_head_ = base + static_cast<std::uint32_t>(i);
    }
  }
  const std::uint32_t idx = free_head_;
  free_head_ = node(idx).next;
  return idx;
}

void EventQueue::free_node(std::uint32_t idx) {
  Node& n = node(idx);
  ++n.gen;  // every outstanding handle to this slot goes inert
  n.fn.reset();
  n.cancelled = false;
  n.where = Where::Free;
  n.prev = kNil;
  n.next = free_head_;
  free_head_ = idx;
}

void EventQueue::wheel_link(std::uint32_t idx, int level, std::uint32_t slot) {
  Node& n = node(idx);
  n.where = Where::Wheel;
  n.wheel_slot = static_cast<std::uint16_t>((level << kSlotBits) | slot);
  n.next = kNil;
  Slot& s = wheel_[level][slot];
  n.prev = s.tail;
  if (s.tail == kNil) {
    s.head = idx;
    occupied_[level][slot >> 6] |= 1ull << (slot & 63);
  } else {
    node(s.tail).next = idx;
  }
  s.tail = idx;
  ++wheel_live_;
}

void EventQueue::wheel_unlink(std::uint32_t idx) {
  Node& n = node(idx);
  const int level = n.wheel_slot >> kSlotBits;
  const std::uint32_t slot = n.wheel_slot & kSlotMask;
  Slot& s = wheel_[level][slot];
  if (n.prev != kNil) {
    node(n.prev).next = n.next;
  } else {
    s.head = n.next;
  }
  if (n.next != kNil) {
    node(n.next).prev = n.prev;
  } else {
    s.tail = n.prev;
  }
  if (s.head == kNil) occupied_[level][slot >> 6] &= ~(1ull << (slot & 63));
  --wheel_live_;
}

void EventQueue::place(std::uint32_t idx) {
  Node& n = node(idx);
  const std::int64_t w = n.when.ns;
  if (w < horizon_ns_) {
    // Already inside the drained window (scheduling at now() after the
    // wheel cursor passed): insert directly into the sorted run-list.
    n.where = Where::Ready;
    const Key k{w, n.seq, idx};
    ready_.insert(std::lower_bound(ready_.begin() +
                                       static_cast<std::ptrdiff_t>(head_),
                                   ready_.end(), k),
                  k);
    return;
  }
  const std::uint64_t wt = static_cast<std::uint64_t>(w) >> kTickBits;
  const std::uint64_t ht =
      static_cast<std::uint64_t>(horizon_ns_) >> kTickBits;
  if ((wt >> kSlotBits) == (ht >> kSlotBits)) {
    wheel_link(idx, 0, static_cast<std::uint32_t>(wt & kSlotMask));
  } else if ((wt >> (2 * kSlotBits)) == (ht >> (2 * kSlotBits))) {
    wheel_link(idx, 1,
               static_cast<std::uint32_t>((wt >> kSlotBits) & kSlotMask));
  } else if ((wt >> (3 * kSlotBits)) == (ht >> (3 * kSlotBits))) {
    wheel_link(idx, 2,
               static_cast<std::uint32_t>((wt >> (2 * kSlotBits)) & kSlotMask));
  } else {
    n.where = Where::Heap;
    heap_.push(Key{w, n.seq, idx});
  }
}

void EventQueue::cascade(int level, std::uint32_t slot) {
  Slot& s = wheel_[level][slot];
  std::uint32_t cur = s.head;
  s.head = s.tail = kNil;
  occupied_[level][slot >> 6] &= ~(1ull << (slot & 63));
  while (cur != kNil) {
    const std::uint32_t next = node(cur).next;
    --wheel_live_;
    place(cur);  // re-bins into a lower level (or L0) under the new horizon
    cur = next;
  }
}

void EventQueue::drain_heap_until(std::int64_t end_ns) {
  while (!heap_.empty() && heap_.top().when_ns < end_ns) {
    const Key k = heap_.top();
    heap_.pop();
    Node& n = node(k.idx);
    if (n.cancelled) {
      --tombstoned_;
      free_node(k.idx);
    } else {
      n.where = Where::Ready;
      ready_.push_back(k);
    }
  }
}

void EventQueue::advance_horizon(std::int64_t new_ns) {
  assert(new_ns >= horizon_ns_);
  const std::uint64_t old_ht =
      static_cast<std::uint64_t>(horizon_ns_) >> kTickBits;
  const std::uint64_t new_ht = static_cast<std::uint64_t>(new_ns) >> kTickBits;
  horizon_ns_ = new_ns;
  if (wheel_live_ == 0) return;
  // Cascade the slot the horizon just entered, coarsest level first (the
  // L2 cascade may feed the L1 slot cascaded next). Skipping this would
  // let a later schedule drop events straight into L0 and fire them ahead
  // of earlier events still parked in the entered slot.
  if ((old_ht >> (2 * kSlotBits)) != (new_ht >> (2 * kSlotBits))) {
    const std::uint32_t s2 =
        static_cast<std::uint32_t>((new_ht >> (2 * kSlotBits)) & kSlotMask);
    if ((occupied_[2][s2 >> 6] >> (s2 & 63)) & 1) cascade(2, s2);
  }
  if ((old_ht >> kSlotBits) != (new_ht >> kSlotBits)) {
    const std::uint32_t s1 =
        static_cast<std::uint32_t>((new_ht >> kSlotBits) & kSlotMask);
    if ((occupied_[1][s1 >> 6] >> (s1 & 63)) & 1) cascade(1, s1);
  }
}

namespace {
/// Smallest set bit index >= `from` in a 256-bit bitmap, or -1.
int next_occupied_bit(const std::uint64_t* words, std::uint32_t from) {
  if (from >= 256) return -1;
  std::uint32_t word = from >> 6;
  std::uint64_t bits = words[word] & (~0ull << (from & 63));
  for (;;) {
    if (bits != 0) {
      return static_cast<int>(word * 64 +
                              static_cast<std::uint32_t>(std::countr_zero(bits)));
    }
    if (++word == 4) return -1;
    bits = words[word];
  }
}
}  // namespace

void EventQueue::refill_ready() {
  // One progress step: move at least one event into ready_, or cascade a
  // coarser wheel slot one level down. Caller (peek_ready) loops.
  constexpr std::int64_t kTick = 1ll << kTickBits;
  if (wheel_live_ == 0) {
    // Everything pending is far-future: drain the overflow heap's next
    // 1-tick window. The horizon may jump arbitrarily far forward here —
    // safe, because no wheel level holds anything to skip over.
    assert(!heap_.empty());
    const std::int64_t end =
        ((heap_.top().when_ns >> kTickBits) + 1) << kTickBits;
    advance_horizon(std::max(horizon_ns_, end));
    drain_heap_until(end);
    return;
  }
  const std::uint64_t ht =
      static_cast<std::uint64_t>(horizon_ns_) >> kTickBits;

  // Level 0: earliest occupied slot in the current rotation. Placement
  // guarantees no L0 event sits below the horizon's slot index.
  const int s0 = next_occupied_bit(occupied_[0],
                                   static_cast<std::uint32_t>(ht & kSlotMask));
  if (s0 >= 0) {
    const std::int64_t slot_start = static_cast<std::int64_t>(
        ((ht & ~static_cast<std::uint64_t>(kSlotMask)) |
         static_cast<std::uint64_t>(s0))
        << kTickBits);
    if (!heap_.empty() && heap_.top().when_ns < slot_start) {
      const std::int64_t end =
          ((heap_.top().when_ns >> kTickBits) + 1) << kTickBits;
      advance_horizon(end);  // end <= slot_start: no wheel event skipped
      drain_heap_until(end);
      std::sort(ready_.begin() + static_cast<std::ptrdiff_t>(head_),
                ready_.end());
      return;
    }
    // Detach the slot's chain BEFORE moving the horizon: when the drain
    // window crosses an L1 group boundary, advance_horizon cascades the
    // next group's events down — possibly into this very L0 slot index
    // (next rotation), which must not join the batch drained now.
    Slot& s = wheel_[0][s0];
    std::uint32_t cur = s.head;
    s.head = s.tail = kNil;
    occupied_[0][static_cast<std::uint32_t>(s0) >> 6] &=
        ~(1ull << (s0 & 63));
    advance_horizon(slot_start + kTick);
    while (cur != kNil) {
      Node& n = node(cur);
      const std::uint32_t next = n.next;
      --wheel_live_;
      n.where = Where::Ready;
      ready_.push_back(Key{n.when.ns, n.seq, cur});
      cur = next;
    }
    // Heap entries ripening inside this same window join the batch, then
    // one sort restores the global (when, seq) order.
    drain_heap_until(horizon_ns_);
    std::sort(ready_.begin() + static_cast<std::ptrdiff_t>(head_),
              ready_.end());
    return;
  }

  // Level 1+: find the next occupied coarse slot and push it one level
  // down. advance_horizon keeps the entered slot cascaded, so the scan
  // could start past the current index; the inclusive scan stays as a
  // cheap safety net.
  for (int level = 1; level < kLevels; ++level) {
    const std::uint32_t cur_idx = static_cast<std::uint32_t>(
        (ht >> (level * kSlotBits)) & kSlotMask);
    const int sl = next_occupied_bit(occupied_[level], cur_idx);
    if (sl < 0) continue;
    const std::uint64_t group = ht >> (level * kSlotBits);
    const std::int64_t slot_start = static_cast<std::int64_t>(
        ((group & ~static_cast<std::uint64_t>(kSlotMask)) |
         static_cast<std::uint64_t>(sl))
        << (kTickBits + level * kSlotBits));
    if (slot_start > horizon_ns_ && !heap_.empty() &&
        heap_.top().when_ns < slot_start) {
      const std::int64_t end =
          ((heap_.top().when_ns >> kTickBits) + 1) << kTickBits;
      advance_horizon(end);
      drain_heap_until(end);
      std::sort(ready_.begin() + static_cast<std::ptrdiff_t>(head_),
                ready_.end());
      return;
    }
    advance_horizon(std::max(horizon_ns_, slot_start));
    cascade(level, static_cast<std::uint32_t>(sl));
    return;
  }
  assert(false && "wheel_live_ > 0 but no occupied slot found");
}

void EventQueue::purge_dead() {
  if (live_ != 0 || tombstoned_ == 0) return;
  // No live event left anywhere, so every ready/heap entry is a
  // tombstone (wheel cancels free eagerly and never tombstone).
  for (std::size_t i = head_; i < ready_.size(); ++i) {
    free_node(ready_[i].idx);
  }
  ready_.clear();
  head_ = 0;
  while (!heap_.empty()) {
    free_node(heap_.top().idx);
    heap_.pop();
  }
  tombstoned_ = 0;
}

bool EventQueue::peek_ready() {
  for (;;) {
    while (head_ < ready_.size()) {
      const Key k = ready_[head_];
      Node& n = node(k.idx);
      if (!n.cancelled) return true;
      --tombstoned_;  // lazy sweep of a cancelled ready entry
      free_node(k.idx);
      ++head_;
    }
    ready_.clear();
    head_ = 0;
    if (wheel_live_ == 0 && heap_.empty()) return false;
    refill_ready();
  }
}

EventHandle EventQueue::schedule(TimePoint when, Callback fn) {
  const std::uint32_t idx = alloc_node();
  Node& n = node(idx);
  n.when = when;
  n.seq = next_seq_++;
  n.cancelled = false;
  n.fn = std::move(fn);
  ++live_;
  place(idx);
  return EventHandle{this, idx, n.gen};
}

void EventQueue::do_cancel(std::uint32_t slot, std::uint32_t gen) {
  Node& n = node(slot);
  if (n.gen != gen || n.where == Where::Free || n.cancelled) return;
  n.cancelled = true;
  ++cancelled_total_;
  --live_;
  if (n.where == Where::Wheel) {
    // O(1) eager unlink: the doubly-linked slot list needs no sweep.
    wheel_unlink(slot);
    free_node(slot);
  } else {
    // Ready- or heap-resident: tombstone now, reap at pop time.
    ++tombstoned_;
  }
  purge_dead();
}

bool EventQueue::is_pending(std::uint32_t slot, std::uint32_t gen) const {
  const Node& n = node(slot);
  return n.gen == gen && n.where != Where::Free && !n.cancelled;
}

TimePoint EventQueue::next_time() {
  const bool found = peek_ready();
  assert(found);
  (void)found;
  return node(ready_[head_].idx).when;
}

TimePoint EventQueue::pop_and_run() {
  TimePoint when{};
  const bool ran = pop_until(kNever, when);
  assert(ran);
  (void)ran;
  return when;
}

bool EventQueue::pop_until(TimePoint deadline, TimePoint& clock) {
  if (live_ == 0 || !peek_ready()) return false;
  const std::uint32_t idx = ready_[head_].idx;
  if (node(idx).when > deadline) return false;
  clock = node(idx).when;
  ++head_;
  InlineFn fn = std::move(node(idx).fn);
  // Free before invoking: the slot's generation advances, so the fired
  // event's handles go inert even while its callback runs (and the slot
  // is immediately reusable by events the callback schedules).
  free_node(idx);
  --live_;
  ++executed_;
  purge_dead();
  fn();
  return true;
}

}  // namespace rdmamon::sim
