// Slot table: the home of per-operation state that crosses several
// simulated events (an in-flight one-sided op, a socket packet on the
// wire). The state is parked once and every event that touches it
// captures only `{this, slot}` — small enough for InlineFn's inline
// buffer — instead of moving the whole record from closure to closure.
// Freed slots are recycled through an intrusive free list, so the table
// allocates nothing until its first put() and nothing once it has seen
// its peak population.
#pragma once

#include <cassert>
#include <cstdint>
#include <utility>
#include <vector>

#include "sim/poison.hpp"

namespace rdmamon::sim {

template <typename T>
class SlotTable {
 public:
  using Slot = std::uint32_t;

  SlotTable() = default;
  SlotTable(const SlotTable&) = delete;
  SlotTable& operator=(const SlotTable&) = delete;
  ~SlotTable() {
    // Freed cells are poisoned; the vector's destructor reads them.
    for (Slot s = free_; s != kNone; s = cells_[s].next) unpoison_cell(s);
  }

  /// Parks `v` in a free slot (growing the table only when none is free)
  /// and returns the slot.
  Slot put(T v) {
    if (free_ == kNone) {
      // Every cell is live, so the reallocation below moves no poisoned
      // (freed) cell.
      cells_.push_back(Cell{std::move(v), kLive});
      ++live_;
      return static_cast<Slot>(cells_.size() - 1);
    }
    const Slot s = free_;
    unpoison_cell(s);
    free_ = cells_[s].next;
    cells_[s].value = std::move(v);
    cells_[s].next = kLive;
    ++live_;
    return s;
  }

  T& operator[](Slot s) {
    assert(s < cells_.size() && cells_[s].next == kLive);
    return cells_[s].value;
  }

  /// Moves the slot's value out and frees the slot.
  T take(Slot s) {
    T v = std::move((*this)[s]);
    release(s);
    return v;
  }

  /// Frees the slot, destroying what its value holds now.
  void release(Slot s) {
    Cell& c = cells_[s];
    assert(c.next == kLive);
    c.value = T{};
    c.next = free_;
    free_ = s;
    --live_;
    poison(&c, sizeof(Cell));
  }

  /// Slots currently holding a value.
  std::size_t live() const { return live_; }

 private:
  static constexpr Slot kNone = 0xffffffffu;
  static constexpr Slot kLive = 0xfffffffeu;

  struct Cell {
    T value;
    Slot next = kLive;  ///< free-list link; kLive while in use
  };

  void unpoison_cell(Slot s) { unpoison(&cells_[s], sizeof(Cell)); }

  std::vector<Cell> cells_;
  Slot free_ = kNone;
  std::size_t live_ = 0;
};

}  // namespace rdmamon::sim
