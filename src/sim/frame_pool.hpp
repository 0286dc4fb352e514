// Size-class pool for coroutine frames. Every os::Program frame is
// allocated here (ProgramPromise's operator new reaches the pool of the
// thread's Simulation), so a send, a recv or a completion reap that runs
// a nested coroutine per message recycles a frame instead of calling
// malloc. One pool per Simulation: two simulations in one process never
// share blocks, so each replays its allocation count exactly.
//
// Each block carries a 16-byte header naming its pool and size class, so
// release() needs nothing but the pointer. Blocks return to a per-class
// free list and go back to the heap only when the pool is destroyed — the
// Simulation must outlive every frame, which holds whenever it outlives
// the nodes whose threads own them.
#pragma once

#include <cstddef>

namespace rdmamon::sim {

class FramePool {
 public:
  FramePool() = default;
  FramePool(const FramePool&) = delete;
  FramePool& operator=(const FramePool&) = delete;
  ~FramePool();

  /// A block of at least `bytes`, aligned for any frame.
  void* allocate(std::size_t bytes);

  /// Returns a block obtained from allocate() to its pool. Under ASan
  /// the block's payload is poisoned until allocate() hands it out again.
  static void release(void* p) noexcept;

 private:
  static constexpr std::size_t kGrain = 16;
  /// Frames up to kClasses * kGrain bytes are pooled; larger ones go to
  /// the heap per allocation.
  static constexpr std::size_t kClasses = 128;

  struct alignas(16) Header {
    union {
      FramePool* pool;  ///< while handed out
      Header* next;     ///< while on a free list
    };
    std::size_t cls;  ///< size class, or kClasses for an unpooled block
  };
  static_assert(sizeof(Header) == 16);

  Header* free_[kClasses] = {};
};

}  // namespace rdmamon::sim
