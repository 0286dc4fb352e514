// AddressSanitizer hooks for recycled storage. A coroutine frame returned
// to sim::FramePool, or a freed sim::SlotTable slot, is still allocated
// memory as far as ASan knows; poisoning it on release makes a stale
// coroutine_handle resume or an event firing on a freed slot a reported
// use-after-poison instead of a silent read of recycled state. Both calls
// compile to nothing without -fsanitize=address.
#pragma once

#include <cstddef>

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#endif

namespace rdmamon::sim {

inline void poison(const volatile void* p, std::size_t n) noexcept {
#if defined(__SANITIZE_ADDRESS__)
  __asan_poison_memory_region(p, n);
#else
  (void)p;
  (void)n;
#endif
}

inline void unpoison(const volatile void* p, std::size_t n) noexcept {
#if defined(__SANITIZE_ADDRESS__)
  __asan_unpoison_memory_region(p, n);
#else
  (void)p;
  (void)n;
#endif
}

}  // namespace rdmamon::sim
