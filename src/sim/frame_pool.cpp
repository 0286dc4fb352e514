#include "sim/frame_pool.hpp"

#include <new>

#include "sim/poison.hpp"

namespace rdmamon::sim {

FramePool::~FramePool() {
  for (std::size_t cls = 0; cls < kClasses; ++cls) {
    while (Header* h = free_[cls]) {
      free_[cls] = h->next;
      unpoison(h + 1, (cls + 1) * kGrain);
      ::operator delete(h);
    }
  }
}

void* FramePool::allocate(std::size_t bytes) {
  const std::size_t cls = bytes == 0 ? 0 : (bytes - 1) / kGrain;
  Header* h;
  if (cls >= kClasses) {
    h = static_cast<Header*>(::operator new(sizeof(Header) + bytes));
    h->cls = kClasses;
  } else if (free_[cls] != nullptr) {
    h = free_[cls];
    free_[cls] = h->next;
    unpoison(h + 1, bytes);
  } else {
    h = static_cast<Header*>(
        ::operator new(sizeof(Header) + (cls + 1) * kGrain));
    h->cls = cls;
  }
  h->pool = this;
  return h + 1;
}

void FramePool::release(void* p) noexcept {
  Header* h = static_cast<Header*>(p) - 1;
  const std::size_t cls = h->cls;
  if (cls == kClasses) {
    ::operator delete(h);
    return;
  }
  FramePool* pool = h->pool;
  h->next = pool->free_[cls];
  pool->free_[cls] = h;
  poison(p, (cls + 1) * kGrain);
}

}  // namespace rdmamon::sim
