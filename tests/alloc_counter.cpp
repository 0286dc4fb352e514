#include "alloc_counter.hpp"

#include <cstdlib>
#include <new>

namespace {
std::uint64_t g_allocs = 0;
std::uint64_t g_frees = 0;
std::uint64_t g_bytes = 0;
}

std::uint64_t allocation_count() { return g_allocs; }
std::uint64_t live_allocation_count() { return g_allocs - g_frees; }
std::uint64_t allocated_bytes() { return g_bytes; }

void* operator new(std::size_t n) {
  ++g_allocs;
  g_bytes += n;
  void* p = std::malloc(n);
  if (!p) throw std::bad_alloc{};
  return p;
}
void operator delete(void* p) noexcept {
  if (p) ++g_frees;
  std::free(p);
}
void operator delete(void* p, std::size_t) noexcept { operator delete(p); }
// The array forms too: a sanitizer runtime supplies its own, which would
// otherwise bypass the count.
void* operator new[](std::size_t n) { return operator new(n); }
void operator delete[](void* p) noexcept { operator delete(p); }
void operator delete[](void* p, std::size_t) noexcept { operator delete(p); }
