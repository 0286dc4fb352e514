#include "alloc_counter.hpp"

#include <cstdlib>
#include <new>

namespace {
std::uint64_t g_allocs = 0;
}

std::uint64_t allocation_count() { return g_allocs; }

void* operator new(std::size_t n) {
  ++g_allocs;
  void* p = std::malloc(n);
  if (!p) throw std::bad_alloc{};
  return p;
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
