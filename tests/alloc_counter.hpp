// Heap-allocation counter for the allocation-freedom tests. A test binary
// that links alloc_counter.cpp gets a global operator new that counts
// every call. The replacement lives in its own translation unit so the
// compiler never sees its malloc paired with a free at an inlined call
// site.
#pragma once

#include <cstdint>

/// operator new calls made so far by this process.
std::uint64_t allocation_count();
/// Blocks from operator new not yet given back to operator delete.
std::uint64_t live_allocation_count();
