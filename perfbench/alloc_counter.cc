// A counting global operator new: every allocation through new / new[]
// bumps one counter, so the benchmark can report heap allocations per
// simulated event as an exact, repeatable count. Deletes pair with malloc.

#include "perfbench/alloc_counter.h"

#include <atomic>
#include <cstdlib>
#include <new>

namespace {
std::atomic<uint64_t> g_allocations{0};
}  // namespace

namespace perfbench {
uint64_t HeapAllocations() { return g_allocations.load(std::memory_order_relaxed); }
}  // namespace perfbench

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    return p;
  }
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
