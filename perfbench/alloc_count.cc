// A counting global operator new for the data.alloc* per-layer metrics.
// Counting is off unless a traced run switches it on around the calls it
// attributes; when off, each allocation pays one relaxed load.
#include <atomic>
#include <cstdlib>
#include <new>

#include "common.h"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<uint64_t> g_allocs{0};
std::atomic<uint64_t> g_bytes{0};

void* CountedAlloc(std::size_t n) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    g_bytes.fetch_add(n, std::memory_order_relaxed);
  }
  return std::malloc(n == 0 ? 1 : n);
}

}  // namespace

namespace perfbench {

void CountAllocs(bool on) { g_counting.store(on, std::memory_order_relaxed); }

AllocCounts ReadAllocCounts() {
  return AllocCounts{g_allocs.load(std::memory_order_relaxed),
                     g_bytes.load(std::memory_order_relaxed)};
}

}  // namespace perfbench

// The plain and nothrow forms are replaced together (and their deletes), so
// every pointer is released by the allocator that made it.
void* operator new(std::size_t n) {
  void* p = CountedAlloc(n);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t n) {
  void* p = CountedAlloc(n);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return CountedAlloc(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return CountedAlloc(n);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
