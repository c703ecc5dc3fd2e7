// Counts every heap allocation of the benchmark process by replacing the
// global allocation functions. The simulator runs serially here, but the
// counter is atomic so a parallel simulator core would still count exactly.
#include <atomic>
#include <cstdlib>
#include <new>

#include "perfbench/bench.h"

namespace {

std::atomic<std::uint64_t> g_allocs{0};

void* Allocate(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n == 0 ? 1 : n);
}

void* AllocateAligned(std::size_t n, std::align_val_t al) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  const std::size_t a = static_cast<std::size_t>(al);
  // aligned_alloc needs a size that is a multiple of the alignment.
  return std::aligned_alloc(a, (n + a - 1) / a * a);
}

}  // namespace

namespace perfbench {

std::uint64_t AllocCount() { return g_allocs.load(std::memory_order_relaxed); }

}  // namespace perfbench

void* operator new(std::size_t n) {
  if (void* p = Allocate(n)) {
    return p;
  }
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept { return Allocate(n); }
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept { return Allocate(n); }
void* operator new(std::size_t n, std::align_val_t al) {
  if (void* p = AllocateAligned(n, al)) {
    return p;
  }
  throw std::bad_alloc();
}
void* operator new[](std::size_t n, std::align_val_t al) { return ::operator new(n, al); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
