// Heap-allocation counts of the System V access path. This executable
// replaces the global allocation functions with counting ones, so the
// assertions are exact counts that do not depend on host speed:
//
//  * an access to a page the process PTE already allows allocates nothing
//    (no coroutine frame: the access completes inside await_ready);
//  * a faulting access adds at most one coroutine frame on top of what the
//    DSM backend's Fault itself allocates.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "src/sysv/world.h"

namespace {

std::atomic<std::uint64_t> g_allocs{0};

void* Allocate(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n == 0 ? 1 : n);
}

void* AllocateAligned(std::size_t n, std::align_val_t al) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  const std::size_t a = static_cast<std::size_t>(al);
  return std::aligned_alloc(a, (n + a - 1) / a * a);
}

std::uint64_t Allocs() { return g_allocs.load(std::memory_order_relaxed); }

}  // namespace

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

namespace {

using mos::Priority;
using mos::Process;
using msim::kSecond;
using msim::Task;
using msysv::World;

TEST(AllocTest, ResidentAccessesAllocateNothing) {
  constexpr int kRounds = 2000;  // x 5 accessors = 10 000 accesses
  World w(1);
  const int id = w.shm(0).Shmget(1, 512, true).value();
  bool done = false;
  std::uint64_t allocs = ~0ull;
  std::uint32_t sum = 0;
  w.kernel(0).Spawn("hits", Priority::kUser, [&](Process* p) -> Task<> {
    auto& shm = w.shm(0);
    const mmem::VAddr base = shm.Shmat(p, id).value();
    co_await shm.WriteWord(p, base, 0);  // fault the page in, writable
    const std::uint64_t a0 = Allocs();
    for (int i = 0; i < kRounds; ++i) {
      const auto u = static_cast<std::uint32_t>(i);
      co_await shm.WriteWord(p, base + 4, u);
      sum += co_await shm.ReadWord(p, base + 4);
      co_await shm.WriteByte(p, base + 9, static_cast<std::uint8_t>(u));
      sum += co_await shm.ReadByte(p, base + 9);
      sum += co_await shm.TestAndSet(p, base + 12);
    }
    allocs = Allocs() - a0;
    done = true;
  });
  ASSERT_TRUE(w.RunUntil([&] { return done; }, 10 * kSecond));
  EXPECT_EQ(allocs, 0u);
  // The accesses really happened: sum of i, sum of (i & 0xFF), and the
  // TestAndSet word read 0 once and 1 ever after.
  std::uint32_t want = 0;
  for (int i = 0; i < kRounds; ++i) {
    want += static_cast<std::uint32_t>(i) + static_cast<std::uint32_t>(i & 0xFF);
  }
  want += kRounds - 1;
  EXPECT_EQ(sum, want);
}

// Allocations made across one remote read fault at site 1 of a 2-site
// world, either through ShmSystem::ReadWord (`via_shm`) or by calling the
// backend's Fault and remapping directly. The two worlds run the same
// events, so the difference is what the access path itself allocates.
std::uint64_t RemoteFaultAllocs(bool via_shm) {
  World w(2);
  const int id = w.shm(0).Shmget(1, 512, true).value();
  bool done = false;
  std::uint64_t allocs = 0;
  w.kernel(1).Spawn("faulter", Priority::kUser, [&](Process* p) -> Task<> {
    auto& shm = w.shm(1);
    const mmem::VAddr base = shm.Shmat(p, id).value();
    const std::uint64_t a0 = Allocs();
    if (via_shm) {
      (void)co_await shm.ReadWord(p, base);
    } else {
      const mmem::FaultStatus st = co_await shm.backend()->Fault(p, id, 0, /*write=*/false);
      EXPECT_EQ(st, mmem::FaultStatus::kOk);
      shm.SpaceFor(p).SyncFromMaster();
    }
    allocs = Allocs() - a0;
    done = true;
  });
  EXPECT_TRUE(w.RunUntil([&] { return done; }, 10 * kSecond));
  EXPECT_EQ(w.engine(1)->stats().remote_requests_sent, 1u);
  return allocs;
}

TEST(AllocTest, FaultingAccessAddsAtMostOneFrame) {
  const std::uint64_t bare = RemoteFaultAllocs(/*via_shm=*/false);
  const std::uint64_t access = RemoteFaultAllocs(/*via_shm=*/true);
  EXPECT_GT(bare, 0u);  // the fault itself sends packets: the count is live
  EXPECT_GE(access, bare);
  EXPECT_LE(access - bare, 1u) << "bare fault " << bare << ", via ReadWord " << access;
}

}  // namespace
