// System V IPC semantics (§2.2): key namespace, creation flags, attach
// rules, permissions, detach-destroys, shmctl subset, and the typed
// accessor fault/violation behaviour, on both the resident fast path and
// the faulting slow path.
#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "src/sysv/world.h"

namespace {

using mos::Priority;
using mos::Process;
using msim::kMillisecond;
using msim::kSecond;
using msim::Task;
using msysv::ShmErr;
using msysv::ShmSystem;
using msysv::World;

struct SysvTest : public ::testing::Test {
  World w{2};

  // Runs a coroutine as a process at `site` to completion.
  void AsProcess(int site, std::function<Task<>(Process*)> fn) {
    bool done = false;
    w.kernel(site).Spawn("t", Priority::kUser, [fn = std::move(fn), &done](
                                                   Process* p) -> Task<> {
      co_await fn(p);
      done = true;
    });
    ASSERT_TRUE(w.RunUntil([&] { return done; }, 30 * kSecond));
  }

  // Page faults taken so far at `site`: the slow path's signature.
  std::uint64_t Faults(int site) {
    return w.engine(site)->stats().read_faults + w.engine(site)->stats().write_faults;
  }
};

TEST_F(SysvTest, ShmgetCreatesAndFindsByKey) {
  auto r1 = w.shm(0).Shmget(123, 4096, /*create=*/true);
  ASSERT_TRUE(r1.ok());
  // Same key from another site resolves to the same segment.
  auto r2 = w.shm(1).Shmget(123, 4096, /*create=*/false);
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r1.value(), r2.value());
}

TEST_F(SysvTest, ShmgetErrnoSurface) {
  EXPECT_EQ(w.shm(0).Shmget(5, 0, true).error(), ShmErr::kInval);     // zero size
  EXPECT_EQ(w.shm(0).Shmget(5, 512, false).error(), ShmErr::kNoEnt);  // no IPC_CREAT
  ASSERT_TRUE(w.shm(0).Shmget(5, 512, true).ok());
  EXPECT_EQ(w.shm(0).Shmget(5, 512, true, /*exclusive=*/true).error(), ShmErr::kExist);
  // Requesting more than the existing size fails; less or equal succeeds.
  EXPECT_EQ(w.shm(0).Shmget(5, 1024, true).error(), ShmErr::kInval);
  EXPECT_TRUE(w.shm(0).Shmget(5, 256, true).ok());
}

TEST_F(SysvTest, IpcPrivateAlwaysCreatesFreshSegments) {
  int a = w.shm(0).Shmget(msysv::kIpcPrivate, 512, true).value();
  int b = w.shm(0).Shmget(msysv::kIpcPrivate, 512, true).value();
  EXPECT_NE(a, b);
}

TEST_F(SysvTest, CreatorBecomesLibrarySite) {
  int id = w.shm(1).Shmget(9, 512, true).value();
  auto ds = w.shm(1).ShmStat(id);
  ASSERT_TRUE(ds.ok());
  EXPECT_EQ(ds.value().meta.library_site, 1);
  EXPECT_TRUE(w.engine(1)->IsLibraryFor(id));
  EXPECT_FALSE(w.engine(0)->IsLibraryFor(id));
}

TEST_F(SysvTest, AttachAtChosenAndFirstFitAddresses) {
  int id = w.shm(0).Shmget(7, 1024, true).value();
  AsProcess(0, [&](Process* p) -> Task<> {
    auto fixed = w.shm(0).Shmat(p, id, mmem::VAddr{0x30000000});
    EXPECT_EQ(fixed.value(), 0x30000000u);
    co_return;
  });
  AsProcess(0, [&](Process* p) -> Task<> {
    auto firstfit = w.shm(0).Shmat(p, id);
    EXPECT_EQ(firstfit.value(), mmem::kShmArenaBase);
    co_return;
  });
}

TEST_F(SysvTest, ShmatRejectsBadIdAndBadAddress) {
  int id = w.shm(0).Shmget(7, 1024, true).value();
  AsProcess(0, [&](Process* p) -> Task<> {
    EXPECT_EQ(w.shm(0).Shmat(p, 999).error(), ShmErr::kInval);
    EXPECT_EQ(w.shm(0).Shmat(p, id, mmem::VAddr{0x30000001}).error(), ShmErr::kInval);
    co_return;
  });
}

TEST_F(SysvTest, NattchTracksAttachesAcrossSites) {
  int id = w.shm(0).Shmget(7, 512, true).value();
  mmem::VAddr base0 = 0;
  AsProcess(0, [&](Process* p) -> Task<> {
    base0 = w.shm(0).Shmat(p, id).value();
    co_await w.shm(0).WriteWord(p, base0, 1);
    co_return;
  });
  EXPECT_EQ(w.shm(0).ShmStat(id).value().nattch, 1);
  AsProcess(1, [&](Process* p) -> Task<> {
    (void)w.shm(1).Shmat(p, id).value();
    co_return;
  });
  EXPECT_EQ(w.shm(1).ShmStat(id).value().nattch, 2);
}

TEST_F(SysvTest, LastDetachDestroysSegment) {
  int id = w.shm(0).Shmget(7, 512, true).value();
  AsProcess(0, [&](Process* p) -> Task<> {
    mmem::VAddr base = w.shm(0).Shmat(p, id).value();
    co_await w.shm(0).WriteWord(p, base, 1);
    EXPECT_TRUE(w.shm(0).Shmdt(p, base).ok());
    co_return;
  });
  // Gone from the namespace and from the engines.
  EXPECT_EQ(w.shm(0).ShmStat(id).error(), ShmErr::kInval);
  EXPECT_EQ(w.engine(0)->ImageOrNull(id), nullptr);
  // The key is free for reuse.
  EXPECT_TRUE(w.shm(0).Shmget(7, 512, true, /*exclusive=*/true).ok());
}

TEST_F(SysvTest, ShmdtRequiresExactBase) {
  int id = w.shm(0).Shmget(7, 1024, true).value();
  AsProcess(0, [&](Process* p) -> Task<> {
    mmem::VAddr base = w.shm(0).Shmat(p, id).value();
    EXPECT_EQ(w.shm(0).Shmdt(p, base + 512).error(), ShmErr::kInval);
    EXPECT_TRUE(w.shm(0).Shmdt(p, base).ok());
    co_return;
  });
}

TEST_F(SysvTest, RemoveFailsWhileAttached) {
  int id = w.shm(0).Shmget(7, 512, true).value();
  AsProcess(0, [&](Process* p) -> Task<> {
    mmem::VAddr base = w.shm(0).Shmat(p, id).value();
    EXPECT_EQ(w.shm(0).ShmRemove(id).error(), ShmErr::kInval);
    EXPECT_TRUE(w.shm(0).Shmdt(p, base).ok());
    co_return;
  });
  // Destroyed by the last detach already; removing again reports EINVAL.
  EXPECT_EQ(w.shm(0).ShmRemove(id).error(), ShmErr::kInval);
}

TEST_F(SysvTest, RemoveUnattachedSegmentWorks) {
  int id = w.shm(0).Shmget(7, 512, true).value();
  EXPECT_TRUE(w.shm(0).ShmRemove(id).ok());
  EXPECT_EQ(w.shm(0).ShmStat(id).error(), ShmErr::kInval);
}

TEST_F(SysvTest, UnmappedAccessRaisesSegmentationFault) {
  AsProcess(0, [&](Process* p) -> Task<> {
    bool threw = false;
    try {
      (void)co_await w.shm(0).ReadWord(p, 0xDEAD0000);
    } catch (const msysv::SegmentationFault&) {
      threw = true;
    }
    EXPECT_TRUE(threw);
  });
}

TEST_F(SysvTest, WriteThroughReadOnlyAttachRaisesProtectionFault) {
  int id = w.shm(0).Shmget(7, 512, true).value();
  AsProcess(0, [&](Process* p) -> Task<> {
    mmem::VAddr base = w.shm(0).Shmat(p, id, std::nullopt, /*read_only=*/true).value();
    // Reads work fine through a read-only attach...
    EXPECT_EQ(co_await w.shm(0).ReadWord(p, base), 0u);
    // ...writes are a protection violation, not a page fault.
    bool threw = false;
    try {
      co_await w.shm(0).WriteWord(p, base, 1);
    } catch (const msysv::ProtectionFault&) {
      threw = true;
    }
    EXPECT_TRUE(threw);
  });
}

TEST_F(SysvTest, ByteAccessorsWork) {
  int id = w.shm(0).Shmget(7, 512, true).value();
  AsProcess(0, [&](Process* p) -> Task<> {
    auto& shm = w.shm(0);
    mmem::VAddr base = shm.Shmat(p, id).value();
    co_await shm.WriteByte(p, base + 17, 0xAB);
    EXPECT_EQ(co_await shm.ReadByte(p, base + 17), 0xAB);
  });
}

TEST_F(SysvTest, TestAndSetReturnsOldValueAndSets) {
  int id = w.shm(0).Shmget(7, 512, true).value();
  AsProcess(0, [&](Process* p) -> Task<> {
    auto& shm = w.shm(0);
    mmem::VAddr base = shm.Shmat(p, id).value();
    EXPECT_EQ(co_await shm.TestAndSet(p, base), 0u);
    EXPECT_EQ(co_await shm.TestAndSet(p, base), 1u);
    co_await shm.WriteWord(p, base, 0);
    EXPECT_EQ(co_await shm.TestAndSet(p, base), 0u);
  });
}

TEST_F(SysvTest, ShmSetWindowSurfaceAndSemantics) {
  int id = w.shm(0).Shmget(7, 1024, true).value();
  // Library-site only.
  EXPECT_EQ(w.shm(1).ShmSetWindow(id, 50 * msim::kMillisecond).error(), ShmErr::kAccess);
  EXPECT_EQ(w.shm(0).ShmSetWindow(999, 1).error(), ShmErr::kInval);
  EXPECT_EQ(w.shm(0).ShmSetWindow(id, -5).error(), ShmErr::kInval);
  EXPECT_EQ(w.shm(0).ShmSetWindow(id, 1, mmem::PageNum{9}).error(), ShmErr::kInval);
  // Whole-segment then per-page override.
  EXPECT_TRUE(w.shm(0).ShmSetWindow(id, 40 * msim::kMillisecond).ok());
  EXPECT_TRUE(w.shm(0).ShmSetWindow(id, 5 * msim::kMillisecond, mmem::PageNum{1}).ok());
  EXPECT_EQ(w.engine(0)->PageWindow(id, 0), 40 * msim::kMillisecond);
  EXPECT_EQ(w.engine(0)->PageWindow(id, 1), 5 * msim::kMillisecond);
}

TEST_F(SysvTest, BlockTransferRoundTripAcrossPages) {
  int id = w.shm(0).Shmget(7, 2048, true).value();
  std::vector<std::uint8_t> blob(700);
  for (std::size_t i = 0; i < blob.size(); ++i) {
    blob[i] = static_cast<std::uint8_t>(i * 13 + 1);
  }
  // Write a block straddling a page boundary at site 0; read it at site 1.
  AsProcess(0, [&](Process* p) -> Task<> {
    mmem::VAddr base = w.shm(0).Shmat(p, id).value();
    co_await w.shm(0).WriteBlock(p, base + 300, blob);
    co_return;
  });
  AsProcess(1, [&](Process* p) -> Task<> {
    mmem::VAddr base = w.shm(1).Shmat(p, id).value();
    std::vector<std::uint8_t> got =
        co_await w.shm(1).ReadBlock(p, base + 300, static_cast<std::uint32_t>(blob.size()));
    EXPECT_EQ(got, blob);
  });
}

TEST_F(SysvTest, TwoProcessesShareAtDifferentAddresses) {
  // Colocated processes map the same frames at different virtual addresses.
  int id = w.shm(0).Shmget(7, 512, true).value();
  AsProcess(0, [&](Process* p) -> Task<> {
    mmem::VAddr base = w.shm(0).Shmat(p, id, mmem::VAddr{0x50000000}).value();
    co_await w.shm(0).WriteWord(p, base + 8, 4242);
  });
  AsProcess(0, [&](Process* p) -> Task<> {
    mmem::VAddr base = w.shm(0).Shmat(p, id, mmem::VAddr{0x90000000}).value();
    EXPECT_EQ(co_await w.shm(0).ReadWord(p, base + 8), 4242u);
  });
}

// An image error raised on the resident fast path (inside await_ready)
// reaches the awaiting coroutine's own try/catch, and the process goes on.
TEST_F(SysvTest, FastPathErrorReachesCallersCatch) {
  int id = w.shm(0).Shmget(7, 512, true).value();
  AsProcess(0, [&](Process* p) -> Task<> {
    auto& shm = w.shm(0);
    mmem::VAddr base = shm.Shmat(p, id).value();
    co_await shm.WriteWord(p, base, 5);  // the page is now resident
    const std::uint64_t faults = Faults(0);
    bool threw = false;
    try {
      (void)co_await shm.ReadWord(p, base + 2);  // misaligned word
    } catch (const std::logic_error&) {
      threw = true;
    }
    EXPECT_TRUE(threw);
    EXPECT_EQ(Faults(0), faults);
    EXPECT_EQ(co_await shm.ReadWord(p, base), 5u);
  });
}

// The access hook fires once per word access, with the same event whether
// the access faulted first (slow path) or hit a resident page (fast path).
// Byte accesses stay unhooked.
TEST_F(SysvTest, AccessHookFiresOnceWithSameEventOnBothPaths) {
  int id = w.shm(0).Shmget(7, 1024, true).value();
  struct Seen {
    ShmSystem::AccessEvent ev;
    std::uint64_t faults;
  };
  std::vector<Seen> seen;
  w.shm(1).SetAccessHook(
      [&](const ShmSystem::AccessEvent& ev) { seen.push_back({ev, Faults(1)}); });
  auto same = [](const ShmSystem::AccessEvent& a, const ShmSystem::AccessEvent& b) {
    return a.site == b.site && a.pid == b.pid && a.seg == b.seg && a.page == b.page &&
           a.offset == b.offset && a.kind == b.kind && a.value == b.value;
  };
  AsProcess(1, [&](Process* p) -> Task<> {
    auto& shm = w.shm(1);
    mmem::VAddr base = shm.Shmat(p, id).value();
    (void)co_await shm.ReadWord(p, base + 8);  // read fault
    (void)co_await shm.ReadWord(p, base + 8);  // hit
    co_await shm.WriteWord(p, base + 8, 7);    // write fault (upgrade)
    co_await shm.WriteWord(p, base + 8, 7);    // hit
    co_await shm.WriteByte(p, base + 20, 1);   // hit, unhooked
    (void)co_await shm.ReadByte(p, base + 20);
    (void)co_await shm.TestAndSet(p, base + 512 + 4);  // write fault on page 1
    (void)co_await shm.TestAndSet(p, base + 512 + 4);  // hit
  });
  ASSERT_EQ(seen.size(), 6u);
  const std::uint64_t f0 = seen[0].faults;
  EXPECT_GT(f0, 0u);
  // Slow path, then fast path with no further fault, for each word kind.
  EXPECT_TRUE(same(seen[0].ev, seen[1].ev));
  EXPECT_EQ(seen[1].faults, f0);
  EXPECT_TRUE(same(seen[2].ev, seen[3].ev));
  EXPECT_EQ(seen[2].faults, f0 + 1);
  EXPECT_EQ(seen[3].faults, f0 + 1);
  EXPECT_EQ(seen[4].faults, f0 + 2);
  EXPECT_EQ(seen[5].faults, f0 + 2);
  EXPECT_EQ(seen[0].ev.kind, ShmSystem::AccessKind::kRead);
  EXPECT_EQ(seen[0].ev.site, 1);
  EXPECT_EQ(seen[0].ev.seg, id);
  EXPECT_EQ(seen[0].ev.page, 0);
  EXPECT_EQ(seen[0].ev.offset, 8);
  EXPECT_EQ(seen[0].ev.value, 0u);
  EXPECT_EQ(seen[2].ev.kind, ShmSystem::AccessKind::kWrite);
  EXPECT_EQ(seen[2].ev.value, 7u);
  // TestAndSet events differ only in the pre-set value they returned.
  ShmSystem::AccessEvent rmw = seen[4].ev;
  EXPECT_EQ(rmw.kind, ShmSystem::AccessKind::kRmw);
  EXPECT_EQ(rmw.page, 1);
  EXPECT_EQ(rmw.offset, 4);
  EXPECT_EQ(rmw.value, 0u);
  rmw.value = 1;
  EXPECT_TRUE(same(rmw, seen[5].ev));
}

// Building an access without awaiting it does nothing: no fault, no image
// change, no hook.
TEST_F(SysvTest, UnawaitedAccessIsLazy) {
  int id = w.shm(0).Shmget(7, 512, true).value();
  int hooked = 0;
  w.shm(1).SetAccessHook([&](const ShmSystem::AccessEvent&) { ++hooked; });
  AsProcess(1, [&](Process* p) -> Task<> {
    auto& shm = w.shm(1);
    mmem::VAddr base = shm.Shmat(p, id).value();
    (void)shm.WriteWord(p, base, 9);  // built and dropped; page not resident
    EXPECT_EQ(Faults(1), 0u);
    EXPECT_EQ(hooked, 0);
    co_await shm.WriteWord(p, base, 1);
    (void)shm.WriteWord(p, base, 2);  // built and dropped; page resident, writable
    EXPECT_EQ(hooked, 1);
    EXPECT_EQ(co_await shm.ReadWord(p, base), 1u);
  });
}

// A page invalidated while the process was off the CPU must not be read
// through the stale process PTE: the schedule-in remap drops it and the
// next access takes the fault path and sees the remote write.
TEST_F(SysvTest, PageInvalidatedWhileReadyTakesFaultPath) {
  int id = w.shm(0).Shmget(7, 512, true).value();
  bool reader_done = false;
  bool writer_done = false;
  std::uint64_t faults_before = 0;
  std::uint64_t faults_after = 0;
  std::uint32_t seen = 0;
  w.kernel(1).Spawn("reader", Priority::kUser, [&](Process* p) -> Task<> {
    auto& shm = w.shm(1);
    mmem::VAddr base = shm.Shmat(p, id).value();
    EXPECT_EQ(co_await shm.ReadWord(p, base), 0u);  // read copy installed
    co_await w.kernel(1).Compute(p, 2 * kSecond);    // writer strikes meanwhile
    faults_before = Faults(1);
    seen = co_await shm.ReadWord(p, base);
    faults_after = Faults(1);
    reader_done = true;
  });
  w.kernel(0).Spawn("writer", Priority::kUser, [&](Process* p) -> Task<> {
    auto& shm = w.shm(0);
    mmem::VAddr base = shm.Shmat(p, id).value();
    co_await w.kernel(0).Compute(p, 500 * kMillisecond);
    co_await shm.WriteWord(p, base, 42);
    writer_done = true;
  });
  ASSERT_TRUE(w.RunUntil([&] { return reader_done && writer_done; }, 30 * kSecond));
  EXPECT_EQ(seen, 42u);
  EXPECT_EQ(faults_after, faults_before + 1);
}

// One million back-to-back resident accesses with no Compute in between:
// the fast path never suspends, so this must not grow the stack even in
// sanitizer builds, where symmetric transfer is not a tail call.
TEST_F(SysvTest, MillionBackToBackResidentAccesses) {
  constexpr int kPairs = 500000;
  int id = w.shm(0).Shmget(7, 512, true).value();
  AsProcess(0, [&](Process* p) -> Task<> {
    auto& shm = w.shm(0);
    mmem::VAddr base = shm.Shmat(p, id).value();
    co_await shm.WriteWord(p, base, 0);
    for (int i = 0; i < kPairs; ++i) {
      const std::uint32_t v = co_await shm.ReadWord(p, base);
      co_await shm.WriteWord(p, base, v + 1);
    }
    EXPECT_EQ(co_await shm.ReadWord(p, base), static_cast<std::uint32_t>(kPairs));
  });
}

}  // namespace
