// Rules of the engine's one reply-collection primitive, Engine::AckWait
// (DESIGN.md §8): how a gone site's owed replies are forgiven, what
// completes a wait, and the stops that end one early. The struct rules are
// checked directly; the stops run AwaitAcks inside a live world.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>

#include "src/mirage/engine.h"
#include "src/sysv/world.h"

namespace mirage {

class EngineTestPeer {
 public:
  using AckWait = Engine::AckWait;
  static msim::Task<AckWait::End> AwaitAcks(Engine* e, mos::Process* p, AckWait& w) {
    return e->AwaitAcks(p, w);
  }
  static void ExpectAcks(Engine* e, AckWait& w) { e->ExpectAcks(w); }
  static void ForgetAcks(Engine* e, const AckWait& w) { e->ForgetAcks(w); }
  static void AdoptEpoch(Engine* e, mmem::SegmentId seg, std::uint32_t epoch) {
    e->AdoptEpoch(seg, epoch);
  }
};

}  // namespace mirage

namespace {

using mirage::EngineTestPeer;
using AckWait = EngineTestPeer::AckWait;
using End = AckWait::End;
using mmem::MaskOf;
using mos::Priority;
using mos::Process;
using msim::kMillisecond;
using msim::Task;
using msysv::World;
using msysv::WorldOptions;

TEST(AckWaitRules, ForgivenSiteCountsAsAck) {
  AckWait w;
  w.on_gone = AckWait::OnGone::kCountsAsAck;
  w.owed = MaskOf(1) | MaskOf(2);
  w.need = 2;
  w.Credit(1);
  EXPECT_FALSE(w.Complete());
  EXPECT_EQ(w.Forgive(MaskOf(2)), 1);
  EXPECT_EQ(w.owed, mmem::SiteMask(0));
  EXPECT_TRUE(w.Complete());
}

TEST(AckWaitRules, CountNotMaskDecidesCompletion) {
  // A re-spread expects one ack from a clock site it owes nothing to.
  AckWait w;
  w.need = 1;
  EXPECT_FALSE(w.Complete());
  w.Credit(3);
  EXPECT_TRUE(w.Complete());
}

TEST(AckWaitRules, ForgivenStandbyShrinksQuorum) {
  AckWait w;
  w.on_gone = AckWait::OnGone::kShrinksQuorum;
  w.owed = MaskOf(0) | MaskOf(1) | MaskOf(2);
  w.Credit(0);
  EXPECT_FALSE(w.Complete());  // 1 of k = 3: quorum is 2
  EXPECT_EQ(w.Forgive(MaskOf(1)), 1);
  EXPECT_EQ(w.got, 1);  // a forgiven standby is not progress
  EXPECT_FALSE(w.Complete());  // 1 of k_eff = 2: quorum is still 2
  w.Forgive(MaskOf(2));
  EXPECT_TRUE(w.Complete());  // 1 of k_eff = 1
}

TEST(AckWaitRules, QuorumNeedsOneRealAck) {
  AckWait w;
  w.on_gone = AckWait::OnGone::kShrinksQuorum;
  w.owed = MaskOf(1) | MaskOf(2);
  w.Forgive(MaskOf(1) | MaskOf(2));
  EXPECT_FALSE(w.Complete());
}

TEST(AckWaitRules, ForgivenPeerIsDropped) {
  AckWait w;
  w.on_gone = AckWait::OnGone::kDrop;
  w.owed = MaskOf(1) | MaskOf(2);
  w.Forgive(MaskOf(1));
  EXPECT_EQ(w.got, 0);
  EXPECT_FALSE(w.Complete());
  w.Credit(2);
  EXPECT_TRUE(w.Complete());
}

TEST(AckWaitRules, OwesTwoForgivenOnceCompletes) {
  AckWait w;
  w.Owe(1);
  w.Owe(1);
  w.need = 2;
  EXPECT_EQ(w.owed, MaskOf(1));
  EXPECT_EQ(w.Forgive(MaskOf(1)), 2);
  EXPECT_TRUE(w.Complete());
}

TEST(AckWaitRules, SiteStaysOwedUntilItsLastAck) {
  AckWait w;
  w.Owe(1);
  w.Owe(1);
  w.need = 2;
  w.Credit(1);
  EXPECT_EQ(w.owed, MaskOf(1));  // still owes one
  EXPECT_EQ(w.Forgive(MaskOf(1)), 1);
  EXPECT_TRUE(w.Complete());
}

// Runs AwaitAcks for `w` in a process at site 0 of `world` and records how
// and when it ended.
struct Outcome {
  bool done = false;
  End end = End::kComplete;
  msim::Time at = -1;
};

void SpawnWait(World& world, AckWait& w, Outcome& out) {
  mirage::Engine* e = world.engine(0);
  world.kernel(0).Spawn("ack-wait", Priority::kKernel, [&world, e, &w, &out](Process* p) -> Task<> {
    out.end = co_await EngineTestPeer::AwaitAcks(e, p, w);
    out.at = world.sim().Now();
    out.done = true;
  });
}

TEST(AckWaitStops, DeadlineCapsRecheckSleep) {
  World world(2);
  AckWait w;
  w.owed = MaskOf(1);
  w.need = 1;
  w.recheck = 300 * kMillisecond;
  w.deadline = 50 * kMillisecond;
  Outcome out;
  SpawnWait(world, w, out);
  ASSERT_TRUE(world.RunUntil([&] { return out.done; }, 1000 * kMillisecond));
  EXPECT_EQ(out.end, End::kDeadline);
  EXPECT_EQ(out.at, 50 * kMillisecond);
}

TEST(AckWaitStops, StaleEpochAborts) {
  World world(2);
  AckWait w;
  w.kind = AckWait::Kind::kInvalidate;
  w.seg = 7;
  w.owed = MaskOf(1);
  w.need = 1;
  w.fenced = true;
  w.epoch = 0;
  EngineTestPeer::AdoptEpoch(world.engine(0), 7, 1);
  Outcome out;
  SpawnWait(world, w, out);
  ASSERT_TRUE(world.RunUntil([&] { return out.done; }, 100 * kMillisecond));
  EXPECT_EQ(out.end, End::kStaleEpoch);
  EXPECT_EQ(world.engine(0)->stats().stale_epoch_drops, 1u);
}

TEST(AckWaitStops, WaitReplyInterruptsLibraryOp) {
  World world(2);
  AckWait w;
  w.seg = 3;
  w.id = 11;
  w.owed = MaskOf(1);
  w.need = 1;
  EngineTestPeer::ExpectAcks(world.engine(0), w);
  Outcome out;
  SpawnWait(world, w, out);
  world.sim().Schedule(20 * kMillisecond, [&] {
    mirage::WaitReplyBody r{3, 0, 11, 40 * kMillisecond, 0};
    world.network().Deliver(mnet::MakePacket(
        1, 0, static_cast<std::uint32_t>(mirage::MsgKind::kWaitReply), mirage::kShortMsgBytes, r));
  });
  ASSERT_TRUE(world.RunUntil([&] { return out.done; }, 1000 * kMillisecond));
  EngineTestPeer::ForgetAcks(world.engine(0), w);
  EXPECT_EQ(out.end, End::kWaitReply);
  EXPECT_EQ(w.wait_remaining_us, 40 * kMillisecond);
}

TEST(AckWaitStops, AckCreditsOnlyItsOwnSegment) {
  World world(2);
  AckWait w;
  w.seg = 3;
  w.id = 11;
  w.owed = MaskOf(1);
  w.need = 1;
  EngineTestPeer::ExpectAcks(world.engine(0), w);
  Outcome out;
  SpawnWait(world, w, out);
  auto ack = [&](mmem::SegmentId seg) {
    mirage::InstallAckBody a{seg, 0, 11, 1, 0};
    world.network().Deliver(mnet::MakePacket(
        1, 0, static_cast<std::uint32_t>(mirage::MsgKind::kInstallAck), mirage::kShortMsgBytes, a));
  };
  world.sim().Schedule(10 * kMillisecond, [&] { ack(4); });  // same request id, other segment
  world.RunFor(100 * kMillisecond);
  EXPECT_FALSE(out.done);
  EXPECT_EQ(w.got, 0);
  world.sim().Schedule(0, [&] { ack(3); });
  ASSERT_TRUE(world.RunUntil([&] { return out.done; }, 1000 * kMillisecond));
  EngineTestPeer::ForgetAcks(world.engine(0), w);
  EXPECT_EQ(out.end, End::kComplete);
}

TEST(AckWaitStops, EveryStandbyGoneFailsQuorum) {
  WorldOptions opts;
  opts.faults.CrashAt(1 * kMillisecond, 1);
  World world(3, std::move(opts));
  world.RunFor(2 * kMillisecond);
  AckWait w;
  w.kind = AckWait::Kind::kReplicate;
  w.on_gone = AckWait::OnGone::kShrinksQuorum;
  w.owed = MaskOf(1);
  w.since = world.sim().Now();
  w.recheck = 100 * kMillisecond;
  Outcome out;
  SpawnWait(world, w, out);
  ASSERT_TRUE(world.RunUntil([&] { return out.done; }, 1000 * kMillisecond));
  EXPECT_EQ(out.end, End::kGone);
}

TEST(AckWaitStops, ClockSiteGoneBeforeAnyAckFailsFast) {
  WorldOptions opts;
  opts.faults.CrashAt(1 * kMillisecond, 1);
  World world(3, std::move(opts));
  world.RunFor(2 * kMillisecond);
  AckWait w;
  w.owed = MaskOf(2);
  w.need = 1;
  w.since = world.sim().Now();
  w.recheck = 100 * kMillisecond;
  w.deadline = world.sim().Now() + 2000 * kMillisecond;
  w.clock_site = 1;
  Outcome out;
  SpawnWait(world, w, out);
  ASSERT_TRUE(world.RunUntil([&] { return out.done; }, 1000 * kMillisecond));
  EXPECT_EQ(out.end, End::kGone);
  EXPECT_LT(out.at, w.since + w.recheck);  // no re-examination, no deadline
}

}  // namespace
