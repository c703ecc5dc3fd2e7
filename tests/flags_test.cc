// Tests for the command-line flags shared by experiment_runner and
// scenario_runner: each flag lands in its ExperimentSpec field, malformed
// input is rejected, the fault flags fold into plans per mode, and the
// single-run mode refuses a sweep.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/exp/flags.h"

namespace {

using Mode = mexp::SpecFlags::Mode;
using Result = mexp::SpecFlags::Result;

// Applies every argument; fails the test on any that is not applied.
mexp::ExperimentSpec ApplyAll(Mode mode, const std::vector<std::string>& args) {
  mexp::SpecFlags flags(mode);
  mexp::ExperimentSpec spec;
  for (const std::string& a : args) {
    std::string error;
    EXPECT_EQ(flags.Apply(a, &spec, &error), Result::kApplied) << a << ": " << error;
  }
  return spec;
}

// The error of the first argument that is malformed or of Finish; empty
// when everything is accepted.
std::string FirstError(Mode mode, const std::vector<std::string>& args) {
  mexp::SpecFlags flags(mode);
  mexp::ExperimentSpec spec;
  std::string error;
  for (const std::string& a : args) {
    if (flags.Apply(a, &spec, &error) != Result::kApplied) {
      return error.empty() ? "not shared: " + a : error;
    }
  }
  flags.Finish(spec, &error);
  return error;
}

TEST(SpecFlags, EverySharedFlagLandsInItsSpecField) {
  const mexp::ExperimentSpec spec = ApplyAll(
      Mode::kSweep,
      {"--workload=kvstore", "--sites=2,4,8", "--delta=0,120", "--quantum=3,6",
       "--segbytes=256,512", "--loss=0,0.02", "--replicas=1,3", "--zipf=0,0.9",
       "--mix=0.5,0.95", "--kvreplicas=1,2", "--cost=ethernet1989,rdma", "--offsets=0,170",
       "--keys=64", "--rate=240.5", "--kvops=400", "--reps=3", "--seed=0x2a", "--iters=777",
       "--rounds=9", "--lib=2", "--max-time-s=60", "--no-yield", "--parallel-lib",
       "--baseline"});
  EXPECT_EQ(spec.workload, "kvstore");
  EXPECT_EQ(spec.sites, (std::vector<int>{2, 4, 8}));
  EXPECT_EQ(spec.delta_ms, (std::vector<std::int64_t>{0, 120}));
  EXPECT_EQ(spec.quantum_ticks, (std::vector<int>{3, 6}));
  EXPECT_EQ(spec.segment_bytes, (std::vector<std::uint32_t>{256, 512}));
  EXPECT_EQ(spec.loss, (std::vector<double>{0.0, 0.02}));
  EXPECT_EQ(spec.replicas, (std::vector<int>{1, 3}));
  EXPECT_EQ(spec.zipf_s, (std::vector<double>{0.0, 0.9}));
  EXPECT_EQ(spec.get_mix, (std::vector<double>{0.5, 0.95}));
  EXPECT_EQ(spec.kv_replicas, (std::vector<int>{1, 2}));
  EXPECT_EQ(spec.cost_presets, (std::vector<std::string>{"ethernet1989", "rdma"}));
  EXPECT_EQ(spec.phase_offsets_ms, (std::vector<std::int64_t>{0, 170}));
  EXPECT_EQ(spec.kv_keys, 64u);
  EXPECT_DOUBLE_EQ(spec.kv_arrival_per_s, 240.5);
  EXPECT_EQ(spec.kv_ops_per_site, 400u);
  EXPECT_EQ(spec.repetitions, 3);
  EXPECT_EQ(spec.seed, 42u);
  EXPECT_EQ(spec.iterations, 777);
  EXPECT_EQ(spec.rounds, 9);
  EXPECT_EQ(spec.library_site, 2);
  EXPECT_EQ(spec.max_time_s, 60);
  EXPECT_FALSE(spec.use_yield);
  EXPECT_TRUE(spec.parallel_lib);
  EXPECT_TRUE(spec.baseline);
  std::string error;
  EXPECT_TRUE(mexp::SpecFlags(Mode::kSweep).Finish(spec, &error)) << error;
}

TEST(SpecFlags, RunnerOwnedArgumentsAreNotShared) {
  mexp::SpecFlags flags(Mode::kSweep);
  mexp::ExperimentSpec spec;
  std::string error;
  for (const char* a : {"fig8", "4", "--json", "--trace", "--threads=4", "--quiet",
                        "--baseline=bench/x.json", "--out=r.json", "--spec=s.json"}) {
    EXPECT_EQ(flags.Apply(a, &spec, &error), Result::kNotShared) << a;
    EXPECT_TRUE(error.empty()) << a;
  }
  EXPECT_FALSE(spec.baseline);  // --baseline=FILE is the diff, not the Li/Hudak switch
}

TEST(SpecFlags, MalformedInputIsRejected) {
  for (Mode mode : {Mode::kSweep, Mode::kSingleRun}) {
    EXPECT_NE(FirstError(mode, {"--crash=2"}).find("bad --crash"), std::string::npos);
    EXPECT_NE(FirstError(mode, {"--crash=x@50"}).find("bad --crash"), std::string::npos);
    EXPECT_NE(FirstError(mode, {"--pause=0@400:100"}).find("bad --pause"), std::string::npos);
    EXPECT_NE(FirstError(mode, {"--cut=0-1@400:100"}).find("bad --cut"), std::string::npos);
    EXPECT_NE(FirstError(mode, {"--recover=150:1"}).find("--recover needs"),
              std::string::npos);
    EXPECT_NE(FirstError(mode, {"--recover=150"}).find("bad --recover"), std::string::npos);
    EXPECT_NE(FirstError(mode, {"--cost=token-ring"}).find("unknown cost preset"),
              std::string::npos);
    EXPECT_NE(FirstError(mode, {"--mix=2"}).find("get_mix"), std::string::npos);
    EXPECT_NE(FirstError(mode, {"--replicas=0"}).find("replicas"), std::string::npos);
    EXPECT_NE(FirstError(mode, {"--kvreplicas=0"}).find("kv_replicas"), std::string::npos);
    EXPECT_NE(FirstError(mode, {"--sites=0"}).find("sites"), std::string::npos);
    EXPECT_NE(FirstError(mode, {"--sites=513"}).find("sites"), std::string::npos);
    EXPECT_NE(FirstError(mode, {"--sites=2,,4"}).find("bad list"), std::string::npos);
    EXPECT_NE(FirstError(mode, {"--workload=nope"}).find("unknown workload"),
              std::string::npos);
    // A recovery of a site that is up at that time fails the plan check.
    EXPECT_NE(FirstError(mode, {"--crash=1@200", "--recover=100:1"}).find("invalid fault plan"),
              std::string::npos);
    // Equal endpoints are a valid (empty) window.
    EXPECT_EQ(FirstError(mode, {"--pause=0@100:100"}), "");
  }
}

TEST(SpecFlags, SingleRunFoldsEveryFaultFlagIntoOnePlanInFlagOrder) {
  const mexp::ExperimentSpec spec =
      ApplyAll(Mode::kSingleRun, {"--crash=2@50", "--pause=0@100:400", "--recover=300:2",
                                  "--cut=0-1@10:20"});
  ASSERT_EQ(spec.fault_plans.size(), 1u);
  EXPECT_EQ(spec.fault_plans[0].name, "scenario");
  using K = mfault::FaultKind;
  const std::vector<std::pair<K, msim::Time>> want = {
      {K::kCrashSite, 50}, {K::kPauseSite, 100},     {K::kResumeSite, 400},
      {K::kRecoverSite, 300}, {K::kPartitionLink, 10}, {K::kHealLink, 20}};
  const std::vector<mfault::FaultEvent>& events = spec.fault_plans[0].plan.events();
  ASSERT_EQ(events.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(events[i].kind, want[i].first) << i;
    EXPECT_EQ(events[i].at_us, want[i].second * msim::kMillisecond) << i;
  }
  EXPECT_EQ(events[0].site, 2);
  EXPECT_EQ(events[4].site, 0);
  EXPECT_EQ(events[4].peer, 1);
  std::string error;
  EXPECT_TRUE(mexp::SpecFlags(Mode::kSingleRun).Finish(spec, &error)) << error;
  EXPECT_EQ(spec.PointCount(), 1);
}

TEST(SpecFlags, SweepMakesOnePlanPerFaultFlagAndRecoverExtendsTheLast) {
  const mexp::ExperimentSpec spec = ApplyAll(
      Mode::kSweep, {"--crash=2@50", "--recover=150:2", "--pause=0@100:400", "--cut=0-1@10:20"});
  ASSERT_EQ(spec.fault_plans.size(), 3u);
  EXPECT_EQ(spec.fault_plans[0].name, "crash1");
  EXPECT_EQ(spec.fault_plans[1].name, "pause2");
  EXPECT_EQ(spec.fault_plans[2].name, "cut3");
  ASSERT_EQ(spec.fault_plans[0].plan.events().size(), 2u);
  EXPECT_EQ(spec.fault_plans[0].plan.events()[1].kind, mfault::FaultKind::kRecoverSite);
  EXPECT_EQ(spec.PointCount(), 3);
}

TEST(SpecFlags, SingleRunRefusesASweep) {
  for (const std::vector<std::string>& args :
       std::vector<std::vector<std::string>>{{"--sites=2,4"},
                                             {"--delta=0,10"},
                                             {"--loss=0,0.1"},
                                             {"--cost=ethernet1989,rdma"},
                                             {"--reps=2"}}) {
    EXPECT_NE(FirstError(Mode::kSingleRun, args).find("experiment_runner"), std::string::npos)
        << args[0];
    EXPECT_EQ(FirstError(Mode::kSweep, args), "") << args[0];
  }
  // Several fault flags are still one run in single-run mode.
  EXPECT_EQ(FirstError(Mode::kSingleRun, {"--crash=1@50", "--crash=2@60"}), "");
}

}  // namespace
