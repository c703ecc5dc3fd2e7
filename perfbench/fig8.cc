// fig8: the paper's Figure 8 on a closed loop. Two processes on two sites
// decrement neighbouring words of one page (LaunchReadWriters) at 13 window
// sizes Δ spanning the contention, plateau and retention regimes, each at 5
// start phases drawn from the seed. Loads the System V access path, the os
// quantum scheduler and Δ refusals; few packets per access; no dsmlib, no
// faults.
#include <cmath>
#include <string>

#include "perfbench/bench.h"
#include "src/workload/readwriters.h"

namespace perfbench {

namespace {

constexpr std::int64_t kDeltaMs[] = {0, 10, 30, 60, 120, 200, 300, 450, 600, 900, 1200, 1600,
                                     2000};
constexpr int kPhases = 5;
// One phase per 240 ms stratum of [0, 1200) ms, jittered by the seed: the
// paper's fixed phases {0, 170, 410, 730, 1130} ms sample the same range.
constexpr msim::Duration kPhaseStratumUs = 240 * msim::kMillisecond;
constexpr int kIterations = 50000;
// Each process reads and writes once per iteration, plus its initial write
// and final read.
constexpr std::uint64_t kOpsPerRun = 4ULL * kIterations + 2;
// The paper's plateau peak (EXPERIMENTS.md E8).
constexpr double kPaperPeakOps = 115000.0;

constexpr msim::Duration kMaxTime = 600 * msim::kSecond;

struct Fig8Run {
  std::int64_t delta_ms = 0;
  msim::Duration phase_us = 0;
  std::unique_ptr<msysv::World> world;
  std::shared_ptr<mwork::ReadWritersResult> res;
};

// Builds and launches one world on `workers` simulator threads (1 is the
// serial core).
Fig8Run Launch(std::int64_t delta_ms, msim::Duration phase_us, int workers) {
  Fig8Run run;
  run.delta_ms = delta_ms;
  run.phase_us = phase_us;
  msysv::WorldOptions opts;
  opts.protocol.default_window_us = delta_ms * msim::kMillisecond;
  opts.sim_workers = workers;
  opts.parallel_ok = workers > 1;
  run.world = std::make_unique<msysv::World>(2, opts);
  mwork::ReadWritersParams prm;
  prm.iterations = kIterations;
  prm.start_offset_us = phase_us;
  prm.site_b = 1;
  run.res = mwork::LaunchReadWriters(*run.world, prm);
  return run;
}

// Host seconds to run a fresh world (Δ = 600 ms, phase 0) on `workers`
// simulator threads, and its simulated end time.
std::pair<double, msim::Time> TimeOneRun(int workers) {
  const Fig8Run run = Launch(600, 0, workers);
  const double t0 = HostNow();
  run.world->RunUntil([&run] { return run.res->completed(); }, kMaxTime);
  return {HostNow() - t0, run.res->end_time()};
}

}  // namespace

PassResult RunFig8(const WorkloadArgs& a) {
  PassResult r;
  std::vector<Fig8Run> runs;
  std::vector<msysv::World*> worlds;
  Tracer* tr = a.tracer;

  const double setup_t0 = HostNow();
  const int setup_span = tr ? tr->Begin("setup") : -1;
  int salt = 0;
  for (std::int64_t delta : kDeltaMs) {
    for (int k = 0; k < kPhases; ++k) {
      const auto phase = static_cast<msim::Duration>((k + Uniform(a.seed, ++salt)) *
                                                     static_cast<double>(kPhaseStratumUs));
      Fig8Run run = Launch(delta, phase, 1);
      worlds.push_back(run.world.get());
      if (tr) {
        tr->Watch(*run.world);
      }
      runs.push_back(std::move(run));
    }
  }
  if (tr) {
    tr->End(setup_span);
  }
  r.setup_s = HostNow() - setup_t0;

  const Counters before = Snapshot(worlds, tr ? tr->accesses() : 0);
  const int timed_span = tr ? tr->Begin("timed") : -1;
  const std::uint64_t allocs0 = AllocCount();
  const double t0 = HostNow();
  for (Fig8Run& run : runs) {
    const int span = tr ? tr->Begin("delta=" + std::to_string(run.delta_ms) + "ms phase=" +
                                        std::to_string(run.phase_us / 1000) + "ms",
                                    timed_span, run.world.get())
                        : -1;
    run.world->RunUntil([&run] { return run.res->completed(); }, kMaxTime);
    if (tr) {
      tr->End(span);
    }
  }
  r.wall_s = HostNow() - t0;
  r.allocs = AllocCount() - allocs0;
  if (tr) {
    tr->End(timed_span);
  }
  r.timed = Snapshot(worlds, tr ? tr->accesses() : 0) - before;
  const int collect_span = tr ? tr->Begin("collect") : -1;

  // Collect and check.
  double sum_rate = 0;
  std::map<std::int64_t, double> rate_by_delta;
  std::uint64_t fp = 1469598103934665603ULL;
  for (const Fig8Run& run : runs) {
    const std::uint64_t ops = run.res->total_ops();
    r.ops += kOpsPerRun;
    if (!run.res->completed() || ops != kOpsPerRun) {
      r.failed += kOpsPerRun - std::min(ops, kOpsPerRun);
      r.errors.push_back("fig8 run delta=" + std::to_string(run.delta_ms) +
                         "ms did not complete its " + std::to_string(kOpsPerRun) + " ops");
    }
    const double rate = run.res->OpsPerSecond();
    sum_rate += rate;
    rate_by_delta[run.delta_ms] += rate / kPhases;
    Fold(&fp, ops);
    Fold(&fp, static_cast<std::uint64_t>(run.res->start_time()));
    Fold(&fp, static_cast<std::uint64_t>(run.res->end_time()));
  }
  FoldCounters(&fp, r.timed);
  r.fingerprint = fp;
  double peak = 0;
  for (const auto& [delta, rate] : rate_by_delta) {
    peak = std::max(peak, rate);
  }
  r.sim_ops_s = sum_rate / static_cast<double>(runs.size());
  if (a.probes) {
    const auto [serial_s, serial_end] = TimeOneRun(1);
    const auto [par_s, par_end] = TimeOneRun(2);
    if (serial_end != par_end) {
      r.errors.push_back("fig8: the 2-worker simulator diverged from the serial one");
    }
    r.layer["sim.par2_speedup"] = serial_s / par_s;
  }
  r.layer["workload.fig8_peak_err"] = std::abs(peak - kPaperPeakOps) / kPaperPeakOps;
  if (tr) {
    tr->End(collect_span);
  }
  return r;
}

}  // namespace perfbench
