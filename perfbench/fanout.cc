// fanout: the invalidation scan on a closed loop (LaunchScalability at the
// scalematrix tail). N sites, 505 <= N <= 512 drawn from the seed: one
// writer, N-1 readers; each round the readers re-read the page and the
// writer's write must invalidate all N-1 copies point to point. Loads net,
// mirage invalidation fan-out, the event queue and the os idle ticks; only
// ~4k word accesses per round, so a change to the access path should leave
// it unchanged.
#include <string>

#include "perfbench/bench.h"
#include "src/workload/scalability.h"

namespace perfbench {

namespace {

constexpr int kMaxSites = 512;  // SiteMask width
constexpr int kSiteChoices = 8;
constexpr int kRounds = 8;
constexpr msim::Duration kDelta = 50 * msim::kMillisecond;  // the scalematrix preset's

constexpr msim::Duration kMaxTime = 3600 * msim::kSecond;

struct FanoutWorld {
  std::unique_ptr<msysv::World> world;
  std::shared_ptr<mwork::ScalabilityResult> res;
};

// Builds and launches the workload on `workers` simulator threads (1 is the
// serial core).
FanoutWorld Launch(int sites, int workers) {
  msysv::WorldOptions opts;
  opts.protocol.default_window_us = kDelta;
  opts.sim_workers = workers;
  opts.parallel_ok = workers > 1;
  FanoutWorld f{std::make_unique<msysv::World>(sites, opts), nullptr};
  mwork::ScalabilityParams prm;
  prm.rounds = kRounds;
  f.res = mwork::LaunchScalability(*f.world, prm);
  return f;
}

// Host seconds to run a fresh fanout world on `workers` simulator threads,
// and its per-round write latencies.
std::pair<double, std::vector<msim::Duration>> TimeOneRun(int sites, int workers) {
  const FanoutWorld f = Launch(sites, workers);
  const double t0 = HostNow();
  f.world->RunUntil([&f] { return f.res->completed; }, kMaxTime);
  return {HostNow() - t0, f.res->write_latencies_us};
}

}  // namespace

PassResult RunFanout(const WorkloadArgs& a) {
  PassResult r;
  Tracer* tr = a.tracer;
  std::vector<msysv::World*> worlds;

  const double setup_t0 = HostNow();
  const int setup_span = tr ? tr->Begin("setup") : -1;
  const int sites = kMaxSites - static_cast<int>(SplitMix(a.seed) % kSiteChoices);
  const FanoutWorld f = Launch(sites, 1);
  msysv::World* world = f.world.get();
  const mwork::ScalabilityResult* res = f.res.get();
  worlds.push_back(world);
  if (tr) {
    tr->Watch(*world);
    tr->End(setup_span);
  }
  r.setup_s = HostNow() - setup_t0;

  const Counters before = Snapshot(worlds, tr ? tr->accesses() : 0);
  const int timed_span = tr ? tr->Begin("timed") : -1;
  const msim::Time sim0 = world->sim().Now();
  const std::uint64_t allocs0 = AllocCount();
  const double t0 = HostNow();
  if (tr) {
    // One span per round, cut where the polled round counter advances.
    int seen = -1;
    int span = -1;
    world->RunUntil(
        [&] {
          if (res->rounds_done != seen) {
            if (span >= 0) {
              tr->End(span);
            }
            seen = res->rounds_done;
            span = res->completed ? -1
                                  : tr->Begin("round " + std::to_string(seen), timed_span,
                                              world);
          }
          return res->completed;
        },
        kMaxTime);
    if (span >= 0) {
      tr->End(span);
    }
  } else {
    world->RunUntil([&] { return res->completed; }, kMaxTime);
  }
  r.wall_s = HostNow() - t0;
  r.allocs = AllocCount() - allocs0;
  if (tr) {
    tr->End(timed_span);
  }
  r.timed = Snapshot(worlds, tr ? tr->accesses() : 0) - before;
  const int collect_span = tr ? tr->Begin("collect") : -1;

  r.ops = kRounds;
  const int done = res->rounds_done;
  if (!res->completed || done != kRounds) {
    r.failed = static_cast<std::uint64_t>(kRounds - std::min(done, kRounds));
    r.errors.push_back("fanout finished " + std::to_string(done) + " of " +
                       std::to_string(kRounds) + " rounds");
  }
  // Every round's write must invalidate exactly the N-1 reader copies.
  const std::uint64_t want = static_cast<std::uint64_t>(kRounds) * (sites - 1);
  if (r.timed.invalidations != want) {
    r.errors.push_back("fanout invalidated " + std::to_string(r.timed.invalidations) +
                       " copies, expected " + std::to_string(want));
  }
  const double sim_s = msim::ToSeconds(world->sim().Now() - sim0);
  r.sim_ops_s = sim_s > 0 ? done / sim_s : 0.0;
  r.layer["mirage.inv_write_ms"] = res->MeanWriteLatencyMs();
  if (a.probes) {
    const auto [serial_s, serial_lat] = TimeOneRun(sites, 1);
    const auto [par_s, par_lat] = TimeOneRun(sites, 2);
    if (serial_lat != par_lat) {
      r.errors.push_back("fanout: the 2-worker simulator diverged from the serial one");
    }
    r.layer["sim.par2_speedup"] = serial_s / par_s;
  }

  std::uint64_t fp = 1469598103934665603ULL;
  for (msim::Duration d : res->write_latencies_us) {
    Fold(&fp, static_cast<std::uint64_t>(d));
  }
  Fold(&fp, static_cast<std::uint64_t>(world->sim().Now()));
  FoldCounters(&fp, r.timed);
  r.fingerprint = fp;
  if (tr) {
    tr->End(collect_span);
  }
  return r;
}

}  // namespace perfbench
