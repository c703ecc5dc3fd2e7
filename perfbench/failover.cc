// failover: the worst-case ping-pong (LaunchPingPong, players on sites 0 and
// 1) with its segment homed on a pure-controller library (site 2), page
// replication k = 2, and a reader on site 3 that holds a copy. A FaultPlan
// drawn from the seed crashes the library once (failover elects a new one),
// then repeatedly crashes and rejoins the reader's site and the old library
// site. The only workload that runs fault/ and mirage's election, recovery
// and quorum waits.
#include <string>

#include "perfbench/bench.h"
#include "src/mirage/invariants.h"
#include "src/workload/pingpong.h"

namespace perfbench {

namespace {

constexpr int kSites = 4;
constexpr int kLibrarySite = 2;
constexpr int kHolderSite = 3;
constexpr msim::Duration kMs = msim::kMillisecond;
// A cycle takes ~0.26 simulated s, so the game lasts ~1500 s; the crash
// cycles (holder, then old library, each crashed and rejoined) run through
// all but its last ~200 s.
constexpr int kRounds = 6000;
constexpr int kCycles = 45;
constexpr msim::Duration kCyclePeriod = 30 * msim::kSecond;
constexpr msim::Duration kObserverPeriod = 40 * kMs;
// After the ping-pong ends: time for the last rejoin's re-spread to settle
// before the invariants are checked.
constexpr msim::Duration kQuiesce = 3 * msim::kSecond;

struct Plan {
  mfault::FaultPlan plan;
  msim::Time end = 0;  // last fault event
};

Plan MakePlan(std::uint64_t seed) {
  Plan p;
  int salt = 100;
  auto jitter = [&](double ms) {
    return static_cast<msim::Duration>(Uniform(seed, ++salt) * ms * kMs);
  };
  const msim::Time lib_crash = 300 * kMs + jitter(200);
  const msim::Time lib_back = lib_crash + 1000 * kMs + jitter(500);
  p.plan.CrashAt(lib_crash, kLibrarySite).RecoverAt(lib_back, kLibrarySite);
  p.end = lib_back;
  for (int j = 0; j < kCycles; ++j) {
    const msim::Time base = 3000 * kMs + j * kCyclePeriod;
    const msim::Time h_crash = base + jitter(500);
    const msim::Time h_back = h_crash + 600 * kMs + jitter(400);
    const msim::Time l_crash = base + 1300 * kMs + jitter(300);
    const msim::Time l_back = l_crash + 500 * kMs + jitter(300);
    p.plan.CrashAt(h_crash, kHolderSite).RecoverAt(h_back, kHolderSite);
    p.plan.CrashAt(l_crash, kLibrarySite).RecoverAt(l_back, kLibrarySite);
    p.end = std::max(h_back, l_back);
  }
  return p;
}

// The copy holder on site 3: re-reads the ping-pong page every
// kObserverPeriod until the game ends. Respawned after each rejoin.
void SpawnObserver(msysv::World& w, std::uint64_t key,
                   std::shared_ptr<mwork::PingPongResult> res) {
  w.kernel(kHolderSite)
      .Spawn("holder", mos::Priority::kUser, [&w, key, res](mos::Process* p) -> msim::Task<> {
        auto& shm = w.shm(kHolderSite);
        const int id = shm.Shmget(key, 512, /*create=*/false).value();
        const mmem::VAddr base = shm.Shmat(p, id).value();
        while (!res->completed()) {
          (void)co_await shm.ReadWord(p, base);
          co_await w.kernel(kHolderSite).SleepFor(p, kObserverPeriod);
        }
        shm.Shmdt(p, base);
      });
}

}  // namespace

PassResult RunFailover(const WorkloadArgs& a) {
  PassResult r;
  Tracer* tr = a.tracer;
  std::vector<msysv::World*> worlds;

  const double setup_t0 = HostNow();
  const int setup_span = tr ? tr->Begin("setup") : -1;
  const Plan plan = MakePlan(a.seed);
  msysv::WorldOptions opts;
  opts.protocol.replicas = 2;
  opts.faults = plan.plan;
  // Recovery timeouts, as every fault-injected harness in the repository
  // sets them: the paper's wait-forever defaults hang a crashed library's
  // clients.
  opts.protocol.request_timeout_us = 250 * kMs;
  opts.protocol.max_request_attempts = 5;
  opts.protocol.ack_timeout_us = 250 * kMs;
  opts.protocol.op_timeout_us = 2 * msim::kSecond;
  auto world = std::make_unique<msysv::World>(kSites, opts);
  mwork::PingPongParams prm;
  prm.rounds = kRounds;
  prm.site_b = 1;
  (void)world->shm(kLibrarySite).Shmget(prm.key, prm.segment_bytes, /*create=*/true);
  auto res = mwork::LaunchPingPong(*world, prm);
  SpawnObserver(*world, prm.key, res);
  mfault::FaultInjector* inj = world->faults();
  inj->AddRecoverObserver([&w = *world, key = prm.key, res](mnet::SiteId s) {
    if (s == kHolderSite && !res->completed()) {
      SpawnObserver(w, key, res);
    }
  });
  // Fault-injector transitions, stamped as they happen.
  msim::Time last_crash = 0;
  msim::Time last_recover = 0;
  inj->AddCrashObserver([&](mnet::SiteId) { last_crash = world->sim().Now(); });
  inj->AddRecoverObserver([&](mnet::SiteId) { last_recover = world->sim().Now(); });
  worlds.push_back(world.get());
  if (tr) {
    tr->Watch(*world);
    tr->End(setup_span);
  }
  r.setup_s = HostNow() - setup_t0;

  const Counters before = Snapshot(worlds, tr ? tr->accesses() : 0);
  const int timed_span = tr ? tr->Begin("timed") : -1;
  const std::uint64_t allocs0 = AllocCount();
  const double t0 = HostNow();
  // Polled once per clock tick: the longest simulated gap with no completed
  // cycle (the outage a crash causes); how long after a crash a directory
  // recovery completes and after a revival a rejoin completes; and in a
  // traced run one span per crash phase, cut at each fault-injector
  // transition.
  auto engine_sum = [&](std::uint64_t mirage::EngineStats::*f) {
    std::uint64_t n = 0;
    for (int s = 0; s < kSites; ++s) {
      n += world->engine(s)->stats().*f;
    }
    return n;
  };
  std::uint64_t recoveries = engine_sum(&mirage::EngineStats::recoveries_completed);
  std::uint64_t rejoins = engine_sum(&mirage::EngineStats::rejoins);
  std::vector<double> recovery_ms, rejoin_ms;
  int last_cycles = 0;
  msim::Time last_progress = world->sim().Now();
  msim::Duration outage = 0;
  msim::Time done_at = 0;
  std::uint64_t seen_faults = 0;
  int phase_span = tr ? tr->Begin("phase 0", timed_span, world.get()) : -1;
  bool aborted = false;
  auto poll = [&] {
    const msim::Time now = world->sim().Now();
    if (res->cycles != last_cycles) {
      last_cycles = res->cycles;
      last_progress = now;
    } else if (!res->completed()) {
      outage = std::max(outage, now - last_progress);
    }
    if (const std::uint64_t n = engine_sum(&mirage::EngineStats::recoveries_completed);
        n != recoveries) {
      recoveries = n;
      recovery_ms.push_back(msim::ToMilliseconds(now - last_crash));
    }
    if (const std::uint64_t n = engine_sum(&mirage::EngineStats::rejoins); n != rejoins) {
      rejoins = n;
      rejoin_ms.push_back(msim::ToMilliseconds(now - last_recover));
    }
    if (tr) {
      const mfault::FaultInjectorStats& fs = inj->stats();
      const std::uint64_t faults = fs.crashes + fs.recoveries;
      if (faults != seen_faults) {
        seen_faults = faults;
        tr->End(phase_span);
        phase_span = tr->Begin("phase " + std::to_string(faults), timed_span, world.get());
      }
    }
    if (res->completed() && done_at == 0) {
      done_at = now;
    }
    return done_at != 0 && now >= std::max(done_at, plan.end) + kQuiesce;
  };
  try {
    world->RunUntil(poll, 3600 * msim::kSecond);
  } catch (const msysv::PageFaultError& e) {
    aborted = true;
    r.errors.push_back(std::string("failover: ") + e.what());
  }
  r.wall_s = HostNow() - t0;
  r.allocs = AllocCount() - allocs0;
  if (tr) {
    tr->End(phase_span);
    tr->End(timed_span);
  }
  r.timed = Snapshot(worlds, tr ? tr->accesses() : 0) - before;
  const int collect_span = tr ? tr->Begin("collect") : -1;

  r.ops = kRounds;
  if (aborted || !res->completed() || res->cycles != kRounds) {
    r.failed = static_cast<std::uint64_t>(kRounds - std::min(res->cycles, kRounds));
    r.errors.push_back("failover completed " + std::to_string(res->cycles) + " of " +
                       std::to_string(kRounds) + " cycles");
  }
  if (r.timed.pages_lost != 0) {
    r.errors.push_back("failover lost " + std::to_string(r.timed.pages_lost) +
                       " pages at k = 2");
  }
  if (r.timed.crashes != 1 + 2 * kCycles || r.timed.revivals != 1 + 2 * kCycles) {
    r.errors.push_back("failover fault plan did not run to the end");
  }
  std::vector<mirage::Engine*> engines;
  for (int s = 0; s < kSites; ++s) {
    engines.push_back(world->engine(s));
  }
  mirage::InvariantChecker checker(engines);
  checker.SetLiveness([inj](mnet::SiteId s) { return inj->SiteUp(s); });
  const mirage::InvariantReport full = checker.CheckFull(world->registry());
  const mirage::InvariantReport cov = checker.CheckReplicaCoverage(world->registry());
  for (const std::string& v : full.violations) {
    r.errors.push_back("failover invariant: " + v);
  }
  for (const std::string& v : cov.violations) {
    r.errors.push_back("failover replica coverage: " + v);
  }

  const double game_s = msim::ToSeconds(res->end_time - res->start_time);
  r.sim_ops_s = game_s > 0 ? res->cycles / game_s : 0.0;
  r.layer["fault.outage_ms"] = msim::ToMilliseconds(outage);
  auto mean = [](const std::vector<double>& v) {
    double sum = 0;
    for (double x : v) {
      sum += x;
    }
    return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
  };
  r.layer["fault.recovery_ms"] = mean(recovery_ms);
  r.layer["fault.rejoin_ms"] = mean(rejoin_ms);

  std::uint64_t fp = 1469598103934665603ULL;
  Fold(&fp, static_cast<std::uint64_t>(res->cycles));
  Fold(&fp, static_cast<std::uint64_t>(res->start_time));
  Fold(&fp, static_cast<std::uint64_t>(res->end_time));
  Fold(&fp, static_cast<std::uint64_t>(outage));
  FoldDouble(&fp, mean(recovery_ms));
  FoldDouble(&fp, mean(rejoin_ms));
  FoldCounters(&fp, r.timed);
  r.fingerprint = fp;
  if (tr) {
    tr->End(collect_span);
  }
  return r;
}

}  // namespace perfbench
