// kv: an open-loop key-value client owned by the benchmark, over
// mdsm::DistHashMap on 4 sites (one shard homed per site). The seed fixes
// every request in advance: Poisson arrival times, the issuing site, a
// zipf(0.9) key and a 95/5 get/set mix. Each request is injected into its
// site's queue by a simulator event at exactly its due time, so a busy site
// cannot delay its own arrivals; latency runs from the due time to
// completion. Loads dsmlib, the library request queue and os process
// switches and remaps; the only workload with queueing and tail latency.
//
// A pass runs the nominal rate (about half of the highest sustainable rate)
// for the latency percentiles, then a fixed rate ladder for that highest
// rate: where get p99 reaches kP99LimitMs with the backlog not growing.
#include <algorithm>
#include <cmath>
#include <deque>
#include <string>

#include "perfbench/bench.h"
#include "src/dsmlib/dist_hashmap.h"

namespace perfbench {

namespace {

constexpr int kSites = 4;
constexpr std::uint32_t kKeys = 192;
constexpr std::uint32_t kValueWords = 4;
constexpr double kZipfS = 0.9;
constexpr double kGetMix = 0.95;
constexpr int kReadersPerSite = 3;  // plus one writer per site
constexpr msim::Duration kServiceCpuUs = 200;  // parse + hash + copy per request
constexpr std::uint64_t kBaseKey = 7000;
// About ten of the paper's 21.5 ms 1 KB round trips.
constexpr double kP99LimitMs = 200.0;
// Requests per simulated second over all sites: the nominal rate is about
// half the highest sustainable rate (~140/s on the 1989 cost model); the
// ladder steps ~6% through the knee around it.
constexpr double kNominalRate = 70.0;
constexpr int kNominalOps = 24000;  // >= 1000 sets, so >= 10 beyond the set p99
constexpr double kLadder[] = {100, 106, 112, 119, 126, 133, 141, 150, 159, 168, 178, 189, 200, 212};
constexpr int kLadderOps = 24000;
// Mean backlog in the last quarter of the arrivals above this multiple of
// the second quarter's counts as growing (a stationary queue stays near 1).
constexpr double kMaxBacklogGrowth = 2.0;
// A torn read (seqlock retries exhausted) is retried like a real client
// would; only a request still torn after this many tries fails.
constexpr int kTornTries = 4;

struct Request {
  msim::Time due = 0;
  msim::Time injected = 0;  // when the arrival reached its site's queue
  msim::Time start = 0;
  msim::Time done = 0;
  std::uint32_t key = 0;
  std::uint32_t nonce = 0;  // sets: the value's word 0; gets: the one read
  int site = 0;
  bool is_set = false;
  bool ok = false;
};

std::uint32_t ValueWord(std::uint32_t key, std::uint32_t nonce, std::uint32_t w) {
  return static_cast<std::uint32_t>(
      mdsm::DistHashMap::Mix((static_cast<std::uint64_t>(key) << 32) | nonce) + w * 0x9E3779B9u);
}

void FillValue(std::uint32_t key, std::uint32_t nonce, std::uint32_t* out) {
  out[0] = nonce;
  for (std::uint32_t w = 1; w < kValueWords; ++w) {
    out[w] = ValueWord(key, nonce, w);
  }
}

// A request schedule drawn from `seed`, with due times for a rate of 1/s.
// Each rung of the ladder draws its own, so the fit below averages
// independent errors.
std::vector<Request> MakeSchedule(std::uint64_t seed, int n_ops, double get_mix) {
  std::vector<double> cdf(kKeys);
  double total = 0;
  for (std::uint32_t k = 0; k < kKeys; ++k) {
    total += 1.0 / std::pow(k + 1.0, kZipfS);
  }
  double acc = 0;
  for (std::uint32_t k = 0; k < kKeys; ++k) {
    acc += 1.0 / std::pow(k + 1.0, kZipfS) / total;
    cdf[k] = acc;
  }
  cdf.back() = 1.0;
  std::vector<Request> reqs(static_cast<std::size_t>(n_ops));
  double t_us = 0;
  std::uint64_t salt = 0x5EED;
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    Request& r = reqs[i];
    t_us += -std::log(1.0 - Uniform(seed, ++salt)) * 1e6;
    r.due = static_cast<msim::Time>(t_us);
    r.site = static_cast<int>(Uniform(seed, ++salt) * kSites);
    const auto it = std::lower_bound(cdf.begin(), cdf.end(), Uniform(seed, ++salt));
    r.key = static_cast<std::uint32_t>(std::min<std::ptrdiff_t>(it - cdf.begin(), kKeys - 1)) + 1;
    r.is_set = Uniform(seed, ++salt) >= get_mix;
    r.nonce = r.is_set ? static_cast<std::uint32_t>(i + 1) : 0;
  }
  return reqs;
}

// One world serving one request schedule. Setup (world, shards, workers,
// prepopulation) happens in the constructor; Run() is the timed phase.
class KvRun {
 public:
  // `schedule` holds requests whose due times are for a rate of 1/s; they
  // are scaled to `rate`.
  KvRun(const std::vector<Request>& schedule, double rate)
      : reqs_(schedule), world_(std::make_unique<msysv::World>(kSites)) {
    // Worker frames (owned by the world's kernels) refer to this object's
    // queues and requests; world_ is declared last so it dies first.
    layout_.shards = kSites;
    layout_.slots_per_shard = std::max<std::uint32_t>(16, 2 * kKeys / kSites);
    layout_.value_words = kValueWords;
    for (int s = 0; s < kSites; ++s) {
      const std::uint64_t key = mdsm::DistHashMap::ShardKey(kBaseKey, 0, s);
      world_->shm(s).Shmget(key, layout_.ShardFootprintBytes(), /*create=*/true).value();
      world_->registry().Pin(world_->registry().FindByKey(key)->id);
    }
    for (Request& r : reqs_) {
      r.due = static_cast<msim::Time>(static_cast<double>(r.due) / rate);
    }
    backlog_.reserve(reqs_.size());
    queues_.resize(kSites);
    for (int s = 0; s < kSites; ++s) {
      get_ready_.push_back(std::make_unique<mos::Channel>());
      set_ready_.push_back(std::make_unique<mos::Channel>());
      for (int w = 0; w <= kReadersPerSite; ++w) {
        const bool writer = w == kReadersPerSite;
        world_->kernel(s).Spawn(writer ? "kv-writer" : "kv-reader", mos::Priority::kUser,
                                [this, s, writer](mos::Process* p) {
                                  return Worker(s, p, writer);
                                });
      }
    }
    // Prepopulate every key (nonce 0) from site 0, before any arrival.
    world_->kernel(0).Spawn("kv-setup", mos::Priority::kUser,
                            [this](mos::Process* p) { return Prepopulate(p); });
    world_->RunUntil([this] { return populated_; }, 600 * msim::kSecond);
  }

  msysv::World& world() { return *world_; }

  // Injects every request at its due time and runs until all are served.
  void Run() {
    const msim::Time t0 = world_->sim().Now() + msim::kMillisecond;
    for (Request& r : reqs_) {
      r.due += t0;
    }
    if (!reqs_.empty()) {
      world_->sim().ScheduleAt(reqs_[0].due, [this] { Inject(0); });
    }
    world_->RunUntil([this] { return served_ == reqs_.size(); }, 3600 * msim::kSecond);
  }

  // Checks every get against a sequential register per key: it must not
  // return a value that a later set had overwritten, completely, before
  // the get began. A stale get is marked failed; returns how many were.
  std::size_t FailStaleGets() {
    // Per key, sets ordered by start, with the earliest completion among
    // the sets that start at or after each one.
    std::vector<std::vector<std::pair<msim::Time, msim::Time>>> sets(kKeys + 1);
    for (const Request& r : reqs_) {
      if (r.is_set && r.ok) {
        sets[r.key].emplace_back(r.start, r.done);
      }
    }
    for (auto& v : sets) {
      std::sort(v.begin(), v.end());
      for (std::size_t i = v.size(); i-- > 1;) {
        v[i - 1].second = std::min(v[i - 1].second, v[i].second);
      }
    }
    std::size_t stale = 0;
    for (Request& r : reqs_) {
      if (r.is_set || !r.ok) {
        continue;
      }
      // The write the get returned: the prepopulation, done before any
      // arrival, or the set whose index its nonce names.
      const msim::Time written = r.nonce == 0 ? 0 : reqs_[r.nonce - 1].done;
      const auto& v = sets[r.key];
      const auto later = std::upper_bound(v.begin(), v.end(),
                                          std::make_pair(written, INT64_MAX));
      if (later != v.end() && later->second < r.start) {
        r.ok = false;
        ++stale;
      }
    }
    return stale;
  }

  const std::vector<Request>& requests() const { return reqs_; }
  bool setup_error() const { return !populated_; }
  std::uint64_t torn_retries() const { return torn_retries_; }
  std::uint64_t queue_peak() const { return queue_peak_; }

  // Mean backlog (requests arrived but not served) over the last quarter of
  // the arrivals, relative to the second quarter: > 1 means it grows.
  double BacklogGrowth() const {
    const std::size_t n = backlog_.size();
    if (n < 4) {
      return 0.0;
    }
    double q2 = 0, q4 = 0;
    for (std::size_t i = n / 4; i < n / 2; ++i) q2 += backlog_[i];
    for (std::size_t i = 3 * n / 4; i < n; ++i) q4 += backlog_[i];
    q2 /= static_cast<double>(n / 2 - n / 4);
    q4 /= static_cast<double>(n - 3 * n / 4);
    return (q4 + 1.0) / (q2 + 1.0);
  }

  std::vector<double> LatenciesMs(bool sets) const {
    std::vector<double> v;
    for (const Request& r : reqs_) {
      if (r.is_set == sets) {
        // A failed request counts as missing any latency limit.
        v.push_back(r.ok ? msim::ToMilliseconds(r.done - r.due) : INFINITY);
      }
    }
    return v;
  }

 private:
  struct SiteQueues {
    std::deque<std::size_t> gets;
    std::deque<std::size_t> sets;
  };

  void Inject(std::size_t i) {
    Request& r = reqs_[i];
    r.injected = world_->sim().Now();
    SiteQueues& q = queues_[static_cast<std::size_t>(r.site)];
    mos::Kernel& k = world_->kernel(r.site);
    if (r.is_set) {
      q.sets.push_back(i);
      k.WakeupOne(*set_ready_[static_cast<std::size_t>(r.site)]);
    } else {
      q.gets.push_back(i);
      k.WakeupOne(*get_ready_[static_cast<std::size_t>(r.site)]);
    }
    queue_peak_ = std::max<std::uint64_t>(queue_peak_, q.gets.size() + q.sets.size());
    ++injected_;
    backlog_.push_back(static_cast<double>(injected_ - served_));
    if (i + 1 < reqs_.size()) {
      world_->sim().ScheduleAt(reqs_[i + 1].due, [this, i] { Inject(i + 1); });
    } else {
      arrivals_done_ = true;
      for (int s = 0; s < kSites; ++s) {
        world_->kernel(s).Wakeup(*get_ready_[static_cast<std::size_t>(s)]);
        world_->kernel(s).Wakeup(*set_ready_[static_cast<std::size_t>(s)]);
      }
    }
  }

  msim::Task<> Prepopulate(mos::Process* p) {
    auto map = Attach(0, p);
    std::uint32_t v[kValueWords];
    for (std::uint32_t key = 1; key <= kKeys; ++key) {
      FillValue(key, 0, v);
      co_await map->Put(p, key, v);
    }
    populated_ = true;
  }

  std::unique_ptr<mdsm::DistHashMap> Attach(int site, mos::Process* p) {
    auto& shm = world_->shm(site);
    std::vector<mmem::VAddr> bases;
    for (int s = 0; s < kSites; ++s) {
      const std::uint64_t key = mdsm::DistHashMap::ShardKey(kBaseKey, 0, s);
      const int id = shm.Shmget(key, layout_.ShardFootprintBytes(), /*create=*/false).value();
      bases.push_back(shm.Shmat(p, id).value());
    }
    return std::make_unique<mdsm::DistHashMap>(&shm, &world_->kernel(site), layout_,
                                               std::move(bases));
  }

  // A get verifies its value: intact (word 0 names a write, the rest derive
  // from it) and written by the prepopulation or by a set of the same key
  // that had started before the get finished.
  bool GetValid(std::uint32_t key, const std::uint32_t* v, msim::Time now) const {
    for (std::uint32_t w = 1; w < kValueWords; ++w) {
      if (v[w] != ValueWord(key, v[0], w)) {
        return false;
      }
    }
    if (v[0] == 0) {
      return true;
    }
    const std::size_t j = v[0] - 1;
    return j < reqs_.size() && reqs_[j].is_set && reqs_[j].key == key &&
           reqs_[j].start != 0 && reqs_[j].start <= now;
  }

  msim::Task<> Worker(int site, mos::Process* p, bool writer) {
    auto& kernel = world_->kernel(site);
    auto map = Attach(site, p);
    SiteQueues& q = queues_[static_cast<std::size_t>(site)];
    std::deque<std::size_t>& mine = writer ? q.sets : q.gets;
    mos::Channel& ready = writer ? *set_ready_[static_cast<std::size_t>(site)]
                                 : *get_ready_[static_cast<std::size_t>(site)];
    std::uint32_t v[kValueWords];
    for (;;) {
      if (mine.empty()) {
        if (arrivals_done_) {
          break;
        }
        co_await kernel.SleepOn(p, ready);
        continue;
      }
      Request& r = reqs_[mine.front()];
      mine.pop_front();
      r.start = world_->sim().Now();
      co_await kernel.Compute(p, kServiceCpuUs);
      if (r.is_set) {
        FillValue(r.key, r.nonce, v);
        r.ok = co_await map->Put(p, r.key, v) == mdsm::PutStatus::kUpdated;
      } else {
        mdsm::GetStatus gs = mdsm::GetStatus::kTorn;
        for (int t = 0; t < kTornTries && gs == mdsm::GetStatus::kTorn; ++t) {
          gs = co_await map->Get(p, r.key, v);
        }
        r.ok = gs == mdsm::GetStatus::kFound && GetValid(r.key, v, world_->sim().Now());
        r.nonce = v[0];
      }
      r.done = world_->sim().Now();
      ++served_;
    }
    torn_retries_ += map->torn_retries();
  }

  mdsm::HashMapLayout layout_;
  std::vector<Request> reqs_;
  std::vector<SiteQueues> queues_;
  std::vector<std::unique_ptr<mos::Channel>> get_ready_;
  std::vector<std::unique_ptr<mos::Channel>> set_ready_;
  std::vector<double> backlog_;
  std::size_t injected_ = 0;
  std::size_t served_ = 0;
  bool arrivals_done_ = false;
  bool populated_ = false;
  std::uint64_t torn_retries_ = 0;
  std::uint64_t queue_peak_ = 0;
  std::unique_ptr<msysv::World> world_;
};

// The highest rate meeting the limit, estimated from the whole ladder: a
// least-squares line through log(get p99) against rate, over the rungs
// below the first one whose backlog grows, solved for p99 = kP99LimitMs.
// One rung's p99 rests on ~230 samples beyond it; the fit pools all rungs,
// so the estimate moves much less with the seed than any single rung.
double HighestRate(const std::vector<const KvRun*>& rungs) {
  double sx = 0, sy = 0, sxx = 0, sxy = 0;
  int n = 0;
  for (std::size_t i = 0; i < rungs.size(); ++i) {
    const double p99 = Percentile(rungs[i]->LatenciesMs(false), 0.99);
    if (!std::isfinite(p99) || rungs[i]->BacklogGrowth() > kMaxBacklogGrowth) {
      break;
    }
    const double x = kLadder[i];
    const double y = std::log(p99);
    sx += x;
    sy += y;
    sxx += x * x;
    sxy += x * y;
    ++n;
  }
  const double den = n * sxx - sx * sx;
  if (n < 2 || den <= 0) {
    return n == 0 ? 0.0 : kLadder[n - 1];
  }
  const double slope = (n * sxy - sx * sy) / den;
  if (slope <= 0) {
    return kLadder[n - 1];  // p99 does not rise with rate: no crossing in range
  }
  const double intercept = (sy - slope * sx) / n;
  return (std::log(kP99LimitMs) - intercept) / slope;
}

}  // namespace

PassResult RunKv(const WorkloadArgs& a) {
  PassResult r;
  Tracer* tr = a.tracer;
  // The nominal run, then the ladder.
  std::vector<std::unique_ptr<KvRun>> runs;
  std::vector<msysv::World*> worlds;
  std::vector<std::string> names;

  const double setup_t0 = HostNow();
  const int setup_span = tr ? tr->Begin("setup") : -1;
  auto add = [&](std::string name, const std::vector<Request>& schedule, double rate) {
    runs.push_back(std::make_unique<KvRun>(schedule, rate));
    worlds.push_back(&runs.back()->world());
    names.push_back(std::move(name));
    if (tr) {
      tr->Watch(runs.back()->world());
    }
  };
  add("nominal", MakeSchedule(a.seed, kNominalOps, kGetMix), kNominalRate);
  for (double rate : kLadder) {
    add("rate=" + std::to_string(static_cast<int>(rate)),
        MakeSchedule(SplitMix(a.seed ^ static_cast<std::uint64_t>(rate)), kLadderOps, kGetMix),
        rate);
  }
  if (tr) {
    tr->End(setup_span);
  }
  r.setup_s = HostNow() - setup_t0;

  const Counters before = Snapshot(worlds, tr ? tr->accesses() : 0);
  const int timed_span = tr ? tr->Begin("timed") : -1;
  const std::uint64_t allocs0 = AllocCount();
  const double t0 = HostNow();
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const int span = tr ? tr->Begin(names[i], timed_span, &runs[i]->world()) : -1;
    runs[i]->Run();
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

  std::uint64_t fp = 1469598103934665603ULL;
  std::vector<const KvRun*> rungs;
  for (std::size_t i = 0; i < runs.size(); ++i) {
    KvRun& run = *runs[i];
    if (const std::size_t stale = run.FailStaleGets(); stale > 0) {
      r.errors.push_back("kv " + names[i] + ": " + std::to_string(stale) +
                         " gets returned an overwritten value");
    }
    if (run.setup_error()) {
      r.errors.push_back("kv " + names[i] + ": prepopulation did not finish");
    }
    for (const Request& q : run.requests()) {
      ++r.ops;
      if (!q.ok) {
        ++r.failed;
      }
      Fold(&fp, static_cast<std::uint64_t>(q.start));
      Fold(&fp, static_cast<std::uint64_t>(q.done));
    }
    if (i >= 1) {
      rungs.push_back(&run);
    }
  }
  if (r.failed > 0) {
    r.errors.push_back("kv: " + std::to_string(r.failed) + " requests failed or did not verify");
  }
  const KvRun& nominal = *runs[0];
  r.sim_ops_s = HighestRate(rungs);
  r.layer["kv.get_p50_ms"] = Percentile(nominal.LatenciesMs(false), 0.50);
  r.layer["kv.get_p99_ms"] = Percentile(nominal.LatenciesMs(false), 0.99);
  r.layer["kv.set_p50_ms"] = Percentile(nominal.LatenciesMs(true), 0.50);
  r.layer["kv.set_p99_ms"] = Percentile(nominal.LatenciesMs(true), 0.99);
  std::vector<double> lag_ms;
  for (const Request& q : nominal.requests()) {
    lag_ms.push_back(msim::ToMilliseconds(q.injected - q.due));
  }
  r.layer["kv.gen_lag_p99_ms"] = Percentile(lag_ms, 0.99);
  r.layer["kv.queue_peak"] = static_cast<double>(nominal.queue_peak());
  r.layer["kv.backlog_growth"] = nominal.BacklogGrowth();
  std::uint64_t gets = 0;
  for (const Request& q : nominal.requests()) {
    gets += q.is_set ? 0 : 1;
  }
  r.layer["dsmlib.torn_retries_per_get"] =
      gets > 0 ? static_cast<double>(nominal.torn_retries()) / static_cast<double>(gets) : 0.0;
  FoldCounters(&fp, r.timed);
  r.fingerprint = fp;
  if (a.probes && tr) {
    // Faults per request kind: a gets-only and a sets-only run at the
    // nominal rate, outside the timed phase.
    auto faults_per_op = [&](std::uint64_t salt, double get_mix) {
      KvRun run(MakeSchedule(SplitMix(a.seed + salt), kLadderOps, get_mix), kNominalRate);
      const Counters c0 = Snapshot({&run.world()}, 0);
      run.Run();
      run.FailStaleGets();
      const Counters c = Snapshot({&run.world()}, 0) - c0;
      for (const Request& q : run.requests()) {
        if (!q.ok) {
          r.errors.push_back("kv: a request of the gets-only or sets-only run failed");
          break;
        }
      }
      return static_cast<double>(c.read_faults + c.write_faults) / kLadderOps;
    };
    r.layer["dsmlib.faults_per_get"] = faults_per_op(1, 1.0);
    r.layer["dsmlib.faults_per_set"] = faults_per_op(2, 0.0);
    std::vector<OpSpan> ops;
    for (const Request& q : nominal.requests()) {
      ops.push_back(OpSpan{q.due, q.start, q.done, q.site, q.is_set});
    }
    tr->AddOps(std::move(ops));
  }
  if (tr) {
    tr->End(collect_span);
  }
  return r;
}

}  // namespace perfbench
