// Layer micro-harness: host cost of one call into each layer's public
// functions, timed in isolation. These unit costs price the per-layer counts
// of a traced run (host.unattributed_frac is what they leave unexplained).
// Each probe runs a fixed batch repeatedly and reports the median per call.
#include <algorithm>
#include <string>

#include "perfbench/bench.h"
#include "src/dsmlib/dist_hashmap.h"
#include "src/workload/pingpong.h"

namespace perfbench {

namespace {

constexpr msim::Duration kForever = 3600 * msim::kSecond;

// One batch: calls made, and the host seconds they took (set-up excluded).
struct Batch {
  double calls = 1;
  double seconds = 0;
  double allocs = 0;
};

// Runs `batch` until `budget_s` is spent, at least three times; returns the
// median host ns per call and the last batch's allocations per call.
template <typename Fn>
std::pair<double, double> NsPerCall(double budget_s, Fn&& batch) {
  std::vector<double> per_call;
  double allocs = 0;
  const double t_end = HostNow() + budget_s;
  while (per_call.size() < 3 || HostNow() < t_end) {
    const Batch b = batch();
    per_call.push_back(b.seconds * 1e9 / b.calls);
    allocs = b.allocs / b.calls;
  }
  return {Median(per_call), allocs};
}

// Times `fn` and counts its allocations into `b`.
template <typename Fn>
void Measure(Batch* b, Fn&& fn) {
  const std::uint64_t a0 = AllocCount();
  const double t0 = HostNow();
  fn();
  b->seconds += HostNow() - t0;
  b->allocs += static_cast<double>(AllocCount() - a0);
}

// Simulator::Schedule then firing it through RunUntil.
Batch ScheduleFireBatch() {
  constexpr int kEvents = 100000;
  msim::Simulator sim;
  std::uint64_t fired = 0;
  Batch b;
  Measure(&b, [&] {
    for (int i = 0; i < kEvents; ++i) {
      sim.Schedule(i % 64, [&fired] { ++fired; });
      if (i % 64 == 63) {
        sim.RunUntil(sim.Now() + 64);
      }
    }
    sim.RunUntil(sim.Now() + 64);
  });
  b.calls = static_cast<double>(fired);
  return b;
}

// Network::Deliver on a lossless medium straight into a registered sink.
Batch SendBatch() {
  constexpr int kPackets = 100000;
  msim::Simulator sim;
  mnet::CostModel costs;
  mnet::Network net(&sim, &costs);
  std::uint64_t got = 0;
  net.RegisterSite(0, [](const mnet::Packet&) {});
  net.RegisterSite(1, [&got](const mnet::Packet&) { ++got; });
  mnet::Packet pkt;
  pkt.src = 0;
  pkt.dst = 1;
  pkt.type = 1;
  pkt.size_bytes = 32;
  Batch b;
  Measure(&b, [&] {
    for (int i = 0; i < kPackets; ++i) {
      net.Deliver(pkt);
    }
  });
  b.calls = static_cast<double>(got);
  return b;
}

// Two processes on one kernel yielding to each other: every yield is a
// process switch.
Batch SwitchBatch() {
  constexpr int kYields = 20000;
  msysv::World w(1);
  int running = 2;
  for (int k = 0; k < 2; ++k) {
    w.kernel(0).Spawn("yielder", mos::Priority::kUser,
                      [&w, &running](mos::Process* p) -> msim::Task<> {
                        for (int i = 0; i < kYields; ++i) {
                          co_await w.kernel(0).Yield(p);
                        }
                        --running;
                      });
  }
  const std::uint64_t s0 = w.kernel(0).stats().context_switches;
  Batch b;
  Measure(&b, [&] { w.RunUntil([&running] { return running == 0; }, kForever); });
  const std::uint64_t switches = w.kernel(0).stats().context_switches - s0;
  b.calls = static_cast<double>(std::max<std::uint64_t>(1, switches));
  return b;
}

// Accesses on a resident page complete without suspending; a short compute
// every few hundred accesses bounds the stack in builds where the
// coroutines' symmetric transfer is not compiled to a tail call (sanitizer
// builds), at well under 1% of the measured cost.
constexpr int kAccessesPerYield = 512;
constexpr int kMapOpsPerYield = 32;

// ReadWord/WriteWord on a page the process already holds, timed inside the
// process between its first (faulting) access and its last.
Batch HitBatch() {
  constexpr int kAccesses = 100000;
  msysv::World w(1);
  Batch b;
  b.calls = kAccesses;
  w.kernel(0).Spawn("hits", mos::Priority::kUser, [&w, &b](mos::Process* p) -> msim::Task<> {
    auto& shm = w.shm(0);
    const mmem::VAddr base = shm.Shmat(p, shm.Shmget(901, 512, true).value()).value();
    co_await shm.WriteWord(p, base, 1);  // fault the page in
    const std::uint64_t a0 = AllocCount();
    const double t0 = HostNow();
    for (int i = 0; i < kAccesses / 2; ++i) {
      const std::uint32_t v = co_await shm.ReadWord(p, base);
      co_await shm.WriteWord(p, base, v + 1);
      if (i % (kAccessesPerYield / 2) == 0) {
        co_await w.kernel(0).Compute(p, 1);
      }
    }
    b.seconds = HostNow() - t0;
    b.allocs = static_cast<double>(AllocCount() - a0);
  });
  w.RunUntil([&b] { return b.seconds > 0; }, kForever);
  return b;
}

// Host cost of a remote page fault: the ping-pong's every access after a
// partner write faults across sites.
Batch RemoteFaultBatch() {
  msysv::World w(2);
  mwork::PingPongParams prm;
  prm.rounds = 200;
  auto res = mwork::LaunchPingPong(w, prm);
  Batch b;
  Measure(&b, [&] { w.RunUntil([&res] { return res->completed(); }, kForever); });
  std::uint64_t faults = 0;
  for (int s = 0; s < 2; ++s) {
    faults += w.engine(s)->stats().remote_requests_sent;
  }
  b.calls = static_cast<double>(std::max<std::uint64_t>(1, faults));
  return b;
}

// DistHashMap::Get and Put (update) on a single-site map: resident pages,
// so this is dsmlib's own cost over the access path.
Batch MapBatch(bool puts) {
  constexpr int kOps = 20000;
  constexpr std::uint32_t kKeys = 64;
  msysv::World w(1);
  Batch b;
  b.calls = kOps;
  auto body = [&w, &b, puts](mos::Process* p) -> msim::Task<> {
    auto& shm = w.shm(0);
    mdsm::HashMapLayout layout;
    layout.slots_per_shard = 2 * kKeys;
    const int id = shm.Shmget(902, layout.ShardFootprintBytes(), true).value();
    mdsm::DistHashMap map(&shm, &w.kernel(0), layout, {shm.Shmat(p, id).value()});
    std::uint32_t v[4] = {1, 2, 3, 4};
    for (std::uint32_t k = 1; k <= kKeys; ++k) {
      co_await map.Put(p, k, v);
    }
    const double t0 = HostNow();
    for (int i = 0; i < kOps; ++i) {
      const std::uint32_t key = 1 + static_cast<std::uint32_t>(i) % kKeys;
      if (puts) {
        co_await map.Put(p, key, v);
      } else {
        (void)co_await map.Get(p, key, v);
      }
      if (i % kMapOpsPerYield == 0) {
        co_await w.kernel(0).Compute(p, 1);
      }
    }
    b.seconds = HostNow() - t0;
  };
  w.kernel(0).Spawn("map", mos::Priority::kUser, body);
  w.RunUntil([&b] { return b.seconds > 0; }, kForever);
  return b;
}

}  // namespace

std::map<std::string, double> RunMicro(double budget_s) {
  const double each = budget_s / 7;
  std::map<std::string, double> m;
  m["sim.ns_schedule_fire"] = NsPerCall(each, ScheduleFireBatch).first;
  m["net.ns_per_packet"] = NsPerCall(each, SendBatch).first;
  m["os.ns_per_switch"] = NsPerCall(each, SwitchBatch).first;
  const auto [hit_ns, hit_allocs] = NsPerCall(each, HitBatch);
  m["sysv.ns_per_hit_access"] = hit_ns;
  m["sysv.allocs_per_hit_access"] = hit_allocs;
  const auto [fault_ns, fault_allocs] = NsPerCall(each, RemoteFaultBatch);
  m["mirage.host_us_per_remote_fault"] = fault_ns / 1000.0;
  m["mirage.allocs_per_remote_fault"] = fault_allocs;
  m["dsmlib.host_us_per_get"] = NsPerCall(each, [] { return MapBatch(false); }).first / 1000.0;
  m["dsmlib.host_us_per_set"] = NsPerCall(each, [] { return MapBatch(true); }).first / 1000.0;
  return m;
}

}  // namespace perfbench
