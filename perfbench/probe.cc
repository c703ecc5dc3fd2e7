#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#include "perfbench/bench.h"

namespace perfbench {

double PeakRssMb() {
  // VmHWM, not getrusage's ru_maxrss: the latter keeps the peak of the
  // process image before exec (the launching interpreter's, say).
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return 0.0;
}

namespace {

// Every additive field, so subtraction and folding cannot miss one.
constexpr std::uint64_t Counters::*kAdditive[] = {
    &Counters::events,          &Counters::ticks,          &Counters::switches,
    &Counters::remap_us,        &Counters::packets,        &Counters::page_packets,
    &Counters::bytes,           &Counters::read_faults,    &Counters::write_faults,
    &Counters::read_fault_us,   &Counters::write_fault_us, &Counters::remote_requests,
    &Counters::lib_requests,    &Counters::lib_busiest,    &Counters::refusals,
    &Counters::invalidations,   &Counters::lib_enqueues,   &Counters::lib_depth_sum,
    &Counters::quorum_waits,    &Counters::request_timeouts, &Counters::elections,
    &Counters::pages_lost,      &Counters::faults_failed,  &Counters::crashes,
    &Counters::revivals,        &Counters::accesses,
    &Counters::allocs,
};

}  // namespace

Counters Counters::operator-(const Counters& base) const {
  Counters d = *this;
  for (auto f : kAdditive) {
    d.*f -= base.*f;
  }
  return d;
}

Counters Snapshot(const std::vector<msysv::World*>& worlds, std::uint64_t accesses) {
  Counters c;
  for (msysv::World* w : worlds) {
    c.events += w->sim().ProcessedEvents();
    const mnet::NetworkStats& ns = w->network().stats();
    c.packets += ns.packets;
    c.page_packets += ns.large_packets;
    c.bytes += ns.payload_bytes;
    std::uint64_t busiest = 0;
    for (int s = 0; s < w->site_count(); ++s) {
      const mos::KernelStats& ks = w->kernel(s).stats();
      c.ticks += ks.ticks;
      c.switches += ks.context_switches;
      c.remap_us += static_cast<std::uint64_t>(ks.remap_time);
      const mirage::Engine* e = w->engine(s);
      if (e == nullptr) {
        continue;
      }
      const mirage::EngineStats& es = e->stats();
      c.read_faults += es.read_faults;
      c.write_faults += es.write_faults;
      c.read_fault_us += e->read_fault_latency().sum_us();
      c.write_fault_us += e->write_fault_latency().sum_us();
      c.remote_requests += es.remote_requests_sent;
      c.lib_requests += es.requests_processed;
      busiest = std::max<std::uint64_t>(busiest, es.requests_processed);
      c.refusals += es.wait_replies_sent;
      c.invalidations += es.local_invalidations;
      c.lib_enqueues += es.lib_enqueues;
      c.lib_depth_sum += es.lib_queue_depth_sum;
      c.lib_queue_peak = std::max(c.lib_queue_peak, es.lib_queue_peak);
      c.quorum_waits += es.quorum_waits;
      c.request_timeouts += es.request_timeouts;
      c.elections += es.elections_won;
      c.pages_lost += es.pages_lost_in_recovery;
      c.faults_failed += es.faults_failed;
    }
    c.lib_busiest += busiest;
    if (mfault::FaultInjector* inj = w->faults()) {
      const mfault::FaultInjectorStats& fs = inj->stats();
      c.crashes += fs.crashes;
      c.revivals += fs.recoveries;
    }
  }
  c.accesses = accesses;
  c.allocs = AllocCount();
  return c;
}

void Tracer::Watch(msysv::World& w) {
  worlds_.push_back(&w);
  for (int s = 0; s < w.site_count(); ++s) {
    w.shm(s).SetAccessHook([this](const msysv::ShmSystem::AccessEvent&) { ++accesses_; });
  }
}

int Tracer::Begin(const std::string& name, int parent, msysv::World* sim_world) {
  Span s;
  s.name = name;
  s.parent = parent;
  s.host_begin_s = HostNow() - t0_;
  if (sim_world != nullptr) {
    s.sim_begin_ms = msim::ToMilliseconds(sim_world->sim().Now());
  }
  spans_.push_back(std::move(s));
  open_.push_back(Open{Snapshot(worlds_, accesses_), sim_world});
  return static_cast<int>(spans_.size()) - 1;
}

void Tracer::End(int id) {
  Span& s = spans_.at(static_cast<std::size_t>(id));
  const Open& o = open_.at(static_cast<std::size_t>(id));
  s.delta = Snapshot(worlds_, accesses_) - o.at_begin;
  s.host_end_s = HostNow() - t0_;
  if (o.world != nullptr) {
    s.sim_end_ms = msim::ToMilliseconds(o.world->sim().Now());
  }
}

void Fold(std::uint64_t* h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    *h ^= (v >> (8 * i)) & 0xFF;
    *h *= 1099511628211ULL;
  }
}

void FoldDouble(std::uint64_t* h, double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  Fold(h, bits);
}

void FoldCounters(std::uint64_t* h, const Counters& c) {
  for (auto f : kAdditive) {
    // Host counts, and the event and tick counts a host-side change to the
    // event queue or the idle clock may legitimately alter, stay out.
    if (f != &Counters::accesses && f != &Counters::allocs && f != &Counters::events &&
        f != &Counters::ticks) {
      Fold(h, c.*f);
    }
  }
  Fold(h, c.lib_queue_peak);
}

std::uint64_t SplitMix(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

double Uniform(std::uint64_t seed, std::uint64_t salt) {
  return static_cast<double>(SplitMix(seed * 0x100000001B3ULL ^ salt) >> 11) * 0x1.0p-53;
}

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p * static_cast<double>(v.size()));
  const std::size_t i = rank < 1 ? 0 : static_cast<std::size_t>(rank) - 1;
  return v[std::min(i, v.size() - 1)];
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n == 0 ? 0.0 : (n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]));
}

}  // namespace perfbench
