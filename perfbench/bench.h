// Shared declarations of the two-clock benchmark (see README.md).
//
// The benchmark drives the simulator only through its public API and
// measures each layer from outside: counts come from the layers' stats()
// accessors and the System V access hook; host time comes from
// std::chrono::steady_clock around calls into each layer.
#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/sysv/world.h"

namespace perfbench {

// ---- Host clock and process counters ----

inline double HostNow() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Heap allocations made by this process so far (global operator new is
// replaced in alloc_count.cc).
std::uint64_t AllocCount();

// Peak resident set of this process, in MB.
double PeakRssMb();

// ---- Layer counters, read from outside ----

// Cumulative counts summed over a set of worlds. Every field is additive
// except lib_queue_peak, a maximum.
struct Counters {
  std::uint64_t events = 0;          // sim: events fired
  std::uint64_t ticks = 0;           // os: clock-tick interrupts
  std::uint64_t switches = 0;        // os: context switches
  std::uint64_t remap_us = 0;        // os: simulated time spent remapping pages
  std::uint64_t packets = 0;         // net: delivered packets
  std::uint64_t page_packets = 0;    // net: page-carrying packets
  std::uint64_t bytes = 0;           // net: payload bytes
  std::uint64_t read_faults = 0;     // mirage
  std::uint64_t write_faults = 0;
  std::uint64_t read_fault_us = 0;   // summed fault-to-resume latency
  std::uint64_t write_fault_us = 0;
  std::uint64_t remote_requests = 0; // page requests sent to a remote library
  std::uint64_t lib_requests = 0;    // requests processed by libraries
  std::uint64_t lib_busiest = 0;     // Σ over worlds of the busiest library's requests
  std::uint64_t refusals = 0;        // Δ refusals (kWaitReply sent)
  std::uint64_t invalidations = 0;   // copies invalidated
  std::uint64_t lib_enqueues = 0;
  std::uint64_t lib_depth_sum = 0;
  std::uint64_t lib_queue_peak = 0;
  std::uint64_t quorum_waits = 0;
  std::uint64_t request_timeouts = 0;
  std::uint64_t elections = 0;
  std::uint64_t pages_lost = 0;
  std::uint64_t faults_failed = 0;
  std::uint64_t crashes = 0;         // fault: injected crashes
  std::uint64_t revivals = 0;        // fault: crashed sites revived
  std::uint64_t accesses = 0;        // sysv: word accesses (access hook; traced only)
  std::uint64_t allocs = 0;          // host heap allocations

  // Additive fields subtract; the peak keeps the later value.
  Counters operator-(const Counters& base) const;
};

// Reads every layer's counters from `worlds`, plus `accesses` (maintained by
// the access hooks) and the process allocation counter.
Counters Snapshot(const std::vector<msysv::World*>& worlds, std::uint64_t accesses);

// ---- Traced run: spans kept in memory, written at exit ----

struct Span {
  std::string name;
  int parent = -1;
  double host_begin_s = 0;  // seconds since tracing began
  double host_end_s = 0;
  double sim_begin_ms = 0;  // simulated clock of the span's world (0 if none)
  double sim_end_ms = 0;
  Counters delta;
};

// One kv request: due (arrival) -> start (a worker took it) -> done, in
// simulated microseconds.
struct OpSpan {
  std::int64_t due = 0;
  std::int64_t start = 0;
  std::int64_t done = 0;
  int site = 0;
  bool is_set = false;
};

// Records spans around the benchmark's calls into the simulator. A null
// Tracer* means tracing is off; workloads then take no snapshots at all.
class Tracer {
 public:
  Tracer() = default;
  // The access hooks hold this object's address.
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  // Forgets the previous pass's worlds (they have been destroyed).
  void NewPass() { worlds_.clear(); }
  // Adds `w` to the worlds whose counters spans record, and counts its word
  // accesses (installs the access hook on every site).
  void Watch(msysv::World& w);

  // Opens a span under `parent` and returns its id; with `sim_world` the
  // span also records that world's simulated clock. End closes it and
  // stores the counter deltas of every watched world.
  int Begin(const std::string& name, int parent = -1, msysv::World* sim_world = nullptr);
  void End(int id);
  void AddOps(std::vector<OpSpan> ops) {
    ops_.insert(ops_.end(), ops.begin(), ops.end());
  }

  const std::vector<Span>& spans() const { return spans_; }
  const std::vector<OpSpan>& ops() const { return ops_; }
  std::uint64_t accesses() const { return accesses_; }

 private:
  struct Open {
    Counters at_begin;
    msysv::World* world = nullptr;
  };
  std::vector<msysv::World*> worlds_;
  std::vector<Span> spans_;
  std::vector<Open> open_;
  std::vector<OpSpan> ops_;
  std::uint64_t accesses_ = 0;
  double t0_ = HostNow();
};

// ---- Workloads ----

// What one pass of a workload reports. A pass builds every world it needs
// (setup), runs them (timed phase) and checks the outputs.
struct PassResult {
  double setup_s = 0;
  double wall_s = 0;
  std::uint64_t ops = 0;         // workload ops attempted in the timed phase
  std::uint64_t failed = 0;      // of which failed, refused or unverified
  std::vector<std::string> errors;  // failed correctness checks
  std::uint64_t allocs = 0;      // heap allocations in the timed phase
  Counters timed;                // counter deltas over the timed phase
  // Simulated-clock results, all from this pass's own worlds: the
  // workload's throughput (end to end) and its workload-specific per-layer
  // values.
  double sim_ops_s = 0;
  std::map<std::string, double> layer;
  // Hash of every simulated statistic: equal across passes of one seed, and
  // unchanged by a change that only touches host-side code.
  std::uint64_t fingerprint = 0;
};

struct WorkloadArgs {
  std::uint64_t seed = 1;
  Tracer* tracer = nullptr;  // null: tracing off
  // The first traced pass also runs the one-off layer probes, outside its
  // timed phase: fig8 and fanout time one world on the serial and on the
  // 2-worker parallel simulator core (sim.par2_speedup; the kv client and
  // the fault plan keep their worlds off the parallel core), kv runs
  // gets-only and sets-only schedules (dsmlib.faults_per_get/set) and keeps
  // its nominal run's request spans.
  bool probes = false;
};

PassResult RunFig8(const WorkloadArgs& a);
PassResult RunKv(const WorkloadArgs& a);
PassResult RunFanout(const WorkloadArgs& a);
PassResult RunFailover(const WorkloadArgs& a);

// ---- Helpers shared by the workloads ----

// Mixes `v` into a running FNV-1a style fingerprint.
void Fold(std::uint64_t* h, std::uint64_t v);
void FoldDouble(std::uint64_t* h, double v);
// Folds the simulated DSM counters of `c` into `h`: not the host counts,
// nor the event and tick counts.
void FoldCounters(std::uint64_t* h, const Counters& c);

// splitmix64: a stateless seed expander for workload inputs.
std::uint64_t SplitMix(std::uint64_t x);
// Uniform double in [0,1) from SplitMix(seed ^ salt).
double Uniform(std::uint64_t seed, std::uint64_t salt);

// Exact percentile of unsorted samples (nearest rank on the sorted copy).
double Percentile(std::vector<double> v, double p);
// Median of unsorted samples (the mean of the middle two for an even count).
double Median(std::vector<double> v);

// ---- Layer micro-harness (unit host costs) ----

// Times direct calls into each layer's public functions for about
// `budget_s` host seconds and returns per-call costs keyed by per-layer
// metric name (ns or µs, as the name says) plus allocations per hit access.
std::map<std::string, double> RunMicro(double budget_s);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
