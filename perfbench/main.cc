// perfbench: the repository's two-clock benchmark.
//
//   perfbench --workload fig8|kv|fanout|failover --seed N --seconds S
//             --trace 0|1 [--trace-dir DIR]
//
// Repeats fixed-size passes of one workload for about S host seconds and
// prints, as its last stdout line, one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// --trace 0 reports the end-to-end metrics (tracing off); --trace 1 runs
// untraced and traced passes plus the layer micro-harness and reports the
// per-layer metrics, and writes the recorded spans to DIR.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "perfbench/bench.h"

namespace perfbench {
namespace {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_dir = ".";
};

bool ParseArgs(int argc, char** argv, Options* o) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") {
      o->workload = v;
    } else if (k == "--seed") {
      o->seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      o->seconds = std::strtod(v.c_str(), nullptr);
    } else if (k == "--trace") {
      o->trace = v == "1";
    } else if (k == "--trace-dir") {
      o->trace_dir = v;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !o->workload.empty() && o->seconds > 0;
}

using WorkloadFn = PassResult (*)(const WorkloadArgs&);


WorkloadFn FindWorkload(const std::string& name) {
  if (name == "fig8") return RunFig8;
  if (name == "kv") return RunKv;
  if (name == "fanout") return RunFanout;
  if (name == "failover") return RunFailover;
  return nullptr;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// Runs passes until `budget_s` host seconds have gone (at least min_passes,
// stopping early past hard_cap_s). Every pass of one seed must reproduce the
// first pass's simulated fingerprint and allocation count exactly.
std::vector<PassResult> RunPasses(WorkloadFn fn, const WorkloadArgs& args, double budget_s,
                                  int min_passes, double hard_cap_s,
                                  std::vector<std::string>* errors) {
  std::vector<PassResult> passes;
  const double t0 = HostNow();
  while (static_cast<int>(passes.size()) < min_passes || HostNow() - t0 < budget_s) {
    if (args.tracer) {
      args.tracer->NewPass();
    }
    passes.push_back(fn(args));
    const PassResult& p = passes.back();
    const PassResult& first = passes.front();
    if (p.fingerprint != first.fingerprint) {
      errors->push_back("simulated statistics differ between passes of one seed");
    }
    if (!args.tracer && p.allocs != first.allocs) {
      errors->push_back("allocation count differs between passes of one seed: " +
                        std::to_string(first.allocs) + " vs " + std::to_string(p.allocs));
    }
    if (HostNow() - t0 > hard_cap_s) {
      break;
    }
  }
  return passes;
}

struct Totals {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

Totals Tally(const std::vector<PassResult>& passes, std::vector<std::string>* errors) {
  Totals t;
  for (const PassResult& p : passes) {
    t.attempted += p.ops;
    t.failed += p.failed;
    errors->insert(errors->end(), p.errors.begin(), p.errors.end());
  }
  return t;
}

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};
using Metrics = std::vector<Metric>;

// The "metrics" object of the result line.
std::string MetricsJson(const Metrics& ms) {
  std::ostringstream os;
  os << '{';
  for (std::size_t i = 0; i < ms.size(); ++i) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(ms[i].value) ? ms[i].value : 0.0);
    os << (i == 0 ? "" : ", ") << '"' << ms[i].name << "\": {\"value\": " << buf
       << ", \"unit\": \"" << ms[i].unit << "\"}";
  }
  os << '}';
  return os.str();
}

// The end-to-end metrics, each from this workload's own passes.
Metrics EndToEnd(const std::vector<PassResult>& passes, const Totals& t) {
  std::vector<double> setup, wall;
  for (const PassResult& p : passes) {
    setup.push_back(p.setup_s);
    wall.push_back(p.wall_s);
  }
  const PassResult& f = passes.front();
  const Counters& c = f.timed;
  return {
      {"setup_s", Median(setup), "s"},
      {"wall_s", Median(wall), "s"},
      {"allocs_per_op", Ratio(f.allocs, f.ops), "count"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
      {"ok_frac", Ratio(t.attempted - t.failed, t.attempted), "fraction"},
      {"sim_ops_s", f.sim_ops_s, "ops/sim-s"},
      {"fault_ms",
       Ratio(c.read_fault_us + c.write_fault_us, c.read_faults + c.write_faults) / 1000.0, "ms"},
      {"write_fault_ms", Ratio(c.write_fault_us, c.write_faults) / 1000.0, "ms"},
  };
}

// Every per-layer metric, in the order of BENCHMARK.json. Workload-specific
// values a workload does not produce (kv.*, fault.*, workload.fig8_peak_err,
// mirage.inv_write_ms) read 0 there.
Metrics PerLayer(const PassResult& traced, double wall_untraced, double wall_traced,
                 const std::map<std::string, double>& micro) {
  const Counters& c = traced.timed;
  const double ops = static_cast<double>(traced.ops);
  const double faults = static_cast<double>(c.read_faults + c.write_faults);
  auto layer = [&](const std::string& k) {
    auto it = traced.layer.find(k);
    return it == traced.layer.end() ? 0.0 : it->second;
  };
  auto m = [&](const std::string& k) {
    auto it = micro.find(k);
    return it == micro.end() ? 0.0 : it->second;
  };
  // Host time the unit costs explain: events, switches, packets and word
  // accesses at their isolated costs. The rest is the handlers' own work
  // (kernel dispatch, protocol logic, workload code) and cache effects.
  const double explained_s =
      1e-9 * (c.events * m("sim.ns_schedule_fire") + c.switches * m("os.ns_per_switch") +
              c.packets * m("net.ns_per_packet") + c.accesses * m("sysv.ns_per_hit_access"));
  return {
      {"sim.events_per_op", Ratio(c.events, ops), "count"},
      {"sim.host_ns_per_event", Ratio(wall_untraced * 1e9, c.events), "ns"},
      {"sim.ns_schedule_fire", m("sim.ns_schedule_fire"), "ns"},
      {"sim.par2_speedup", layer("sim.par2_speedup"), "ratio"},
      {"os.ticks_per_op", Ratio(c.ticks, ops), "count"},
      {"os.tick_event_share", Ratio(c.ticks, c.events), "fraction"},
      {"os.switches_per_op", Ratio(c.switches, ops), "count"},
      {"os.ns_per_switch", m("os.ns_per_switch"), "ns"},
      {"os.remap_ms_per_op", Ratio(c.remap_us / 1000.0, ops), "ms"},
      {"net.packets_per_op", Ratio(c.packets, ops), "count"},
      {"net.page_packets_per_op", Ratio(c.page_packets, ops), "count"},
      {"net.bytes_per_op", Ratio(c.bytes, ops), "bytes"},
      {"net.ns_per_packet", m("net.ns_per_packet"), "ns"},
      {"mirage.read_faults_per_op", Ratio(c.read_faults, ops), "count"},
      {"mirage.write_faults_per_op", Ratio(c.write_faults, ops), "count"},
      {"mirage.refusal_ratio", Ratio(c.refusals, c.lib_requests), "fraction"},
      {"mirage.invalidations_per_write", Ratio(c.invalidations, c.write_faults), "count"},
      {"mirage.lib_queue_mean_depth", Ratio(c.lib_depth_sum, c.lib_enqueues), "count"},
      {"mirage.lib_queue_peak", static_cast<double>(c.lib_queue_peak), "count"},
      {"mirage.lib_load_max_share", Ratio(c.lib_busiest, c.lib_requests), "fraction"},
      {"mirage.host_us_per_remote_fault", m("mirage.host_us_per_remote_fault"), "us"},
      {"mirage.allocs_per_remote_fault", m("mirage.allocs_per_remote_fault"), "count"},
      {"mirage.quorum_waits_per_op", Ratio(c.quorum_waits, ops), "count"},
      {"mirage.request_timeouts", static_cast<double>(c.request_timeouts), "count"},
      {"mirage.elections", static_cast<double>(c.elections), "count"},
      {"mirage.pages_lost", static_cast<double>(c.pages_lost), "count"},
      {"mirage.inv_write_ms", layer("mirage.inv_write_ms"), "ms"},
      {"sysv.accesses_per_op", Ratio(c.accesses, ops), "count"},
      {"sysv.hit_ratio", c.accesses > 0 ? 1.0 - faults / c.accesses : 0.0, "fraction"},
      {"sysv.ns_per_hit_access", m("sysv.ns_per_hit_access"), "ns"},
      {"sysv.allocs_per_hit_access", m("sysv.allocs_per_hit_access"), "count"},
      {"dsmlib.host_us_per_get", m("dsmlib.host_us_per_get"), "us"},
      {"dsmlib.host_us_per_set", m("dsmlib.host_us_per_set"), "us"},
      {"dsmlib.faults_per_get", layer("dsmlib.faults_per_get"), "count"},
      {"dsmlib.faults_per_set", layer("dsmlib.faults_per_set"), "count"},
      {"dsmlib.torn_retries_per_get", layer("dsmlib.torn_retries_per_get"), "count"},
      {"fault.recovery_ms", layer("fault.recovery_ms"), "ms"},
      {"fault.rejoin_ms", layer("fault.rejoin_ms"), "ms"},
      {"fault.outage_ms", layer("fault.outage_ms"), "ms"},
      {"kv.get_p50_ms", layer("kv.get_p50_ms"), "ms"},
      {"kv.get_p99_ms", layer("kv.get_p99_ms"), "ms"},
      {"kv.set_p50_ms", layer("kv.set_p50_ms"), "ms"},
      {"kv.set_p99_ms", layer("kv.set_p99_ms"), "ms"},
      {"kv.gen_lag_p99_ms", layer("kv.gen_lag_p99_ms"), "ms"},
      {"kv.queue_peak", layer("kv.queue_peak"), "count"},
      {"kv.backlog_growth", layer("kv.backlog_growth"), "ratio"},
      {"workload.fig8_peak_err", layer("workload.fig8_peak_err"), "fraction"},
      {"host.allocs_per_event", Ratio(traced.allocs, c.events), "count"},
      {"host.trace_overhead_frac", Ratio(wall_traced - wall_untraced, wall_untraced), "fraction"},
      {"host.unattributed_frac", Ratio(wall_untraced - explained_s, wall_untraced), "fraction"},
  };
}

void WriteTrace(const Options& o, const Tracer& tr) {
  const std::string path = o.trace_dir + "/perfbench-" + o.workload + "-seed" +
                           std::to_string(o.seed) + ".jsonl";
  std::ofstream f(path);
  if (!f) {
    std::cerr << "perfbench: cannot write " << path << "\n";
    return;
  }
  for (std::size_t i = 0; i < tr.spans().size(); ++i) {
    const Span& s = tr.spans()[i];
    const Counters& d = s.delta;
    f << "{\"id\": " << i << ", \"parent\": " << s.parent << ", \"name\": \"" << s.name
      << "\", \"host_s\": [" << s.host_begin_s << ", " << s.host_end_s << "], \"sim_ms\": ["
      << s.sim_begin_ms << ", " << s.sim_end_ms << "], \"events\": " << d.events
      << ", \"ticks\": " << d.ticks << ", \"switches\": " << d.switches
      << ", \"packets\": " << d.packets << ", \"page_packets\": " << d.page_packets
      << ", \"read_faults\": " << d.read_faults << ", \"write_faults\": " << d.write_faults
      << ", \"accesses\": " << d.accesses << ", \"allocs\": " << d.allocs << "}\n";
  }
  for (const OpSpan& op : tr.ops()) {
    f << "{\"op\": \"" << (op.is_set ? "set" : "get") << "\", \"site\": " << op.site
      << ", \"sim_us\": [" << op.due << ", " << op.start << ", " << op.done << "]}\n";
  }
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options o;
  if (!ParseArgs(argc, argv, &o)) {
    std::cerr << "usage: perfbench --workload fig8|kv|fanout|failover --seed N "
                 "--seconds S --trace 0|1 [--trace-dir DIR]\n";
    return 2;
  }
  const WorkloadFn fn = FindWorkload(o.workload);
  if (fn == nullptr) {
    std::cerr << "perfbench: unknown workload '" << o.workload << "'\n";
    return 2;
  }
  // Passes stop starting new work well inside the 180 s limit of one run.
  const double hard_cap_s = std::min(150.0, 3.0 * o.seconds + 30.0);
  std::vector<std::string> errors;
  Metrics metrics;
  Totals totals;
  std::uint64_t fingerprint = 0;
  if (!o.trace) {
    const std::vector<PassResult> passes =
        RunPasses(fn, WorkloadArgs{o.seed, nullptr}, o.seconds, 3, hard_cap_s, &errors);
    fingerprint = passes.front().fingerprint;
    totals = Tally(passes, &errors);
    metrics = EndToEnd(passes, totals);
  } else {
    // 40% untraced passes, 40% traced passes, 20% micro-harness.
    const std::vector<PassResult> plain = RunPasses(
        fn, WorkloadArgs{o.seed, nullptr}, 0.4 * o.seconds, 2, hard_cap_s / 2, &errors);
    Tracer tracer;
    PassResult first_traced = fn(WorkloadArgs{o.seed, &tracer, /*probes=*/true});
    std::vector<PassResult> traced = RunPasses(
        fn, WorkloadArgs{o.seed, &tracer}, 0.4 * o.seconds, 1, hard_cap_s / 2, &errors);
    traced.insert(traced.begin(), std::move(first_traced));
    fingerprint = plain.front().fingerprint;
    if (traced.front().fingerprint != plain.front().fingerprint) {
      errors.push_back("tracing changed the simulated statistics");
    }
    const std::map<std::string, double> micro = RunMicro(0.2 * o.seconds);
    totals = Tally(plain, &errors);
    const Totals tt = Tally(traced, &errors);
    totals.attempted += tt.attempted;
    totals.failed += tt.failed;
    std::vector<double> wu, wt;
    for (const PassResult& p : plain) wu.push_back(p.wall_s);
    for (const PassResult& p : traced) wt.push_back(p.wall_s);
    metrics = PerLayer(traced.front(), Median(wu), Median(wt), micro);
    WriteTrace(o, tracer);
  }
  for (const std::string& e : errors) {
    std::cerr << "perfbench: CHECK FAILED: " << e << "\n";
  }
  // Equal for equal simulated behaviour: a change that only touches host
  // cost must leave it unchanged for every workload and seed.
  std::cerr << "perfbench: " << o.workload << " seed " << o.seed << " fingerprint " << std::hex
            << fingerprint << std::dec << "\n";
  const bool correct = errors.empty() && totals.failed == 0;
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << totals.attempted << ", \"failed\": " << totals.failed
            << ", \"metrics\": " << MetricsJson(metrics) << "}" << std::endl;
  return 0;
}
