// A command-line scenario driver: pick a workload, a site count, and a
// window Delta; get throughput, a per-site activity report, and optionally
// a full protocol trace. The Swiss-army knife for exploring the system.
//
// A scenario is a single-point ExperimentSpec run by the harness's
// ExecuteRun. The text report and --json are one run with one seed, so
// they agree on every number.
//
// Usage:
//   scenario_runner [workload] [sites] [delta_ms] [options]
//     workload:  pingpong (default) | readwriters | spinlock | scalability |
//                matrix | dot | tsp | kvstore
//     sites:     1..512 (default 2)
//     delta_ms:  window in ms (default 0)
//   options:
//     --json      emit a single-point mirage-exp-v2 JSON report instead of
//                 the text report, for the experiment_runner pipeline
//     --trace     append the protocol event trace to the text report
//   plus the spec flags shared with experiment_runner, one value each
//   (src/exp/flags.h): --seed=N, --replicas=K, --loss=P, --lib=S,
//   --cost=NAME, the kvstore knobs, --rounds=N (default 40), --baseline,
//   --parallel-lib, --no-yield and the fault flags --crash=S@T,
//   --recover=T:SITE, --pause=S@T1:T2, --cut=A-B@T1:T2. A spec that
//   expands to more than one run is refused: sweep it with
//   experiment_runner.
//
// The fault flags build one fault plan, in flag order. Any fault enables
// the protocol recovery timeouts (request backoff, ack timeouts, op
// deadline) and, when circuits are active, forced sequencing so healed
// partitions recover by retransmission. Post-run invariant checking scopes
// itself to live sites: a crashed site's frozen copies are not part of the
// system, and pages lost in recovery make no directory promises. A
// --recover adds a rejoin line (downtime/MTTR, re-spreads, resurrected
// pages) to the report.
//
// Exit code: 0 = the workload completed, 1 = it did not, 2 = bad arguments.
#include <cstdio>
#include <iostream>
#include <iterator>
#include <string>
#include <vector>

#include "src/exp/flags.h"
#include "src/exp/report.h"
#include "src/mirage/invariants.h"
#include "src/sysv/world.h"

namespace {

void PrintHeader(const mexp::RunConfig& cfg) {
  std::printf("scenario: %s, %d sites, Delta=%d ms%s%s%s", cfg.workload.c_str(), cfg.sites,
              static_cast<int>(cfg.delta_ms), cfg.use_yield ? "" : ", no yield",
              cfg.parallel_lib ? ", parallel library" : "",
              cfg.baseline ? ", Li/Hudak baseline" : "");
  if (cfg.cost_preset != "ethernet1989") {
    std::printf(", %s costs", cfg.cost_preset.c_str());
  }
  if (cfg.loss > 0.0) {
    std::printf(", %.0f%% frame loss", cfg.loss * 100.0);
  }
  if (cfg.replicas > 1) {
    std::printf(", %d replicas", cfg.replicas);
  }
  if (!cfg.faults.empty()) {
    std::printf(", %zu fault events", cfg.faults.events().size());
  }
  std::printf("\n\n");
}

// The workload's headline, from the run's metrics.
void PrintHeadline(const mexp::RunConfig& cfg, const mexp::RunResult& r) {
  auto m = [&r](const char* name) { return r.metrics.at(name); };
  auto count = [&m](const char* name) { return static_cast<unsigned long long>(m(name)); };
  const std::string& w = cfg.workload;
  if (w == "pingpong") {
    std::printf("throughput: %.2f cycles/s over %d cycles\n\n", m("throughput"),
                static_cast<int>(m("cycles")));
  } else if (w == "readwriters") {
    std::printf("throughput: %.0f read-write ops/s\n\n", m("throughput"));
  } else if (w == "spinlock") {
    std::printf("throughput: %.2f critical sections/s (mutex %s)\n\n", m("throughput"),
                m("mutex_held") != 0.0 ? "held" : "BROKEN");
  } else if (w == "scalability") {
    std::printf("mean write latency: %.2f ms, %.1f invalidations/round\n\n",
                m("mean_write_latency_ms"), m("invalidations_per_round"));
  } else if (w == "matrix" || w == "dot") {
    std::printf("elapsed: %.3f s (%s)\n\n", m("elapsed_s"),
                m("verified") != 0.0 ? "verified" : "WRONG RESULT");
  } else if (w == "tsp") {
    std::printf("elapsed: %.3f s, best tour %llu (%s), %llu nodes\n\n", m("elapsed_s"),
                count("best_tour"), m("verified") != 0.0 ? "optimal" : "SUBOPTIMAL",
                count("nodes_expanded"));
  } else if (w == "kvstore") {
    std::printf("throughput: %.1f ops/s (%llu gets, %llu sets; %llu misses, "
                "%llu torn, %llu integrity failures)\n",
                m("throughput"), count("kv_gets"), count("kv_sets"), count("kv_misses"),
                count("kv_torn_reads"), count("kv_integrity_failures"));
    std::printf("request queues: peak %llu, mean depth %.2f\n", count("kv_queue_peak"),
                m("kv_queue_mean_depth"));
    r.kv_get_latency.Print(std::cout, "get latency (arrival to completion)");
    r.kv_set_latency.Print(std::cout, "set latency (arrival to completion)");
    std::printf("\n");
  }
}

// The human-readable report of a finished run whose World is still live.
void PrintReport(const mexp::RunConfig& cfg, msysv::World& world, const mexp::RunResult& r) {
  if (!r.abort_reason.empty()) {
    std::printf("workload aborted: %s\n", r.abort_reason.c_str());
  }
  PrintHeadline(cfg, r);
  world.PrintReport(std::cout);
  // Cross-site op-fault latency with percentiles, not just the per-site
  // means.
  if (r.read_latency.count() > 0) {
    r.read_latency.Print(std::cout, "all-site read-fault latency");
  }
  if (r.write_latency.count() > 0) {
    r.write_latency.Print(std::cout, "all-site write-fault latency");
  }
  if (!cfg.baseline) {
    // dsm doctor: validate the global protocol invariants post-run. Under
    // faults the checker is scoped to live sites — a crashed site's frozen
    // copies left the system, and the coherence and directory/image
    // agreement must still hold among the survivors (across any failover).
    std::vector<mirage::Engine*> engines;
    for (int s = 0; s < world.site_count(); ++s) {
      engines.push_back(world.engine(s));
    }
    world.RunFor(2 * msim::kSecond);  // quiesce
    mirage::InvariantChecker checker(engines);
    if (!cfg.faults.empty()) {
      checker.SetLiveness([&world](mnet::SiteId s) { return world.faults()->SiteUp(s); });
    }
    mirage::InvariantReport report = checker.CheckFull(world.registry());
    std::printf("\ninvariants: %s (%d pages checked)\n", report.ok() ? "OK" : "VIOLATED",
                report.pages_checked);
    for (const std::string& v : report.violations) {
      std::printf("  !! %s\n", v.c_str());
    }
  }
  if (const mnet::CircuitStats* cs = world.network().circuit_stats()) {
    std::printf("\ncircuits: %llu data frames, %llu dropped, %llu retransmits, "
                "%llu duplicates suppressed\n",
                static_cast<unsigned long long>(cs->data_frames_sent),
                static_cast<unsigned long long>(cs->frames_dropped),
                static_cast<unsigned long long>(cs->retransmits),
                static_cast<unsigned long long>(cs->duplicates_suppressed));
  }
  if (cfg.enable_trace) {
    std::printf("\nprotocol trace:\n");
    world.tracer().Print(std::cout);
  }
}

}  // namespace

int main(int argc, char** argv) {
  mexp::ExperimentSpec spec;
  spec.workload = "pingpong";
  spec.rounds = 40;
  spec.max_time_s = 900;
  bool json = false;
  bool trace = false;
  mexp::SpecFlags flags(mexp::SpecFlags::Mode::kSingleRun);
  // The positional arguments are values of the shared flags.
  const char* const positional[] = {"--workload=", "--sites=", "--delta="};
  std::size_t pos = 0;
  for (int i = 1; i < argc; ++i) {
    std::string s = argv[i];
    if (s == "--json") {
      json = true;
      continue;
    }
    if (s == "--trace") {
      trace = true;
      continue;
    }
    if (s.rfind("--", 0) != 0 && pos < std::size(positional)) {
      s = positional[pos++] + s;
    }
    std::string error;
    if (mexp::SpecFlags::Result res = flags.Apply(s, &spec, &error);
        res != mexp::SpecFlags::Result::kApplied) {
      if (res == mexp::SpecFlags::Result::kNotShared) {
        error = "unknown argument '" + s + "' (see the header comment for usage)";
      }
      std::fprintf(stderr, "%s\n", error.c_str());
      return 2;
    }
  }
  spec.name = "scenario:" + spec.workload;
  if (std::string error; !flags.Finish(spec, &error)) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 2;
  }

  if (json) {
    mexp::ExperimentReport report = mexp::ExperimentRunner(1).Run(spec);
    mexp::ReportToJson(report).Dump(std::cout);
    std::cout << "\n";
    return report.failed_runs == 0 ? 0 : 1;
  }
  mexp::RunConfig cfg = spec.Expand()[0];
  cfg.enable_trace = trace;
  PrintHeader(cfg);
  mexp::RunResult r = mexp::ExecuteRun(
      cfg, [&cfg](msysv::World& world, const mexp::RunResult& rr) { PrintReport(cfg, world, rr); });
  if (!r.ok) {
    std::fprintf(stderr, "run failed: %s\n", r.error.c_str());
    return 1;
  }
  return r.metrics.at("completed") != 0.0 ? 0 : 1;
}
