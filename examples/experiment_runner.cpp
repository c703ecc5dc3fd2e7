// The experiment harness CLI: declarative parameter sweeps executed on a
// worker-thread pool, with streaming statistics and machine-readable output.
//
// Usage:
//   experiment_runner [preset | --spec=FILE.json] [options]
//
// Presets:
//   fig8         the paper's Figure 8 Delta sweep (two conflicting
//                read-writers; matches bench_time_window's numbers)
//   amelioration §7.3/§8 background-throughput sweep (bench_time_window's
//                second table)
//   scalematrix  sites x frame-loss invalidation-scaling matrix
//                (bench_scalability's sweep, widened with a loss axis)
//   availability library-site failover sweep: ping-pong with the segment
//                homed on a pure-controller site (--lib=2), with and
//                without crashing it mid-run, across site counts and
//                replication degrees k=1..3 — the fraction of runs that
//                keep completing measures how well segments survive
//                controller loss, pages_lost measures what a data-holder
//                crash destroys at each k, and the fault-free plan prices
//                the quorum-write latency cost of k
//   kvstore      open-loop KV serving over dsmlib's DistHashMap: zipf
//                skew x get/set mix x Delta x data replicas — hot-key
//                throughput degrades as zipf-s rises and kv_replicas=2
//                recovers it for read-heavy mixes
//
// Axis/override options: the spec flags shared with scenario_runner
// (src/exp/flags.h), applied in argument order; a preset replaces the
// whole spec, so name it first. Comma lists make a grid (--sites=2,4,8
// --delta=0,120); each --crash/--pause/--cut adds one fault plan, and
// --recover extends the most recent one.
//
// Execution and output:
//   --threads=N     worker threads (default: hardware concurrency). The
//                   report is byte-identical for every N. Independently,
//                   MIRAGE_SIM_WORKERS=K parallelizes eligible single runs
//                   inside the simulator (DESIGN.md #12) - also
//                   byte-identical for every K.
//   --out=FILE      write the JSON report (default: stdout)
//   --csv=FILE      also write the long-form CSV
//   --baseline=FILE diff against a stored JSON report; regressions beyond
//                   --tolerance (default 0.10) exit non-zero
//   --quiet         no stderr progress ticker
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <mutex>
#include <sstream>
#include <string>
#include <vector>

#include "src/exp/flags.h"
#include "src/exp/report.h"
#include "src/trace/table.h"

namespace {

mexp::ExperimentSpec Fig8Spec() {
  mexp::ExperimentSpec spec;
  spec.name = "fig8";
  spec.workload = "readwriters";
  spec.sites = {2};
  spec.delta_ms = {0, 10, 30, 60, 120, 200, 300, 450, 600, 900, 1200, 1600, 2000};
  spec.repetitions = 5;
  spec.phase_offsets_ms = {0, 170, 410, 730, 1130};
  spec.iterations = 50000;
  spec.max_time_s = 600;
  return spec;
}

mexp::ExperimentSpec AmeliorationSpec() {
  mexp::ExperimentSpec spec = Fig8Spec();
  spec.name = "amelioration";
  spec.delta_ms = {0, 60, 300, 900, 2000};
  spec.with_background = true;
  return spec;
}

mexp::ExperimentSpec ScaleMatrixSpec() {
  mexp::ExperimentSpec spec;
  spec.name = "scalematrix";
  spec.workload = "scalability";
  // Extends well past the paper's testbed: the wide tail (up to 512 sites,
  // SiteMask is 512 bits wide) maps how sequential point-to-point
  // invalidation scales, and is where the parallel simulator core pays off
  // (run with MIRAGE_SIM_WORKERS=4; the loss-free points are eligible).
  spec.sites = {2, 3, 4, 6, 8, 10, 12, 16, 32, 64, 128, 256, 512};
  spec.delta_ms = {50};
  spec.loss = {0.0, 0.01};
  spec.rounds = 8;
  spec.repetitions = 1;
  spec.max_time_s = 600;
  return spec;
}

mexp::ExperimentSpec AvailabilitySpec() {
  mexp::ExperimentSpec spec;
  spec.name = "availability";
  spec.workload = "pingpong";
  spec.sites = {3, 4, 6, 8};
  spec.delta_ms = {0};
  spec.rounds = 40;
  spec.repetitions = 3;
  // The segment lives on site 2, a pure controller: the ping-pong players
  // (sites 0 and 1) hold every copy, so crashing the library tests failover
  // alone, not data loss.
  spec.library_site = 2;
  // Replication axis: k=1 is the paper's single-copy protocol, k=2..3 add
  // quorum-replicated standbys. The fault-free plan prices the quorum-write
  // latency of each k; crash_holder shows what a data-holder crash destroys
  // (pages_lost > 0 only at k=1).
  spec.replicas = {1, 2, 3};
  mexp::FaultPlanSpec none;
  none.name = "none";
  spec.fault_plans.push_back(std::move(none));
  mexp::FaultPlanSpec crash;
  crash.name = "crash_library";
  crash.plan.CrashAt(50 * msim::kMillisecond, 2);
  spec.fault_plans.push_back(std::move(crash));
  // Crash a ping-pong player (site 1) mid-run: it holds page copies, so this
  // plan measures data survival, not just controller failover. The run can't
  // complete (a player died) — pages_lost is the metric of interest.
  mexp::FaultPlanSpec holder;
  holder.name = "crash_holder";
  holder.plan.CrashAt(50 * msim::kMillisecond, 1);
  spec.fault_plans.push_back(std::move(holder));
  // The full crash-recovery lifecycle: the dead player rejoins at 150 ms
  // with amnesia, re-admits through the epoch-fenced handshake, and is
  // pulled back into the standby set. The report gains mttr_ms /
  // resurrected_pages (only this plan emits them); at k>=2 the rejoin
  // re-attains full k-replica coverage and pages_lost stays 0.
  mexp::FaultPlanSpec rejoin;
  rejoin.name = "crash_holder_rejoin";
  rejoin.plan.CrashAt(50 * msim::kMillisecond, 1);
  rejoin.plan.RecoverAt(150 * msim::kMillisecond, 1);
  spec.fault_plans.push_back(std::move(rejoin));
  spec.max_time_s = 60;
  return spec;
}

mexp::ExperimentSpec KvStoreSpec() {
  mexp::ExperimentSpec spec;
  spec.name = "kvstore";
  spec.workload = "kvstore";
  spec.sites = {4};
  spec.delta_ms = {0, 30};
  // The skew sensitivity story in one CI-sized grid. At kv_replicas=1 and
  // the read-heavy mix, rising zipf-s concentrates traffic on one shard's
  // home: throughput falls, get latency climbs, and lib_load_max_share
  // shows the pile-up. A second data replica recovers the read side — get
  // latency and library balance go flat across the whole sweep — at a flat
  // write-amplification cost in throughput; the write-heavy mix pays double
  // for every set and shows the replication tax undiluted.
  spec.zipf_s = {0.0, 0.9, 1.3};
  spec.get_mix = {0.5, 0.95};
  spec.kv_replicas = {1, 2};
  // 3 reps x 400 ops/site: enough load past warm-up for the trends above to
  // be monotone rather than seed noise, still ~seconds of wall time.
  spec.repetitions = 3;
  spec.kv_ops_per_site = 400;
  spec.kv_arrival_per_s = 240.0;
  spec.max_time_s = 120;
  return spec;
}

const std::map<std::string, mexp::ExperimentSpec (*)()> kPresets = {
    {"fig8", Fig8Spec},
    {"amelioration", AmeliorationSpec},
    {"scalematrix", ScaleMatrixSpec},
    {"availability", AvailabilitySpec},
    {"kvstore", KvStoreSpec}};

// Reads and parses a JSON file; `what` names it in error messages.
bool ReadJsonFile(const std::string& path, const char* what, mexp::Json* out) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "cannot open %s '%s'\n", what, path.c_str());
    return false;
  }
  std::stringstream buf;
  buf << in.rdbuf();
  std::string error;
  *out = mexp::Json::Parse(buf.str(), &error);
  if (!error.empty()) {
    std::fprintf(stderr, "%s parse error: %s\n", what, error.c_str());
    return false;
  }
  return true;
}

// Console summary: one row per grid point with the headline metrics.
void PrintSummary(const mexp::ExperimentReport& report) {
  mtrace::TextTable t({"point", "sites", "Delta (ms)", "loss", "repl", "faults", "metric",
                       "mean", "min", "max", "ci95"});
  int index = 0;
  for (const mexp::PointResult& pt : report.points) {
    // The headline metric: throughput when present, else the workload's
    // primary latency/elapsed figure.
    const char* headline = pt.metrics.count("throughput") != 0 ? "throughput"
                           : pt.metrics.count("mean_write_latency_ms") != 0
                               ? "mean_write_latency_ms"
                               : "elapsed_s";
    auto it = pt.metrics.find(headline);
    if (it == pt.metrics.end()) {
      continue;
    }
    const mexp::StatsAccumulator& acc = it->second;
    t.AddRow({mtrace::TextTable::Int(index++), mtrace::TextTable::Int(pt.params.sites),
              mtrace::TextTable::Int(static_cast<int>(pt.params.delta_ms)),
              mtrace::TextTable::Num(pt.params.loss, 3),
              mtrace::TextTable::Int(pt.params.replicas), pt.params.fault_plan, headline,
              mtrace::TextTable::Num(acc.Mean(), 1), mtrace::TextTable::Num(acc.Min(), 1),
              mtrace::TextTable::Num(acc.Max(), 1),
              mtrace::TextTable::Num(acc.Ci95HalfWidth(), 1)});
  }
  t.Print(std::cerr);
}

}  // namespace

int main(int argc, char** argv) {
  mexp::ExperimentSpec spec;
  mexp::SpecFlags flags(mexp::SpecFlags::Mode::kSweep);
  int threads = 0;
  bool quiet = false;
  std::string out_path;
  std::string csv_path;
  std::string baseline_path;
  double tolerance = 0.10;

  for (int i = 1; i < argc; ++i) {
    std::string s = argv[i];
    auto value = [&s]() { return s.substr(s.find('=') + 1); };
    std::string error;
    if (auto preset = kPresets.find(s); preset != kPresets.end()) {
      spec = preset->second();
    } else if (s.rfind("--spec=", 0) == 0) {
      mexp::Json j;
      if (!ReadJsonFile(value(), "spec file", &j)) {
        return 2;
      }
      if (!mexp::ExperimentSpec::FromJson(j, &spec, &error)) {
        std::fprintf(stderr, "bad spec: %s\n", error.c_str());
        return 2;
      }
    } else if (s.rfind("--threads=", 0) == 0) {
      threads = std::atoi(value().c_str());
    } else if (s.rfind("--out=", 0) == 0) {
      out_path = value();
    } else if (s.rfind("--csv=", 0) == 0) {
      csv_path = value();
    } else if (s.rfind("--baseline=", 0) == 0) {
      baseline_path = value();
    } else if (s.rfind("--tolerance=", 0) == 0) {
      tolerance = std::atof(value().c_str());
    } else if (s == "--quiet") {
      quiet = true;
    } else if (mexp::SpecFlags::Result res = flags.Apply(s, &spec, &error);
               res != mexp::SpecFlags::Result::kApplied) {
      if (res == mexp::SpecFlags::Result::kNotShared) {
        error = "unknown argument '" + s + "' (see the header comment for usage)";
      }
      std::fprintf(stderr, "%s\n", error.c_str());
      return 2;
    }
  }
  if (std::string error; !flags.Finish(spec, &error)) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 2;
  }

  mexp::ExperimentRunner runner(threads);
  int total_runs = spec.PointCount() * spec.repetitions;
  if (!quiet) {
    std::fprintf(stderr, "%s: %d points x %d reps = %d runs on %d threads\n",
                 spec.name.c_str(), spec.PointCount(), spec.repetitions, total_runs,
                 runner.threads());
  }
  std::mutex progress_mu;
  auto progress = [&](int done, int total) {
    if (quiet) {
      return;
    }
    std::lock_guard<std::mutex> lock(progress_mu);
    std::fprintf(stderr, "\r%d/%d runs", done, total);
    if (done == total) {
      std::fprintf(stderr, "\n");
    }
  };
  mexp::ExperimentReport report = runner.Run(spec, progress);

  mexp::Json doc = mexp::ReportToJson(report);
  if (out_path.empty()) {
    doc.Dump(std::cout);
    std::cout << "\n";
  } else {
    std::ofstream out(out_path);
    if (!out) {
      std::fprintf(stderr, "cannot write '%s'\n", out_path.c_str());
      return 2;
    }
    doc.Dump(out);
    out << "\n";
    if (!quiet) {
      std::fprintf(stderr, "report: %s\n", out_path.c_str());
    }
  }
  if (!csv_path.empty()) {
    std::ofstream csv(csv_path);
    if (!csv) {
      std::fprintf(stderr, "cannot write '%s'\n", csv_path.c_str());
      return 2;
    }
    mexp::WriteCsv(report, csv);
    if (!quiet) {
      std::fprintf(stderr, "csv: %s\n", csv_path.c_str());
    }
  }
  if (!quiet) {
    PrintSummary(report);
  }
  if (report.failed_runs > 0) {
    std::fprintf(stderr, "%d run(s) failed\n", report.failed_runs);
    return 1;
  }

  if (!baseline_path.empty()) {
    mexp::Json base;
    if (!ReadJsonFile(baseline_path, "baseline", &base)) {
      return 2;
    }
    std::vector<mexp::DiffEntry> diffs = mexp::DiffReports(base, doc, tolerance);
    int regressions = 0;
    for (const mexp::DiffEntry& d : diffs) {
      if (d.regression) {
        ++regressions;
      }
      std::fprintf(stderr, "%s  %s: %s -> %s (%+.1f%%)%s\n", d.point.c_str(),
                   d.metric.c_str(), mexp::Json::NumberToString(d.baseline).c_str(),
                   mexp::Json::NumberToString(d.current).c_str(), d.rel_change * 100.0,
                   d.regression ? "  REGRESSION" : "");
    }
    if (regressions > 0) {
      std::fprintf(stderr, "%d regression(s) beyond %.0f%% tolerance\n", regressions,
                   tolerance * 100.0);
      return 1;
    }
    std::fprintf(stderr, "baseline diff: no regressions beyond %.0f%% tolerance\n",
                 tolerance * 100.0);
  }
  return 0;
}
