#include "src/exp/flags.h"

#include <cstdio>
#include <cstdlib>
#include <limits>
#include <map>
#include <sstream>
#include <type_traits>
#include <vector>

namespace mexp {

namespace {

// One scalar flag value, parsed with the C library's leniency; the 64-bit
// seed also takes a 0x... hex value.
template <typename T>
bool Parse(const std::string& v, T* out) {
  if constexpr (std::is_same_v<T, std::string>) {
    *out = v;
  } else if constexpr (std::is_same_v<T, std::uint64_t>) {
    *out = std::strtoull(v.c_str(), nullptr, 0);
  } else if constexpr (std::is_floating_point_v<T>) {
    *out = std::atof(v.c_str());
  } else {
    *out = static_cast<T>(std::atol(v.c_str()));
  }
  return true;
}

// A comma-separated axis list; false when the list or any item is empty.
template <typename T>
bool Parse(const std::string& v, std::vector<T>* out) {
  std::vector<T> vals;
  std::stringstream ss(v);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (item.empty() || !Parse(item, &vals.emplace_back())) {
      return false;
    }
  }
  if (vals.empty()) {
    return false;
  }
  *out = std::move(vals);
  return true;
}

bool Switch(bool* field, bool value) {
  *field = value;
  return true;
}

using Arg = const std::string&;
using Spec = ExperimentSpec;

// Flag text up to and including '=' (the whole text for a switch) ->
// setter of the spec field; a setter returns false on a malformed value.
const std::map<std::string, bool (*)(Arg, Spec*)> kSetters = {
    {"--workload=", [](Arg v, Spec* s) { return Parse(v, &s->workload); }},
    {"--sites=", [](Arg v, Spec* s) { return Parse(v, &s->sites); }},
    {"--delta=", [](Arg v, Spec* s) { return Parse(v, &s->delta_ms); }},
    {"--quantum=", [](Arg v, Spec* s) { return Parse(v, &s->quantum_ticks); }},
    {"--segbytes=", [](Arg v, Spec* s) { return Parse(v, &s->segment_bytes); }},
    {"--loss=", [](Arg v, Spec* s) { return Parse(v, &s->loss); }},
    {"--replicas=", [](Arg v, Spec* s) { return Parse(v, &s->replicas); }},
    {"--zipf=", [](Arg v, Spec* s) { return Parse(v, &s->zipf_s); }},
    {"--mix=", [](Arg v, Spec* s) { return Parse(v, &s->get_mix); }},
    {"--kvreplicas=", [](Arg v, Spec* s) { return Parse(v, &s->kv_replicas); }},
    {"--cost=", [](Arg v, Spec* s) { return Parse(v, &s->cost_presets); }},
    {"--offsets=", [](Arg v, Spec* s) { return Parse(v, &s->phase_offsets_ms); }},
    {"--keys=", [](Arg v, Spec* s) { return Parse(v, &s->kv_keys); }},
    {"--rate=", [](Arg v, Spec* s) { return Parse(v, &s->kv_arrival_per_s); }},
    {"--kvops=", [](Arg v, Spec* s) { return Parse(v, &s->kv_ops_per_site); }},
    {"--reps=", [](Arg v, Spec* s) { return Parse(v, &s->repetitions); }},
    {"--iters=", [](Arg v, Spec* s) { return Parse(v, &s->iterations); }},
    {"--rounds=", [](Arg v, Spec* s) { return Parse(v, &s->rounds); }},
    {"--lib=", [](Arg v, Spec* s) { return Parse(v, &s->library_site); }},
    {"--max-time-s=", [](Arg v, Spec* s) { return Parse(v, &s->max_time_s); }},
    {"--seed=", [](Arg v, Spec* s) { return Parse(v, &s->seed); }},
    {"--no-yield", [](Arg, Spec* s) { return Switch(&s->use_yield, false); }},
    {"--parallel-lib", [](Arg, Spec* s) { return Switch(&s->parallel_lib, true); }},
    {"--baseline", [](Arg, Spec* s) { return Switch(&s->baseline, true); }},
};

}  // namespace

SpecFlags::Result SpecFlags::Apply(const std::string& arg, ExperimentSpec* spec,
                                   std::string* error) {
  const std::size_t eq = arg.find('=');
  const std::string key = eq == std::string::npos ? arg : arg.substr(0, eq + 1);
  const std::string value = eq == std::string::npos ? "" : arg.substr(eq + 1);
  if (key == "--crash=" || key == "--recover=" || key == "--pause=" || key == "--cut=") {
    return ApplyFault(key.substr(2, key.size() - 3), value, spec, error) ? Result::kApplied
                                                                         : Result::kBad;
  }
  const auto setter = kSetters.find(key);
  if (setter == kSetters.end()) {
    return Result::kNotShared;
  }
  if (!setter->second(value, spec)) {
    *error = "bad list in '" + arg + "'";
    return Result::kBad;
  }
  return Result::kApplied;
}

bool SpecFlags::ApplyFault(const std::string& name, const std::string& value,
                           ExperimentSpec* spec, std::string* error) {
  int site = 0;
  int peer = 0;
  long t1 = 0;
  long t2 = std::numeric_limits<long>::max();  // only --pause and --cut set an end
  const char* v = value.c_str();
  const bool ok = name == "crash"     ? std::sscanf(v, "%d@%ld", &site, &t1) == 2
                  : name == "recover" ? std::sscanf(v, "%ld:%d", &t1, &site) == 2
                  : name == "pause"   ? std::sscanf(v, "%d@%ld:%ld", &site, &t1, &t2) == 3
                                      : std::sscanf(v, "%d-%d@%ld:%ld", &site, &peer, &t1,
                                                    &t2) == 4;
  if (!ok || t2 < t1) {
    const char* want = name == "crash"     ? "S@Tms"
                       : name == "recover" ? "Tms:SITE"
                       : name == "pause"   ? "S@T1:T2 ms"
                                           : "A-B@T1:T2 ms";
    *error = "bad --" + name + ", want " + want + ": --" + name + "=" + value;
    return false;
  }
  if (name == "recover") {
    if (spec->fault_plans.empty()) {
      *error = "--recover needs a preceding --crash plan to extend";
      return false;
    }
  } else if (mode_ == Mode::kSweep || spec->fault_plans.empty()) {
    FaultPlanSpec fp;
    fp.name = mode_ == Mode::kSingleRun ? "scenario" : name + std::to_string(next_plan_++);
    spec->fault_plans.push_back(std::move(fp));
  }
  mfault::FaultPlan& plan = spec->fault_plans.back().plan;
  const msim::Time at = t1 * msim::kMillisecond;
  if (name == "crash") {
    plan.CrashAt(at, site);
  } else if (name == "recover") {
    plan.RecoverAt(at, site);
  } else if (name == "pause") {
    plan.PauseAt(at, site).ResumeAt(t2 * msim::kMillisecond, site);
  } else {
    plan.PartitionAt(at, site, peer).HealAt(t2 * msim::kMillisecond, site, peer);
  }
  return true;
}

bool SpecFlags::Finish(const ExperimentSpec& spec, std::string* error) const {
  if (!spec.Validate(error)) {
    return false;
  }
  const int runs = spec.PointCount() * spec.repetitions;
  if (mode_ == Mode::kSingleRun && runs != 1) {
    *error = "this spec expands to " + std::to_string(runs) +
             " runs, scenario_runner runs one: sweep it with experiment_runner";
    return false;
  }
  return true;
}

}  // namespace mexp
