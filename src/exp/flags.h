// Command-line flags shared by experiment_runner and scenario_runner.
//
// Every flag sets an existing ExperimentSpec field, and SpecFlags::Finish
// applies ExperimentSpec::Validate, so both runners accept the same
// spellings and ranges as spec files. A comma list makes a grid axis;
// scenario_runner takes one value each.
//
//   --workload=W              readwriters|pingpong|spinlock|scalability|
//                             matrix|dot|tsp|kvstore
//   --sites=2,4,8             site count, 1..512
//   --delta=0,120,600         time window Delta (ms)
//   --quantum=6               scheduling quantum (ticks)
//   --segbytes=512            segment size (bytes)
//   --loss=0,0.02             frame-loss probability (circuits retransmit)
//   --replicas=1,2,3          quorum-replicated copies of every page: cold
//                             standbys of the last committed version (1 = off)
//   --zipf=0,0.9,1.3          kvstore key-popularity skew (0 = uniform)
//   --mix=0.5,0.95            kvstore get fraction, in [0, 1]
//   --kvreplicas=1,2          kvstore data-level table copies
//   --cost=ethernet1989,rdma  cost-model preset: the paper's measured
//                             VAX/Ethernet constants, or a microsecond-scale
//                             interconnect ablation
//   --offsets=0,170,410       per-repetition start phases (ms)
//   --keys=N --rate=R --kvops=N
//                             kvstore key space, per-site arrival rate (/s),
//                             generated ops per site
//   --reps=N                  repetitions per grid point
//   --seed=N                  spec seed; each run's seed (kvstore requests,
//                             frame loss) derives from it
//   --iters=N --rounds=N      readwriters iterations, pingpong/scalability
//                             rounds
//   --lib=S                   pre-create the segment at site S, its library
//                             site (pingpong/readwriters), so a crash plan
//                             can kill a pure controller
//   --max-time-s=N            per-run simulated-time cap
//   --no-yield                busy-wait instead of yield() in spin loops
//   --parallel-lib            concurrent library service of distinct pages
//   --baseline                the Li/Hudak protocol instead of Mirage
//   --crash=S@T               crash site S at T ms
//   --recover=T:SITE          revive crashed SITE at T ms with amnesia; it
//                             rejoins through the epoch-fenced handshake.
//                             Extends the latest plan: put it after --crash
//   --pause=S@T1:T2           hold site S's inbound delivery from T1 to T2 ms
//   --cut=A-B@T1:T2           partition the A<->B link from T1 to T2 ms
#ifndef SRC_EXP_FLAGS_H_
#define SRC_EXP_FLAGS_H_

#include <string>

#include "src/exp/spec.h"

namespace mexp {

class SpecFlags {
 public:
  enum class Mode {
    // experiment_runner: each --crash/--pause/--cut adds its own value of
    // the fault-plan axis (crash1, pause2, ...); --recover extends the most
    // recent plan.
    kSweep,
    // scenario_runner: every fault flag appends to one plan named
    // "scenario", in flag order, and Finish refuses a spec that expands to
    // more than one run.
    kSingleRun,
  };
  enum class Result {
    kApplied,    // a shared flag, now set in the spec
    kNotShared,  // not a shared flag: the caller handles it
    kBad,        // a shared flag with a malformed value; *error says why
  };

  explicit SpecFlags(Mode mode) : mode_(mode) {}

  Result Apply(const std::string& arg, ExperimentSpec* spec, std::string* error);
  // After the last argument: ExperimentSpec::Validate, plus the one-run
  // rule in kSingleRun mode. False sets *error.
  bool Finish(const ExperimentSpec& spec, std::string* error) const;

 private:
  bool ApplyFault(const std::string& name, const std::string& value, ExperimentSpec* spec,
                  std::string* error);

  Mode mode_;
  int next_plan_ = 1;  // kSweep plan-name suffix
};

}  // namespace mexp

#endif  // SRC_EXP_FLAGS_H_
