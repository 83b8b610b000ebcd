// Shared declarations of the IDES benchmark program.
//
// Four workloads drive the library from outside, through its public entry
// points (runDesignJob, runBatch, runLifecycle, and the ides_serve daemon
// over loopback). Every workload reports the same end-to-end metrics, each
// defined over the workload's own operations (see idesbench/README.md); the
// traced run additionally reports per-layer metrics from spans around the
// benchmark's calls into each module.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "core/evaluator.h"
#include "core/initial_mapping.h"
#include "core/simulated_annealing.h"
#include "speed.h"
#include "tgen/benchmark_suite.h"

namespace idesbench {

using Clock = std::chrono::steady_clock;

inline double msSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}
inline double secondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Set-up is repeated this many times per run and its median reported.
inline constexpr int kSetupRepeats = 5;
/// Speed-kernel runs after each set-up repeat (see OpLog::recordSetup).
inline constexpr int kKernelRunsPerSetup = 5;
/// Current-process counts of the design workload's paper instances.
inline constexpr std::size_t kDesignSizes[] = {160, 320};
/// SA iterations per lifecycle step.
inline constexpr int kLifecycleSaIterations = 500;
/// Offered arrival rate of the serve workload (per second, open loop).
inline constexpr double kServeRate = 40.0;

struct Config {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory of this run (stores, daemon logs, trace output).
  std::string workDir;
  /// Path of the ides_serve binary built next to this program.
  std::string serveBinary;
  /// Load threads and connections: the machine's core count.
  int threads = 1;
};

/// Seed of one generator/scenario/traffic stream, derived from the run seed.
std::uint64_t deriveSeed(std::uint64_t seed, std::uint64_t stream);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;
};

/// Metrics plus operation accounting of one run.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit,
              std::size_t samples);
  /// One more operation attempted.
  void attempt() { ++attempted_; }
  /// The current operation failed (each failure once per operation).
  void fail(const std::string& why);
  /// Attempts one check operation; fails it unless `ok`.
  void check(bool ok, const std::string& what);
  void note(const std::string& line) { notes_.push_back(line); }

  [[nodiscard]] const std::vector<Metric>& metrics() const { return metrics_; }
  [[nodiscard]] std::size_t attempted() const { return attempted_; }
  [[nodiscard]] std::size_t failed() const { return failed_; }
  [[nodiscard]] const std::vector<std::string>& failures() const {
    return failures_;
  }
  [[nodiscard]] const std::vector<std::string>& notes() const { return notes_; }

 private:
  std::vector<Metric> metrics_;
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
  std::vector<std::string> failures_;
  std::vector<std::string> notes_;
};

/// What every workload records; the end-to-end metrics derive from it.
struct OpLog {
  std::vector<double> setupSeconds;
  /// Median speed-kernel CPU time (ms) right after each set-up repeat, one
  /// per entry of setupSeconds; empty for a workload whose times are not
  /// scaled.
  std::vector<double> setupKernelMs;
  /// Operation key -> wall time of each repeat (ms). One key is one
  /// distinct operation (instance x strategy, lifecycle step, request).
  std::map<std::string, std::vector<double>> latencyMs;
  /// Operation key -> strategy that produced a design ("" when none).
  std::map<std::string, std::string> strategy;
  /// Final objective C of each distinct design the run produced.
  std::vector<double> objectives;
  std::size_t completed = 0;
  /// Operations and wall time up to the end of the last complete round
  /// over the operation set. Throughput counts complete rounds only, so a
  /// slow operation cut off at the deadline does not skew it.
  std::size_t roundOps = 0;
  double roundSeconds = 0.0;
  double peakRssMb = 0.0;
  /// Speed-kernel CPU times (ms) taken at idle points (speed.h); empty for
  /// a workload whose times are not scaled.
  std::vector<double> kernelMs;
  /// Wall time spent on the kernel; workloads leave it out of roundSeconds.
  double kernelSeconds = 0.0;

  /// Operations whose work ran on several threads; their times are never
  /// scaled (see speed.h).
  std::set<std::string> multiThreaded;

  void record(const std::string& key, const std::string& strat, double ms,
              bool oneThread = true) {
    latencyMs[key].push_back(ms);
    strategy[key] = strat;
    if (!oneThread) multiThreaded.insert(key);
    ++completed;
  }
  /// Times the speed kernel `runs` times; call only while the workload is
  /// idle.
  void sampleSpeed(int runs) {
    kernelSeconds += idesbench::sampleSpeed(kernelMs, runs);
  }
  /// Records one set-up repeat of an in-process workload and times the
  /// speed kernel right after it: the machine's speed drifts within a run,
  /// so set-up is scaled by the kernel at set-up time, repeat by repeat.
  void recordSetup(double seconds);
};

/// Adds the end-to-end metrics (see README) computed from `log`. When the
/// workload sampled the speed kernel, every time of work that ran on one
/// thread is scaled to the reference speed (see speed.h).
void addEndToEnd(const OpLog& log, Report& report);

/// Peak resident set of this process (MB).
double selfPeakRssMb();

/// One paper instance (10 nodes, 400 existing processes, `current` current
/// processes, the CLI's pinned tneed) generated, frozen and initially
/// mapped — the inputs of design jobs and of the layer probes.
struct Instance {
  Instance(std::size_t currentProcesses, std::uint64_t seed, ides::Suite built)
      : current(currentProcesses), genSeed(seed), suite(std::move(built)) {}

  std::size_t current = 0;
  std::uint64_t genSeed = 0;
  ides::Suite suite;
  std::optional<ides::FrozenBase> frozen;
  std::unique_ptr<ides::SolutionEvaluator> evaluator;
  ides::MappingSolution initial;
  bool usable = false;
};

ides::SuiteConfig paperInstanceConfig(std::size_t current);
/// Generator seed of the index-th instance of the design pool (the same
/// for every size and every run).
inline std::uint64_t designSeed(int index) {
  return static_cast<std::uint64_t>(index) + 1;
}
std::unique_ptr<Instance> buildInstance(std::size_t current,
                                        std::uint64_t genSeed);

/// Replays a recorded SaMoveProposer walk through the full pass and the
/// incremental EvalContext, move by move.
struct WalkStats {
  std::size_t moves = 0;
  std::size_t mismatches = 0;  ///< incremental cost != full-pass cost
};
/// One replayed move: both evaluation times and how deep the context
/// rewound (classified as in bench_incremental_eval).
struct WalkMove {
  enum class Depth { ZeroDelta, MidGraph, GraphStart };
  double fullUs = 0.0;
  double incUs = 0.0;
  Depth depth = Depth::GraphStart;
};
WalkStats evalWalk(const Instance& inst, int moves, std::uint64_t seed,
                   std::vector<WalkMove>* timings = nullptr);

/// The same SA chain run sequentially and with `workers` speculative
/// evaluation threads (same seed, cost trace recorded).
struct SpecComparison {
  ides::SaResult sequential;
  ides::SaResult speculative;
  double sequentialSeconds = 0.0;
  double speculativeSeconds = 0.0;
  /// Every result field and the per-iteration cost trace agree.
  bool identical = false;
};
SpecComparison compareSpeculation(const Instance& inst, int iterations,
                                  int workers, std::uint64_t seed);

// ---- workloads ------------------------------------------------------------

struct DesignPlan {
  /// Generator seeds per size of kDesignSizes. MH runs on every instance:
  /// a single MH job time varies widely between instances, so its mean
  /// needs many. With the 3 heavy jobs this makes 20 operations, so the
  /// median falls mid-way through the 320-process MH jobs and the 90th
  /// percentile on the fastest heavy job. A round takes about 8 s, so a
  /// 20-second run holds two (with PSA on the 320-process instance too it
  /// took about 12 s, and throughput rested on a single round).
  std::vector<int> instances{3, 14};
  /// Strategies run on the first instance of the smallest size; of them,
  /// SA also runs on the first instance of every other size.
  std::vector<std::string> heavy{"SA", "PSA"};
  int saIterations = 0;  ///< 0 = the SA default budget
  double seconds = 0.0;  ///< 0 = one round
  bool postChecks = true;
};
void runDesign(const Config& cfg, const DesignPlan& plan, Report& report,
               OpLog& log);

struct SweepPlan {
  std::string scale = "default";
  double seconds = 0.0;  ///< 0 = one pass
};
void runSweep(const Config& cfg, const SweepPlan& plan, Report& report,
              OpLog& log);

struct LifecyclePlan {
  int scenarios = 4;
  int steps = 50;
  double seconds = 0.0;  ///< 0 = one cycle
};
void runLifecycleWorkload(const Config& cfg, const LifecyclePlan& plan,
                          Report& report, OpLog& log);

struct ServePlan {
  double seconds = 2.0;
  int setups = kSetupRepeats;
};
void runServe(const Config& cfg, const ServePlan& plan, Report& report,
              OpLog& log);

/// Per-layer probes of the traced run: direct, span-timed calls into tgen,
/// sched, core, lifecycle, store, serve and obs on instances derived from
/// the run seed.
void runLayerProbes(const Config& cfg, Report& report);

}  // namespace idesbench
