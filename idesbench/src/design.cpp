// design — closed loop, one caller: runDesignJob on paper instances (10
// nodes, 400 existing processes, 160 and 320 current). MH runs on every
// instance; SA at its default budget on the first instance of each size,
// and PSA (4 chains, threads = cores) on the first 160-process one. The
// optimizer's inner loop does nearly all the work here.
//
// The instances are a fixed pool (generator seeds 1..n per size) and the
// run seed orders the operations. One MH job's time varies widely between
// generator seeds: with 20 seeded instances per run, the mean MH job time
// still spread 26% between runs.
#include <iterator>

#include "bench.h"
#include "serve/design_job.h"
#include "spans.h"
#include "stats.h"
#include "util/rng.h"

namespace idesbench {

namespace {

/// Speed-kernel runs before each job, while nothing else runs.
constexpr int kKernelRunsPerJob = 2;

struct DesignOp {
  const Instance* inst;
  std::string strategy;
};

}  // namespace

void runDesign(const Config& cfg, const DesignPlan& plan, Report& report,
               OpLog& log) {
  // Set-up: generate every instance and freeze its existing applications
  // (buildSuite + freeze + initial mapping), repeated.
  std::vector<std::unique_ptr<Instance>> instances;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    instances.clear();
    const Clock::time_point t0 = Clock::now();
    for (std::size_t s = 0; s < std::size(kDesignSizes); ++s) {
      for (int k = 0; k < plan.instances[s]; ++k) {
        instances.push_back(buildInstance(kDesignSizes[s], designSeed(k)));
      }
    }
    log.recordSetup(secondsSince(t0));
  }
  std::vector<DesignOp> ops;
  for (std::size_t i = 0; i < instances.size(); ++i) {
    const Instance* inst = instances[i].get();
    report.check(inst->usable, "instance n" + std::to_string(inst->current) +
                                   " is not schedulable");
    ops.push_back({inst, "MH"});
    if (i == 0 || inst->current != instances[i - 1]->current) {
      for (const std::string& s : plan.heavy) {
        if (i == 0 || s == "SA") ops.push_back({inst, s});
      }
    }
  }
  ides::Rng order(deriveSeed(cfg.seed, 1));
  order.shuffle(ops);

  std::map<std::string, std::string> firstJson;
  // Objective C per strategy over the smallest size only: at 320 current
  // processes the platform sits at a feasibility cliff and one generator
  // seed's objective can be 15x another's.
  std::map<std::string, std::map<std::string, double>> objectiveOf;
  const Clock::time_point start = Clock::now();
  bool done = false;
  for (int round = 0; !done; ++round) {
    for (const DesignOp& op : ops) {
      if (round > 0 && secondsSince(start) >= plan.seconds) {
        done = true;
        break;
      }
      ides::DesignJobSpec spec;
      spec.current = op.inst->current;
      spec.seed = op.inst->genSeed;
      spec.strategy = op.strategy;
      spec.saIterations = plan.saIterations;
      spec.threads = cfg.threads;
      const std::string key = "n" + std::to_string(op.inst->current) + "/" +
                              std::to_string(op.inst->genSeed) + "/" +
                              op.strategy;

      log.sampleSpeed(kKernelRunsPerJob);
      report.attempt();
      ides::RunContext context;
      ides::DesignJobResult result;
      const Clock::time_point t0 = Clock::now();
      try {
        const Span span("serve.design_job");
        result = ides::runDesignJob(spec, context);
      } catch (const std::exception& e) {
        report.fail(key + ": " + e.what());
        continue;
      }
      const double ms = msSince(t0);
      if (!result.result.feasible || !result.validationOk ||
          result.result.stopped) {
        report.fail(key + ": infeasible or invalid schedule");
        continue;
      }
      const std::string json = ides::designResultJson(result);
      const auto [it, fresh] = firstJson.emplace(key, json);
      if (!fresh && it->second != json) {
        report.fail(key + ": result JSON differs between repeats");
        continue;
      }
      // PSA runs its chains on every core, which the one-thread speed
      // kernel does not gauge (see speed.h).
      log.record(key, op.strategy, ms, op.strategy != "PSA");
      if (op.inst->current == kDesignSizes[0]) {
        objectiveOf[op.strategy][key] = result.result.objective;
      }
    }
    if (!done) {
      log.roundOps = log.completed;
      log.roundSeconds = secondsSince(start) - log.kernelSeconds;
    }
    if (plan.seconds <= 0.0) done = true;
  }
  // Every strategy weighs the same, however many instances it ran on.
  for (const auto& [strategy, byKey] : objectiveOf) {
    std::vector<double> values;
    for (const auto& [key, objective] : byKey) values.push_back(objective);
    log.objectives.push_back(geomean(values));
  }

  if (plan.postChecks) {
    // Untimed correctness checks on the first instance: the incremental
    // evaluator against the full pass, speculative SA against sequential.
    const Instance& inst = *instances.front();
    if (inst.usable) {
      const WalkStats walk = evalWalk(inst, 300, deriveSeed(cfg.seed, 7));
      report.check(walk.mismatches == 0,
                   std::to_string(walk.mismatches) + " of " +
                       std::to_string(walk.moves) +
                       " incremental evaluations differ from the full pass");
      const SpecComparison spec = compareSpeculation(
          inst, 2000, cfg.threads, deriveSeed(cfg.seed, 8));
      report.check(spec.identical,
                   "speculative SA differs from the sequential chain");
    }
  }
  log.peakRssMb = selfPeakRssMb();
}

}  // namespace idesbench
