// Determinism suite for the SA chain: at every worker count, under hot,
// cold and mid-run-transition schedules, runSimulatedAnnealing must be
// bit-identical to the plain reference chain (reference_annealing.h) — same
// final solution, same incumbent cost, same evaluation / acceptance /
// proposal counts, same per-iteration cost trace. The reference shares no
// evaluation code with the chain under test (full pass, no context, no
// filter, no pool), so a divergence in either shows up as a diff here.
#include "core/speculative_eval.h"

#include <gtest/gtest.h>

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <system_error>

#include "core/batch_runner.h"
#include "core/initial_mapping.h"
#include "core/parallel_annealing.h"
#include "core/simulated_annealing.h"
#include "model/system_model.h"
#include "reference_annealing.h"
#include "serve/job_manager.h"
#include "tgen/benchmark_suite.h"
#include "test_helpers.h"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define IDES_TEST_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define IDES_TEST_SANITIZED 1
#endif
#endif

namespace ides {
namespace {

using ides::testing::referenceAnnealing;

struct Instance {
  Suite suite;
  FrozenBase frozen;
  SolutionEvaluator evaluator;
  ScheduleOutcome im;

  explicit Instance(const SuiteConfig& cfg, std::uint64_t seed)
      : suite(buildSuite(cfg, seed)),
        frozen(freezeExistingApplications(suite.system)),
        evaluator(suite.system, frozen.state, suite.profile,
                  MetricWeights{}) {
    PlatformState state = frozen.state;
    im = initialMapping(suite.system, state);
  }
};

/// The two generated presets the suite sweeps: the loaded 4-node instance
/// every strategy test uses, and a smaller 3-node one with a different
/// shape (distinct graph count and message density).
std::unique_ptr<Instance> makePreset(int preset) {
  if (preset == 0) {
    return std::make_unique<Instance>(ides::testing::smallSuiteConfig(), 11);
  }
  SuiteConfig cfg = ides::testing::smallSuiteConfig(36, 12);
  cfg.nodeCount = 3;
  return std::make_unique<Instance>(cfg, 23);
}

SaOptions baseOptions(std::uint64_t seed = 1, int iterations = 900) {
  SaOptions opts;
  opts.seed = seed;
  opts.iterations = iterations;
  opts.recordCostTrace = true;
  return opts;
}

/// The default schedule: mostly above the speculation threshold, with
/// batches forming only late in the run.
SaOptions hotSchedule(std::uint64_t seed = 1) { return baseOptions(seed); }

/// A constant temperature far above any feasible cost delta: only
/// infeasible proposals are rejected, so the acceptance rate never drops
/// below the threshold.
SaOptions scorchingSchedule(std::uint64_t seed = 1) {
  SaOptions opts = baseOptions(seed);
  opts.initialTempFactor = 1e3;
  opts.finalTemp = 1e3;
  return opts;
}

/// Glacial from the first iteration: only downhill and zero-delta moves are
/// accepted, the acceptance rate sits below the threshold, and nearly every
/// iteration runs inside a speculation batch.
SaOptions coldSchedule(std::uint64_t seed = 1) {
  SaOptions opts = baseOptions(seed);
  opts.initialTempFactor = 1e-6;
  opts.finalTemp = 1e-6;
  return opts;
}

/// Hot start cooling to a glacial end, so the chain crosses the threshold
/// mid-run in the direction SA actually does.
SaOptions transitionSchedule(std::uint64_t seed = 7) {
  SaOptions opts = baseOptions(seed, 1200);
  opts.initialTempFactor = 1.0;
  opts.finalTemp = 1e-6;
  return opts;
}

SaResult runWith(const Instance& inst, SaOptions opts, int workers) {
  opts.speculation.workers = workers;
  return runSimulatedAnnealing(inst.evaluator, inst.im.mapping, opts);
}

void expectIdentical(const SaResult& reference, const SaResult& run,
                     const std::string& what) {
  EXPECT_EQ(reference.solution, run.solution) << what;
  EXPECT_EQ(reference.eval.cost, run.eval.cost) << what;
  EXPECT_EQ(reference.eval.feasible, run.eval.feasible) << what;
  EXPECT_EQ(reference.evaluations, run.evaluations) << what;
  EXPECT_EQ(reference.accepted, run.accepted) << what;
  EXPECT_EQ(reference.proposals, run.proposals) << what;
  ASSERT_EQ(reference.costTrace.size(), run.costTrace.size()) << what;
  for (std::size_t i = 0; i < reference.costTrace.size(); ++i) {
    ASSERT_EQ(reference.costTrace[i], run.costTrace[i])
        << what << " diverges at iteration " << i;
  }
}

TEST(SpeculativeSaTest, BitIdenticalAcrossPresetsWorkersAndDepths) {
  // The batch depth adapts within [workers, 4 * workers]: the cold and
  // transition schedules walk it through its whole range.
  const struct {
    const char* name;
    SaOptions options;
  } schedules[] = {{"hot", hotSchedule()},
                   {"cold", coldSchedule()},
                   {"transition", transitionSchedule()}};
  for (int preset = 0; preset < 2; ++preset) {
    const auto inst = makePreset(preset);
    ASSERT_TRUE(inst->frozen.feasible);
    ASSERT_TRUE(inst->im.feasible);
    for (const auto& schedule : schedules) {
      const SaResult reference = referenceAnnealing(
          inst->evaluator, inst->im.mapping, schedule.options);
      // One proposal per iteration.
      EXPECT_EQ(reference.proposals,
                static_cast<std::size_t>(schedule.options.iterations));
      const SaResult single = runWith(*inst, schedule.options, 1);
      for (int workers = 1; workers <= 4; ++workers) {
        const std::string what = "preset " + std::to_string(preset) + " " +
                                 schedule.name + " workers " +
                                 std::to_string(workers);
        const SaResult run = runWith(*inst, schedule.options, workers);
        expectIdentical(reference, run, what);
        // The filter's skips are a pure function of the trajectory.
        EXPECT_EQ(single.zeroDeltaSkips, run.zeroDeltaSkips) << what;
        if (workers == 1) {
          EXPECT_EQ(run.speculativeBatches, 0u) << what;
        }
      }
      // On these loaded presets the gap-fingerprint filter must have
      // replayed some proposals for free.
      EXPECT_GT(single.zeroDeltaSkips, 0u)
          << "preset " << preset << " " << schedule.name;
    }
  }
}

TEST(SpeculativeSaTest, ThresholdExtremesDoNotChangeTheTrajectory) {
  const auto inst = makePreset(0);
  ASSERT_TRUE(inst->im.feasible);

  // Acceptance above the threshold throughout: every batch is one move.
  const SaResult hot = runWith(*inst, scorchingSchedule(), 4);
  EXPECT_EQ(hot.speculativeBatches, 0u);
  expectIdentical(referenceAnnealing(inst->evaluator, inst->im.mapping,
                                     scorchingSchedule()),
                  hot, "scorching");

  // Acceptance below the threshold from the first rejection on: the chain
  // speculates nearly everywhere.
  const SaResult cold = runWith(*inst, coldSchedule(), 4);
  EXPECT_GT(cold.speculativeBatches, 0u);
  expectIdentical(
      referenceAnnealing(inst->evaluator, inst->im.mapping, coldSchedule()),
      cold, "cold");
}

TEST(SpeculativeSaTest, MidRunAcceptanceTransitionEngagesSpeculation) {
  const auto inst = makePreset(0);
  ASSERT_TRUE(inst->im.feasible);
  const SaResult reference = referenceAnnealing(
      inst->evaluator, inst->im.mapping, transitionSchedule());
  const SaResult spec = runWith(*inst, transitionSchedule(), 4);
  // The run must actually have speculated — and still match bit for bit.
  EXPECT_GT(spec.speculativeBatches, 0u);
  expectIdentical(reference, spec, "mid-run transition");
}

TEST(SpeculativeSaTest, AcceptedBatchesRewindAndResync) {
  const auto inst = makePreset(0);
  ASSERT_TRUE(inst->im.feasible);
  // Cold enough to speculate, warm enough that uphill moves still get
  // accepted: acceptances land mid-batch, discarding the speculated tail,
  // rewinding the proposal stream and leaving the worker contexts stale.
  SaOptions opts = baseOptions(3, 700);
  opts.initialTempFactor = 0.01;
  opts.finalTemp = 0.002;
  const SaResult spec = runWith(*inst, opts, 3);
  EXPECT_GT(spec.speculativeBatches, 0u);
  EXPECT_GT(spec.accepted, spec.zeroDeltaSkips);
  EXPECT_GT(spec.discardedEvaluations, 0u);
  expectIdentical(referenceAnnealing(inst->evaluator, inst->im.mapping, opts),
                  spec, "accepted batches");
}

TEST(SpeculativeSaTest, ThrowsOnInfeasibleInitial) {
  const auto inst = makePreset(0);
  ASSERT_TRUE(inst->im.feasible);
  MappingSolution bad = inst->im.mapping;
  const GraphId g = inst->evaluator.currentGraphs().front();
  const ProcessGraph& graph = inst->suite.system.graph(g);
  bad.setStartHint(graph.processes.front(), graph.deadline - 1);
  if (inst->evaluator.evaluate(bad).feasible) {
    GTEST_SKIP() << "hint did not break feasibility on this instance";
  }
  SaOptions opts = baseOptions();
  opts.speculation.workers = 4;
  EXPECT_THROW(runSimulatedAnnealing(inst->evaluator, bad, opts),
               std::invalid_argument);
}

TEST(SpeculativeSaTest, ContextPoolResyncAlignsEveryContext) {
  const auto inst = makePreset(0);
  ASSERT_TRUE(inst->im.feasible);
  EvalContextPool pool(inst->evaluator, 3);
  ASSERT_EQ(pool.size(), 3u);

  // Drift every context to a different solution.
  const std::vector<GraphId>& graphs = inst->evaluator.currentGraphs();
  for (std::size_t w = 0; w < pool.size(); ++w) {
    MappingSolution drift = inst->im.mapping;
    const ProcessId p = inst->suite.system
                            .graph(graphs[w % graphs.size()])
                            .processes.front();
    drift.setStartHint(p, static_cast<Time>(1 + w));
    MoveHint hint;
    hint.graph = graphs[w % graphs.size()];
    hint.process = p;
    pool[w].evaluate(drift, hint);
  }

  // One evaluation of the committed move re-aligns each context, however
  // stale: each context diffs it against its own reference and walks from
  // the first position where they disagree.
  MappingSolution committed = inst->im.mapping;
  const ProcessId p = inst->suite.system.graph(graphs.back())
                          .processes.back();
  committed.setStartHint(p, 5);
  MoveHint hint;
  hint.graph = graphs.back();
  hint.process = p;
  const EvalResult want = inst->evaluator.evaluate(committed);
  for (std::size_t w = 0; w < pool.size(); ++w) {
    pool[w].evaluate(committed, hint);
  }

  // After that every context serves the committed solution from its
  // reference: re-reading it is pure reuse (no job re-placed) and
  // bit-identical to the full pass.
  for (std::size_t w = 0; w < pool.size(); ++w) {
    const std::size_t before = pool[w].jobsReplaced();
    const EvalResult again = pool[w].evaluate(committed, nullptr, nullptr);
    EXPECT_EQ(pool[w].jobsReplaced(), before) << "context " << w;
    EXPECT_EQ(again.cost, want.cost) << "context " << w;
    EXPECT_EQ(again.feasible, want.feasible) << "context " << w;
  }
}

/// How one capped run ended, as bits of the child's exit code.
enum ChildOutcome : int {
  kThrewSystemError = 0,  ///< the expected outcome
  kThrewOther = 1,
  kFinished = 2,  ///< every thread started: the cap did not bite
};

template <typename Run>
int outcomeOf(Run run) {
  try {
    run();
    return kFinished;
  } catch (const std::system_error&) {
    return kThrewSystemError;
  } catch (...) {
    return kThrewOther;
  }
}

/// Exit code of a capped child whose setrlimit failed: every 2-bit field
/// reads 3, which no outcome produces.
constexpr int kSetrlimitFailed = 255;

/// Child half of FailedThreadStartsThrowInsteadOfHanging: caps the address
/// space a little above the current size, so only a few of the 200 threads
/// get a stack, and exits with the outcomes of SA, PSA, a JobManager's
/// worker pool and runBatch's shards in bits 0-1, 2-3, 4-5 and 6-7.
[[noreturn]] void runCappedChild(const Instance& inst) {
  alarm(60);  // a hang ends in SIGALRM
  long pages = 0;
  std::ifstream("/proc/self/statm") >> pages;
  const rlim_t cap = static_cast<rlim_t>(pages) *
                         static_cast<rlim_t>(sysconf(_SC_PAGESIZE)) +
                     (256u << 20);
  const rlimit limit{cap, cap};
  if (setrlimit(RLIMIT_AS, &limit) != 0) _exit(kSetrlimitFailed);

  const int sa = outcomeOf([&] {
    SaOptions opts;
    opts.iterations = 50;
    opts.speculation.workers = 200;
    (void)runSimulatedAnnealing(inst.evaluator, inst.im.mapping, opts);
  });
  const int psa = outcomeOf([&] {
    ParallelSaOptions opts;
    opts.base.iterations = 50;
    opts.threads = 200;
    opts.restarts = 200;
    (void)runParallelAnnealing(inst.evaluator, inst.im.mapping, opts);
  });
  const int jobs = outcomeOf([] {
    JobManagerOptions opts;
    opts.workers = 200;
    const JobManager manager(opts);
  });
  const int batch = outcomeOf([] {
    InstanceSuite suite("fan-out");
    for (int i = 0; i < 200; ++i) {
      BatchInstance instance;
      instance.id = std::to_string(i);
      instance.job = [](const BatchInstance&, const StopToken*) {
        InstanceOutcome outcome;
        outcome.hasReport = false;
        return outcome;
      };
      suite.add(std::move(instance));
    }
    BatchOptions opts;
    opts.shards = 200;
    (void)runBatch(suite, opts);
  });
  _exit(sa | psa << 2 | jobs << 4 | batch << 6);
}

TEST(ThreadFanOutTest, FailedThreadStartsThrowInsteadOfHanging) {
#ifdef IDES_TEST_SANITIZED
  GTEST_SKIP() << "sanitizer runtimes reserve large address ranges";
#endif
  const auto inst = makePreset(1);
  ASSERT_TRUE(inst->im.feasible);
  std::fflush(nullptr);
  const pid_t child = fork();
  ASSERT_GE(child, 0);
  if (child == 0) runCappedChild(*inst);
  int status = 0;
  ASSERT_EQ(waitpid(child, &status, 0), child);
  ASSERT_TRUE(WIFEXITED(status))
      << "child died on signal " << WTERMSIG(status)
      << " (SIGALRM = a run hung, SIGABRT = joinable threads destroyed)";
  const int code = WEXITSTATUS(status);
  ASSERT_NE(code, kSetrlimitFailed) << "setrlimit failed";
  const char* const names[] = {"SA", "PSA", "JobManager", "runBatch"};
  bool finished = false;
  for (int i = 0; i < 4; ++i) {
    const int outcome = (code >> (2 * i)) & 3;
    EXPECT_NE(outcome, kThrewOther)
        << names[i] << " failed with another exception";
    finished = finished || outcome == kFinished;
  }
  if (finished) {
    GTEST_SKIP() << "every thread got a stack under the cap (exit code "
                 << code << "); the failure path was not reached";
  }
}

}  // namespace
}  // namespace ides
