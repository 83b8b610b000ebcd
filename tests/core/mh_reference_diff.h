// The diff harness around referenceMappingHeuristic: runs the production
// MH and the reference loop under several MhOptions shapes and requires
// identical results, cost bits included. Shared by the generated-suite
// diff (core) and the paper-scale one (integration).
#pragma once

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "core/initial_mapping.h"
#include "core/mapping_heuristic.h"
#include "core/reference_mapping_heuristic.h"
#include "tgen/benchmark_suite.h"
#include "util/rng.h"

namespace ides::testing {

struct NamedOptions {
  const char* name;
  MhOptions options;
};

inline std::vector<NamedOptions> optionShapes() {
  std::vector<NamedOptions> shapes;
  shapes.push_back({"defaults", MhOptions{}});
  MhOptions wider;
  wider.candidateProcesses = 10;
  wider.targetNodes = 5;
  wider.gapsPerNode = 3;
  shapes.push_back({"10/5/3", wider});
  MhOptions widest;
  widest.candidateProcesses = 20;
  widest.targetNodes = 10;
  widest.gapsPerNode = 4;
  shapes.push_back({"20/10/4", widest});
  MhOptions budgeted;
  budgeted.maxEvaluations = 50;
  shapes.push_back({"maxEvaluations 50", budgeted});
  MhOptions noMessages;
  noMessages.candidateMessages = 0;
  shapes.push_back({"candidateMessages 0", noMessages});
  MhOptions messagesOnly;
  messagesOnly.candidateProcesses = 0;
  shapes.push_back({"candidateProcesses 0", messagesOnly});
  return shapes;
}

/// `im` with each current message's hint moved to a random point in the
/// first quarter of its period, wherever the solution stays feasible. The
/// Initial Mapping sends every message as early as it can, and from there
/// no message move improves C; late messages give the message candidates
/// (and so their ranking) a say in the result.
inline MappingSolution withLateMessages(const SolutionEvaluator& evaluator,
                                        const MappingSolution& im,
                                        std::uint64_t seed) {
  const SystemModel& sys = evaluator.system();
  Rng rng(seed);
  MappingSolution solution = im;
  for (const GraphId g : evaluator.currentGraphs()) {
    for (const MessageId m : sys.graph(g).messages) {
      const Time before = solution.messageHint(m);
      solution.setMessageHint(m, rng.uniformInt(0, sys.graph(g).period / 4));
      if (!evaluator.evaluate(solution).feasible) {
        solution.setMessageHint(m, before);
      }
    }
  }
  return solution;
}

/// Runs both loops under every option shape, from the Initial Mapping of
/// `suite` and, when `lateMessageSeed` is non-zero, from its late-message
/// variant, and requires identical results, cost bits included. Returns
/// the total improvement rounds, so callers can check the diff saw real
/// work.
inline int diffOnSuite(const Suite& suite, std::uint64_t lateMessageSeed) {
  const SystemModel& sys = suite.system;
  const FrozenBase frozen = freezeExistingApplications(sys);
  EXPECT_TRUE(frozen.feasible);
  const SolutionEvaluator evaluator(sys, frozen.state, suite.profile,
                                    MetricWeights{});
  PlatformState state = frozen.state;
  const ScheduleOutcome im = initialMapping(sys, state);
  EXPECT_TRUE(im.feasible);
  std::vector<MappingSolution> starts{im.mapping};
  if (lateMessageSeed != 0) {
    starts.push_back(withLateMessages(evaluator, im.mapping, lateMessageSeed));
  }
  int rounds = 0;
  for (const MappingSolution& start : starts) {
    SCOPED_TRACE(&start == &starts[0] ? "initial mapping" : "late messages");
    for (const NamedOptions& shape : optionShapes()) {
      SCOPED_TRACE(shape.name);
      const MhResult got =
          runMappingHeuristic(evaluator, start, shape.options);
      const MhResult ref =
          referenceMappingHeuristic(evaluator, start, shape.options);
      EXPECT_TRUE(got.solution == ref.solution);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got.eval.cost),
                std::bit_cast<std::uint64_t>(ref.eval.cost));
      EXPECT_EQ(got.evaluations, ref.evaluations);
      EXPECT_EQ(got.iterations, ref.iterations);
      EXPECT_EQ(got.stopped, ref.stopped);
      rounds += got.iterations;
    }
  }
  return rounds;
}

}  // namespace ides::testing
