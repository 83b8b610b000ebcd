// Fuzz sweep: random instances, all strategies, checked with the library's
// own invariant checker (sched/validate) — the executable specification.
#include <gtest/gtest.h>

#include "core/incremental_designer.h"
#include "tgen/benchmark_suite.h"
#include "test_helpers.h"

namespace ides {
namespace {

struct FuzzCase {
  std::uint64_t seed;
  std::size_t nodes;
  std::size_t existing;
  std::size_t current;
};

std::string fuzzName(const ::testing::TestParamInfo<FuzzCase>& info) {
  // Built up with += (not one chained +) to sidestep a GCC 12 -Wrestrict
  // false positive on "literal" + std::string rvalue chains at -O2.
  std::string name = "n";
  name += std::to_string(info.param.nodes);
  name += "_e";
  name += std::to_string(info.param.existing);
  name += "_c";
  name += std::to_string(info.param.current);
  name += "_s";
  name += std::to_string(info.param.seed);
  return name;
}

class FuzzValidation : public ::testing::TestWithParam<FuzzCase> {};

TEST_P(FuzzValidation, EveryStrategyProducesAValidatedSchedule) {
  const FuzzCase c = GetParam();
  SuiteConfig cfg = ides::testing::smallSuiteConfig(c.existing, c.current);
  cfg.nodeCount = c.nodes;
  // Keep the bus round compatible with the base period for any node count:
  // round = nodes * slot must divide 6000 (slot 20 -> nodes in {2,3,4,5,6}).
  const Suite suite = buildSuite(cfg, c.seed);
  DesignerOptions opts;
  opts.sa.iterations = 400;
  IncrementalDesigner designer(suite.system, suite.profile, opts);

  for (const char* s : {"AH", "MH", "SA"}) {
    const RunReport r = designer.run(s);
    ASSERT_TRUE(r.feasible) << s;
    // validateSchedule over the frozen plus current schedules.
    const ValidationReport report = designer.validate(r);
    EXPECT_TRUE(report.ok()) << s << ": " << report.summary();
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, FuzzValidation,
    ::testing::Values(FuzzCase{101, 4, 60, 24}, FuzzCase{102, 4, 60, 36},
                      FuzzCase{103, 2, 30, 12}, FuzzCase{104, 6, 90, 36},
                      FuzzCase{105, 3, 45, 18}, FuzzCase{106, 5, 75, 30},
                      FuzzCase{107, 4, 80, 20}, FuzzCase{108, 6, 60, 48}),
    fuzzName);

}  // namespace
}  // namespace ides
