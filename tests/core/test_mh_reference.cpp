// runMappingHeuristic against the straightforward MH loop
// (reference_mapping_heuristic.h): the dense candidate scoring, the top-k
// message pick and the single scratch trial must reproduce the hashed,
// fully sorted, copy-per-trial loop trial for trial — on generated suites
// of 3–10 nodes, under the default options and the wider, budgeted,
// message-free and message-only shapes, from the Initial Mapping and from
// a late-message start. The 160-process paper instance runs in the
// integration suite (test_mh_reference_paper.cpp).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/mh_reference_diff.h"
#include "test_helpers.h"
#include "tgen/benchmark_suite.h"

namespace ides {
namespace {

struct Shape {
  std::uint64_t seed;
  std::size_t nodes;
  std::size_t existing;
  std::size_t current;
};

std::string shapeName(const ::testing::TestParamInfo<Shape>& info) {
  const Shape& s = info.param;
  return "seed" + std::to_string(s.seed) + "_n" + std::to_string(s.nodes) +
         "_e" + std::to_string(s.existing) + "_c" + std::to_string(s.current);
}

/// 24 shapes: every node count from 3 to 10, three loads each.
std::vector<Shape> generatedShapes() {
  std::vector<Shape> shapes;
  std::uint64_t seed = 1;
  for (std::size_t nodes = 3; nodes <= 10; ++nodes) {
    for (const auto& [existing, current] :
         {std::pair<std::size_t, std::size_t>{20 + 2 * nodes, 12},
          {40 + 5 * nodes, 24}, {60, 16 + 4 * nodes}}) {
      shapes.push_back({seed++, nodes, existing, current});
    }
  }
  return shapes;
}

class MhReference : public ::testing::TestWithParam<Shape> {};

TEST_P(MhReference, MatchesTheReferenceLoop) {
  const Shape shape = GetParam();
  SuiteConfig cfg =
      ides::testing::smallSuiteConfig(shape.existing, shape.current);
  cfg.nodeCount = shape.nodes;
  EXPECT_GT(
      ides::testing::diffOnSuite(buildSuite(cfg, shape.seed), shape.seed), 0);
}

INSTANTIATE_TEST_SUITE_P(GeneratedSuites, MhReference,
                         ::testing::ValuesIn(generatedShapes()), shapeName);

}  // namespace
}  // namespace ides
