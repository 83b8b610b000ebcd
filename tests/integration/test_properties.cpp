// Property-based sweeps: schedule invariants on randomly generated
// instances, across seeds and strategies.
#include <gtest/gtest.h>

#include <unordered_map>

#include "core/incremental_designer.h"
#include "model/system_model.h"
#include "tgen/benchmark_suite.h"
#include "test_helpers.h"

namespace ides {
namespace {

struct Case {
  std::uint64_t seed;
  const char* strategy;  ///< registry name
};

std::string caseName(const ::testing::TestParamInfo<Case>& info) {
  return std::string(info.param.strategy) + "_seed" +
         std::to_string(info.param.seed);
}

class ScheduleInvariants : public ::testing::TestWithParam<Case> {
 protected:
  static SuiteConfig config() {
    return ides::testing::smallSuiteConfig(80, 40);
  }
};

TEST_P(ScheduleInvariants, HoldOnGeneratedInstances) {
  const Case c = GetParam();
  const Suite suite = buildSuite(config(), c.seed);
  const SystemModel& sys = suite.system;
  DesignerOptions opts;
  opts.sa.iterations = 600;
  IncrementalDesigner designer(sys, suite.profile, opts);
  const RunReport r = designer.run(c.strategy);
  ASSERT_TRUE(r.feasible);

  // Merge frozen + current: the complete static cyclic schedule.
  Schedule all;
  all.merge(designer.frozenSchedule());
  all.merge(r.schedule);

  const TdmaBus& bus = sys.architecture().bus();
  const Time H = sys.hyperperiod();

  // (1) Every process instance exists exactly once per hyperperiod and
  //     runs inside [release, deadline] on an allowed node.
  for (const ProcessGraph& g : sys.graphs()) {
    if (sys.application(g.application).kind == AppKind::Future) continue;
    for (std::int64_t k = 0; k < sys.instanceCount(g.id); ++k) {
      for (ProcessId p : g.processes) {
        ASSERT_TRUE(all.hasProcess(p, static_cast<std::int32_t>(k)));
        const auto& e = all.processEntry(p, static_cast<std::int32_t>(k));
        EXPECT_GE(e.start, g.releaseOf(k));
        EXPECT_LE(e.end, g.deadlineOf(k));
        EXPECT_TRUE(sys.process(p).allowedOn(e.node));
        EXPECT_EQ(e.end - e.start, sys.process(p).wcetOn(e.node));
      }
    }
  }

  // (2) No two executions overlap on any node.
  std::vector<IntervalSet> nodeBusy(sys.architecture().nodeCount());
  for (const ScheduledProcess& sp : all.processes()) {
    EXPECT_FALSE(nodeBusy[sp.node.index()].intersects({sp.start, sp.end}))
        << "overlap on node " << sp.node.value;
    nodeBusy[sp.node.index()].add({sp.start, sp.end});
  }

  // (3) Messages: inside the sender's slot, capacity respected, precedence
  //     satisfied at both ends.
  std::unordered_map<std::int64_t, Time> slotLoad;  // (slot,round) -> ticks
  for (const ScheduledMessage& sm : all.messages()) {
    const Message& msg = sys.message(sm.mid);
    const auto& src = all.processEntry(msg.src, sm.instance);
    const auto& dst = all.processEntry(msg.dst, sm.instance);
    EXPECT_EQ(sm.slotIndex, bus.slotOfNode(src.node));
    EXPECT_NE(src.node, dst.node) << "local message on the bus";
    EXPECT_GE(sm.start, bus.slotStart(sm.round, sm.slotIndex));
    EXPECT_LE(sm.end, bus.slotEnd(sm.round, sm.slotIndex));
    EXPECT_GE(sm.start, src.end);
    EXPECT_GE(dst.start, sm.end);
    EXPECT_LE(sm.end, H);
    slotLoad[static_cast<std::int64_t>(sm.slotIndex) * 1000000 + sm.round] +=
        sm.end - sm.start;
  }
  for (const auto& [key, ticks] : slotLoad) {
    const std::size_t slot = static_cast<std::size_t>(key / 1000000);
    EXPECT_LE(ticks, bus.slot(slot).length);
  }

  // (4) Same-node dependencies still respect precedence.
  for (const Message& msg : sys.messages()) {
    const GraphId g = msg.graph;
    if (sys.application(sys.graph(g).application).kind == AppKind::Future) {
      continue;
    }
    for (std::int64_t k = 0; k < sys.instanceCount(g); ++k) {
      const auto& src = all.processEntry(msg.src, static_cast<std::int32_t>(k));
      const auto& dst = all.processEntry(msg.dst, static_cast<std::int32_t>(k));
      if (src.node == dst.node) {
        EXPECT_GE(dst.start, src.end);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ScheduleInvariants,
    ::testing::Values(Case{11, "AH"}, Case{11, "MH"}, Case{11, "SA"},
                      Case{12, "AH"}, Case{12, "MH"}, Case{13, "AH"},
                      Case{13, "MH"}, Case{14, "SA"}, Case{15, "MH"}),
    caseName);

// Objective monotonicity property: adding load can only reduce slack-based
// quality. Compare the frozen baseline's metrics with the post-current
// metrics under the same profile.
class LoadMonotonicity : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LoadMonotonicity, CurrentApplicationNeverIncreasesSlackMetrics) {
  const Suite suite =
      buildSuite(ides::testing::smallSuiteConfig(60, 30), GetParam());
  IncrementalDesigner designer(suite.system, suite.profile);
  const RunReport ah = designer.run("AH");
  ASSERT_TRUE(ah.feasible);

  const SlackInfo before = extractSlack(designer.frozenBase().state);
  const PlatformState afterState = designer.stateWith(ah);
  const SlackInfo after = extractSlack(afterState);
  const DesignMetrics mBefore = computeMetrics(before, suite.profile);
  const DesignMetrics mAfter = computeMetrics(after, suite.profile);

  EXPECT_LE(after.totalNodeSlack(), before.totalNodeSlack());
  EXPECT_LE(after.totalBusFreeTicks(), before.totalBusFreeTicks());
  EXPECT_LE(mAfter.c2p, mBefore.c2p);
  EXPECT_LE(mAfter.c2mBytes, mBefore.c2mBytes);
}

INSTANTIATE_TEST_SUITE_P(Seeds, LoadMonotonicity,
                         ::testing::Values(21, 22, 23, 24));

}  // namespace
}  // namespace ides
