#include "sched/list_scheduler.h"

#include <gtest/gtest.h>

#include "model/system_model.h"
#include "test_helpers.h"

namespace ides {
namespace {

using ides::testing::makeChainSystem;
using ides::testing::makeDiamondSystem;
using ides::testing::twoNodeArch;
using ides::testing::wcets;

ScheduleOutcome scheduleAll(const SystemModel& sys, PlatformState& state,
                            const MappingSolution* mapping = nullptr) {
  ScheduleRequest req;
  for (const ProcessGraph& g : sys.graphs()) req.graphs.push_back(g.id);
  req.mapping = mapping;
  req.chooseNodes = mapping == nullptr;
  return scheduleGraphs(sys, req, state);
}

TEST(ListScheduler, ChainRunsBackToBackOnOneNode) {
  const SystemModel sys = makeChainSystem(4, /*wcet=*/10);
  PlatformState state(sys.architecture(), sys.hyperperiod());
  const ScheduleOutcome out = scheduleAll(sys, state);
  ASSERT_TRUE(out.feasible);
  for (int i = 0; i < 4; ++i) {
    const auto& e = out.schedule.processEntry(ProcessId{i}, 0);
    EXPECT_EQ(e.start, 10 * i);
    EXPECT_EQ(e.end, 10 * (i + 1));
  }
  // Single-node chain: all messages are local, nothing on the bus.
  EXPECT_EQ(out.schedule.messageEntryCount(), 0u);
}

TEST(ListScheduler, DiamondHcpProducesExpectedSchedule) {
  // See test_helpers.h: P1,P4 pinned to N0; P2 to N1; P3 free.
  // Slots: N0 = [0,10) each round of 20, N1 = [10,20).
  ides::testing::DiamondIds ids;
  const SystemModel sys = makeDiamondSystem(&ids);
  PlatformState state(sys.architecture(), sys.hyperperiod());
  const ScheduleOutcome out = scheduleAll(sys, state);
  ASSERT_TRUE(out.feasible);

  const auto& p1 = out.schedule.processEntry(ids.p1, 0);
  EXPECT_EQ(p1.node, NodeId{0});
  EXPECT_EQ(p1.start, 0);
  EXPECT_EQ(p1.end, 10);

  // m1 (P1->P2, 4 bytes) waits for N0's next slot occurrence at t=20.
  const auto& m1 = out.schedule.messageEntry(ids.m1, 0);
  EXPECT_EQ(m1.round, 1);
  EXPECT_EQ(m1.start, 20);
  EXPECT_EQ(m1.end, 24);

  const auto& p2 = out.schedule.processEntry(ids.p2, 0);
  EXPECT_EQ(p2.node, NodeId{1});
  EXPECT_EQ(p2.start, 24);
  EXPECT_EQ(p2.end, 44);

  // HCP maps P3 onto N0 (finish 25 beats N1's 59 after the bus hop).
  const auto& p3 = out.schedule.processEntry(ids.p3, 0);
  EXPECT_EQ(p3.node, NodeId{0});
  EXPECT_EQ(p3.start, 10);
  EXPECT_EQ(p3.end, 25);
  // m2 (P1->P3) became node-local: not on the bus.
  EXPECT_FALSE(out.schedule.hasMessage(ids.m2, 0));

  // m3 (P2->P4) leaves N1's slot [50,54); m4 is local.
  const auto& m3 = out.schedule.messageEntry(ids.m3, 0);
  EXPECT_EQ(m3.start, 50);
  EXPECT_EQ(m3.end, 54);
  EXPECT_FALSE(out.schedule.hasMessage(ids.m4, 0));

  const auto& p4 = out.schedule.processEntry(ids.p4, 0);
  EXPECT_EQ(p4.node, NodeId{0});
  EXPECT_EQ(p4.start, 54);
  EXPECT_EQ(p4.end, 64);
}

TEST(ListScheduler, MappingModeHonorsNodeAssignment) {
  ides::testing::DiamondIds ids;
  const SystemModel sys = makeDiamondSystem(&ids);
  MappingSolution mapping(sys);
  mapping.setNode(ids.p1, NodeId{0});
  mapping.setNode(ids.p2, NodeId{1});
  mapping.setNode(ids.p3, NodeId{1});  // force the slower choice
  mapping.setNode(ids.p4, NodeId{0});
  PlatformState state(sys.architecture(), sys.hyperperiod());
  const ScheduleOutcome out = scheduleAll(sys, state, &mapping);
  ASSERT_TRUE(out.feasible);
  EXPECT_EQ(out.schedule.processEntry(ids.p3, 0).node, NodeId{1});
  // Now m2 crosses nodes and must be on the bus.
  EXPECT_TRUE(out.schedule.hasMessage(ids.m2, 0));
}

TEST(ListScheduler, MappingModeRejectsDisallowedNode) {
  ides::testing::DiamondIds ids;
  const SystemModel sys = makeDiamondSystem(&ids);
  MappingSolution mapping(sys);
  mapping.setNode(ids.p1, NodeId{1});  // P1 is pinned to node 0
  mapping.setNode(ids.p2, NodeId{1});
  mapping.setNode(ids.p3, NodeId{0});
  mapping.setNode(ids.p4, NodeId{0});
  PlatformState state(sys.architecture(), sys.hyperperiod());
  EXPECT_THROW(scheduleAll(sys, state, &mapping), std::invalid_argument);
}

TEST(ListScheduler, HcpRejectsDisallowedPinnedNode) {
  ides::testing::DiamondIds ids;
  const SystemModel sys = makeDiamondSystem(&ids);
  MappingSolution pins(sys);
  pins.setNode(ids.p1, NodeId{1});  // P1 may only run on node 0
  PlatformState state(sys.architecture(), sys.hyperperiod());
  ScheduleRequest req;
  req.graphs = {ids.graph};
  req.mapping = &pins;
  req.chooseNodes = true;
  try {
    (void)scheduleGraphs(sys, req, state);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(),
                 "scheduleGraphs: mapping assigns a disallowed node");
  }
}

TEST(ListScheduler, MappingModeRequiresMapping) {
  const SystemModel sys = makeChainSystem(2);
  PlatformState state(sys.architecture(), sys.hyperperiod());
  ScheduleRequest req;
  req.graphs = {sys.graphs()[0].id};
  req.chooseNodes = false;
  EXPECT_THROW(scheduleGraphs(sys, req, state), std::invalid_argument);
}

TEST(ListScheduler, StartHintPushesProcessIntoLaterSlack) {
  const SystemModel sys = makeChainSystem(1, /*wcet=*/10, /*period=*/200);
  MappingSolution mapping(sys);
  mapping.setNode(ProcessId{0}, NodeId{0});
  mapping.setStartHint(ProcessId{0}, 73);
  PlatformState state(sys.architecture(), sys.hyperperiod());
  const ScheduleOutcome out = scheduleAll(sys, state, &mapping);
  ASSERT_TRUE(out.feasible);
  EXPECT_EQ(out.schedule.processEntry(ProcessId{0}, 0).start, 73);
}

TEST(ListScheduler, MessageHintDelaysTransmission) {
  ides::testing::DiamondIds ids;
  const SystemModel sys = makeDiamondSystem(&ids);
  MappingSolution mapping(sys);
  mapping.setNode(ids.p1, NodeId{0});
  mapping.setNode(ids.p2, NodeId{1});
  mapping.setNode(ids.p3, NodeId{0});
  mapping.setNode(ids.p4, NodeId{0});
  mapping.setMessageHint(ids.m1, 95);  // skip rounds 1..4
  PlatformState state(sys.architecture(), sys.hyperperiod());
  const ScheduleOutcome out = scheduleAll(sys, state, &mapping);
  ASSERT_TRUE(out.feasible);
  const auto& m1 = out.schedule.messageEntry(ids.m1, 0);
  EXPECT_GE(m1.start, 95);
  EXPECT_EQ(m1.round, 5);  // N0's slot at t=100
}

TEST(ListScheduler, InsertsIntoFrozenGaps) {
  const SystemModel sys = makeChainSystem(2, /*wcet=*/10, /*period=*/200);
  PlatformState state(sys.architecture(), sys.hyperperiod());
  // Frozen load leaves gaps [15,25) and [40,...).
  state.occupyNode(NodeId{0}, {0, 15});
  state.occupyNode(NodeId{0}, {25, 40});
  const ScheduleOutcome out = scheduleAll(sys, state);
  ASSERT_TRUE(out.feasible);
  EXPECT_EQ(out.schedule.processEntry(ProcessId{0}, 0).start, 15);
  EXPECT_EQ(out.schedule.processEntry(ProcessId{1}, 0).start, 40);
}

TEST(ListScheduler, DeadlineMissIsReportedWithLateness) {
  SystemModel sys(makeUniformArchitecture(1, 10, 1));
  const ApplicationId a = sys.addApplication("a", AppKind::Current);
  const GraphId g = sys.addGraph(a, /*period=*/40, /*deadline=*/20);
  sys.addProcess(g, "P1", {15});
  sys.addProcess(g, "P2", {15});
  sys.finalize();
  PlatformState state(sys.architecture(), sys.hyperperiod());
  const ScheduleOutcome out = scheduleAll(sys, state);
  EXPECT_TRUE(out.placed);
  EXPECT_FALSE(out.feasible);
  EXPECT_EQ(out.deadlineMisses, 1);
  EXPECT_EQ(out.totalLateness, 10);  // second process ends at 30, D=20
}

TEST(ListScheduler, UnplaceableReturnsNotPlaced) {
  const SystemModel sys = makeChainSystem(3, /*wcet=*/80, /*period=*/200);
  PlatformState state(sys.architecture(), sys.hyperperiod());
  // Only 160 free ticks left for 240 ticks of work.
  state.occupyNode(NodeId{0}, {0, 40});
  const ScheduleOutcome out = scheduleAll(sys, state);
  EXPECT_FALSE(out.placed);
  EXPECT_FALSE(out.feasible);
}

TEST(ListScheduler, PeriodicInstancesAreReplicatedPerPeriod) {
  SystemModel sys(makeUniformArchitecture(1, 10, 1));
  const ApplicationId a = sys.addApplication("a", AppKind::Current);
  const GraphId fast = sys.addGraph(a, /*period=*/100);
  sys.addProcess(fast, "F", {10});
  const GraphId slow = sys.addGraph(a, /*period=*/200);
  sys.addProcess(slow, "S", {10});
  sys.finalize();
  ASSERT_EQ(sys.hyperperiod(), 200);
  PlatformState state(sys.architecture(), sys.hyperperiod());
  const ScheduleOutcome out = scheduleAll(sys, state);
  ASSERT_TRUE(out.feasible);
  const auto& f0 = out.schedule.processEntry(ProcessId{0}, 0);
  const auto& f1 = out.schedule.processEntry(ProcessId{0}, 1);
  EXPECT_GE(f0.start, 0);
  EXPECT_LT(f0.end, 100);
  EXPECT_GE(f1.start, 100);  // released at its period boundary
  EXPECT_LE(f1.end, 200);
  EXPECT_TRUE(out.schedule.hasProcess(ProcessId{1}, 0));
  EXPECT_FALSE(out.schedule.hasProcess(ProcessId{1}, 1));
}

TEST(ListScheduler, OffsetDelaysReleaseOfEveryInstance) {
  SystemModel sys(makeUniformArchitecture(1, 10, 1));
  const ApplicationId a = sys.addApplication("a", AppKind::Current);
  // Period 100, offset 30, deadline 70: instances release at 30 and 130.
  const GraphId g = sys.addGraph(a, 100, 70, 30);
  sys.addProcess(g, "P", {10});
  const GraphId other = sys.addGraph(a, 200);  // stretch H to 200
  sys.addProcess(other, "Q", {10});
  sys.finalize();
  PlatformState state(sys.architecture(), sys.hyperperiod());
  const ScheduleOutcome out = scheduleAll(sys, state);
  ASSERT_TRUE(out.feasible);
  EXPECT_GE(out.schedule.processEntry(ProcessId{0}, 0).start, 30);
  EXPECT_LE(out.schedule.processEntry(ProcessId{0}, 0).end, 100);
  EXPECT_GE(out.schedule.processEntry(ProcessId{0}, 1).start, 130);
  EXPECT_LE(out.schedule.processEntry(ProcessId{0}, 1).end, 200);
}

TEST(ListScheduler, OffsetGraphMissesAreMeasuredFromOffsetDeadline) {
  SystemModel sys(makeUniformArchitecture(1, 10, 1));
  const ApplicationId a = sys.addApplication("a", AppKind::Current);
  const GraphId g = sys.addGraph(a, 100, /*deadline=*/20, /*offset=*/50);
  sys.addProcess(g, "P", {15});
  sys.finalize();
  PlatformState state(sys.architecture(), sys.hyperperiod());
  // Block [50, 60): the process starts at 60, ends 75 > deadline 70.
  state.occupyNode(NodeId{0}, {50, 60});
  const ScheduleOutcome out = scheduleAll(sys, state);
  EXPECT_TRUE(out.placed);
  EXPECT_FALSE(out.feasible);
  EXPECT_EQ(out.totalLateness, 5);
}

TEST(ListScheduler, DeterministicAcrossRuns) {
  ides::testing::DiamondIds ids;
  const SystemModel sys = makeDiamondSystem(&ids);
  PlatformState s1(sys.architecture(), sys.hyperperiod());
  PlatformState s2(sys.architecture(), sys.hyperperiod());
  const ScheduleOutcome a = scheduleAll(sys, s1);
  const ScheduleOutcome b = scheduleAll(sys, s2);
  ASSERT_EQ(a.schedule.processEntryCount(), b.schedule.processEntryCount());
  for (const ScheduledProcess& sp : a.schedule.processes()) {
    const ScheduledProcess& other =
        b.schedule.processEntry(sp.pid, sp.instance);
    EXPECT_EQ(sp.node, other.node);
    EXPECT_EQ(sp.start, other.start);
    EXPECT_EQ(sp.end, other.end);
  }
}

TEST(ListScheduler, HcpPrefersFasterNode) {
  // One process, much faster on node 1.
  SystemModel sys(twoNodeArch());
  const ApplicationId a = sys.addApplication("a", AppKind::Current);
  const GraphId g = sys.addGraph(a, 200);
  const ProcessId p = sys.addProcess(g, "P", wcets({50, 10}));
  sys.finalize();
  PlatformState state(sys.architecture(), sys.hyperperiod());
  const ScheduleOutcome out = scheduleAll(sys, state);
  ASSERT_TRUE(out.feasible);
  EXPECT_EQ(out.schedule.processEntry(p, 0).node, NodeId{1});
  EXPECT_EQ(out.mapping.nodeOf(p), NodeId{1});
}

TEST(ListScheduler, HcpAvoidsCongestedNode) {
  // Equal WCETs, but node 0 is frozen solid early: HCP must go to node 1.
  SystemModel sys(twoNodeArch());
  const ApplicationId a = sys.addApplication("a", AppKind::Current);
  const GraphId g = sys.addGraph(a, 200);
  const ProcessId p = sys.addProcess(g, "P", wcets({20, 20}));
  sys.finalize();
  PlatformState state(sys.architecture(), sys.hyperperiod());
  state.occupyNode(NodeId{0}, {0, 150});
  const ScheduleOutcome out = scheduleAll(sys, state);
  ASSERT_TRUE(out.feasible);
  EXPECT_EQ(out.schedule.processEntry(p, 0).node, NodeId{1});
  EXPECT_EQ(out.schedule.processEntry(p, 0).start, 0);
}

}  // namespace
}  // namespace ides
