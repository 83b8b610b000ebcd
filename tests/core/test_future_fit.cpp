#include "core/future_fit.h"

#include <gtest/gtest.h>

#include "core/incremental_designer.h"
#include "model/system_model.h"
#include "tgen/benchmark_suite.h"
#include "test_helpers.h"

namespace ides {
namespace {

using ides::testing::wcets;

TEST(FutureFit, FitsOnAnEmptyPlatform) {
  // A future app alongside a trivial current app; nothing else occupies the
  // platform, so the future app must fit.
  SystemModel sys(ides::testing::twoNodeArch());
  const ApplicationId cur = sys.addApplication("cur", AppKind::Current);
  const GraphId gc = sys.addGraph(cur, 200);
  sys.addProcess(gc, "C", wcets({10, 10}));
  const ApplicationId fut = sys.addApplication("fut", AppKind::Future);
  const GraphId gf = sys.addGraph(fut, 200);
  const ProcessId f1 = sys.addProcess(gf, "F1", wcets({10, 10}));
  const ProcessId f2 = sys.addProcess(gf, "F2", wcets({10, 10}));
  sys.addMessage(gf, f1, f2, 4);
  sys.finalize();

  PlatformState state(sys.architecture(), sys.hyperperiod());
  const FutureFitResult r = tryMapFutureApplication(sys, fut, state);
  EXPECT_TRUE(r.fits);
  EXPECT_EQ(r.outcome.schedule.processEntryCount(), 2u);
}

TEST(FutureFit, DoesNotFitOnASaturatedPlatform) {
  SystemModel sys(ides::testing::twoNodeArch());
  const ApplicationId cur = sys.addApplication("cur", AppKind::Current);
  const GraphId gc = sys.addGraph(cur, 200);
  sys.addProcess(gc, "C", wcets({10, 10}));
  const ApplicationId fut = sys.addApplication("fut", AppKind::Future);
  const GraphId gf = sys.addGraph(fut, 200);
  sys.addProcess(gf, "F", wcets({50, 50}));
  sys.finalize();

  PlatformState state(sys.architecture(), sys.hyperperiod());
  state.occupyNode(NodeId{0}, {0, 180});
  state.occupyNode(NodeId{1}, {0, 180});
  const FutureFitResult r = tryMapFutureApplication(sys, fut, state);
  EXPECT_FALSE(r.fits);
}

TEST(FutureFit, BaseStateIsNotMutated) {
  SystemModel sys(ides::testing::twoNodeArch());
  const ApplicationId cur = sys.addApplication("cur", AppKind::Current);
  const GraphId gc = sys.addGraph(cur, 200);
  sys.addProcess(gc, "C", wcets({10, 10}));
  const ApplicationId fut = sys.addApplication("fut", AppKind::Future);
  const GraphId gf = sys.addGraph(fut, 200);
  sys.addProcess(gf, "F", wcets({10, 10}));
  sys.finalize();

  PlatformState state(sys.architecture(), sys.hyperperiod());
  const Time before = state.totalNodeSlack();
  (void)tryMapFutureApplication(sys, fut, state);
  EXPECT_EQ(state.totalNodeSlack(), before);
}

TEST(FutureFit, RejectsNonFutureApplication) {
  ides::testing::ScenarioIds ids;
  const SystemModel sys = ides::testing::makeIncrementalScenario(&ids);
  PlatformState state(sys.architecture(), sys.hyperperiod());
  EXPECT_THROW(tryMapFutureApplication(sys, ids.currentApp, state),
               std::invalid_argument);
}

TEST(FutureFit, WorksThroughTheDesignerFacade) {
  SuiteConfig cfg = ides::testing::smallSuiteConfig();
  cfg.futureAppCount = 2;
  const Suite suite = buildSuite(cfg, 3);
  IncrementalDesigner designer(suite.system, suite.profile);
  const RunReport mh = designer.run("MH");
  ASSERT_TRUE(mh.feasible);
  const PlatformState after = designer.stateWith(mh);
  for (ApplicationId app :
       suite.system.applicationsOfKind(AppKind::Future)) {
    const FutureFitResult r =
        tryMapFutureApplication(suite.system, app, after);
    // Each candidate either fits or not, but the check must be clean: if it
    // fits, the schedule is complete and deadline-safe.
    if (r.fits) {
      EXPECT_TRUE(r.outcome.feasible);
      EXPECT_GT(r.outcome.schedule.processEntryCount(), 0u);
    }
  }
}

}  // namespace
}  // namespace ides
