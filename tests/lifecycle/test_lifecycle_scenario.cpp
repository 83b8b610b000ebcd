// Lifecycle scenarios: the serialization round-trip and regeneration
// contracts, generator determinism, validity-by-construction of the event
// stream, applyEvent's replay validation, and config range checks.
#include "lifecycle/lifecycle_scenario.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

namespace ides {
namespace {

/// Smaller than the default 50-step scenario so the suite stays fast, but
/// with every event kind reachable.
ScenarioConfig smallConfig(std::uint64_t seed = 1, int steps = 20) {
  ScenarioConfig c;
  c.seed = seed;
  c.steps = steps;
  c.nodeCount = 4;
  c.speedPercents = {100, 80, 125};
  c.initialGraphs = 2;
  c.minLiveGraphs = 1;
  c.maxLiveGraphs = 4;
  c.graphProcessesMin = 4;
  c.graphProcessesMax = 8;
  return c;
}

TEST(LifecycleScenario, JsonRoundTripIsByteIdentical) {
  const LifecycleScenario scenario = generateScenario(smallConfig(3));
  const std::string json = scenarioJson(scenario);
  const LifecycleScenario parsed = parseScenario(json);
  EXPECT_EQ(parsed, scenario);
  EXPECT_EQ(scenarioJson(parsed), json);
}

TEST(LifecycleScenario, ParsedConfigRegeneratesTheParsedStream) {
  // The durability contract: a scenario file is regenerable from its
  // embedded config alone.
  const LifecycleScenario scenario = generateScenario(smallConfig(7));
  const LifecycleScenario parsed = parseScenario(scenarioJson(scenario));
  EXPECT_EQ(generateScenario(parsed.config), parsed);
}

TEST(LifecycleScenario, SameSeedIsDeterministicDifferentSeedsDiverge) {
  const LifecycleScenario a = generateScenario(smallConfig(11));
  const LifecycleScenario b = generateScenario(smallConfig(11));
  EXPECT_EQ(a, b);
  const LifecycleScenario c = generateScenario(smallConfig(12));
  EXPECT_NE(a.events, c.events);
}

TEST(LifecycleScenario, GeneratedStreamReplaysWithinTheConfiguredBounds) {
  const ScenarioConfig config = smallConfig(5, 40);
  const LifecycleScenario scenario = generateScenario(config);
  ASSERT_EQ(scenario.events.size(), static_cast<std::size_t>(config.steps));

  LivingDesign design = initialDesign(config);
  std::set<std::uint64_t> seenUids;
  for (std::size_t i = 0; i < scenario.events.size(); ++i) {
    const LifecycleEvent& event = scenario.events[i];
    ASSERT_NO_THROW(applyEvent(design, event)) << "event " << i;
    if (event.kind == LifecycleEventKind::AddGraph) {
      // Uids are never reused, so placements can be keyed by uid forever.
      EXPECT_TRUE(seenUids.insert(event.uid).second) << "event " << i;
    }

    // The first initialGraphs events are the unconditional AddGraph prefix;
    // after it the live count stays within [minLiveGraphs, maxLiveGraphs].
    if (i < config.initialGraphs) {
      EXPECT_EQ(event.kind, LifecycleEventKind::AddGraph) << "event " << i;
      EXPECT_EQ(design.graphs.size(), i + 1);
    } else {
      EXPECT_GE(design.graphs.size(), config.minLiveGraphs) << "event " << i;
      EXPECT_LE(design.graphs.size(), config.maxLiveGraphs) << "event " << i;
    }

    for (const LifecycleGraphSpec& g : design.graphs) {
      EXPECT_GE(g.processCount, config.graphProcessesMin);
      EXPECT_LE(g.processCount, config.graphProcessesMax);
      // Periods come from the divisor chain, deadlines stay above the
      // configured floor even after repeated tightening.
      EXPECT_TRUE(std::any_of(config.periodDivisors.begin(),
                              config.periodDivisors.end(),
                              [&](Time d) {
                                return g.period == config.basePeriod / d;
                              }))
          << "uid " << g.uid;
      EXPECT_LE(g.offset + g.deadline, g.period);
      EXPECT_GE(g.deadline,
                g.period * config.minDeadlinePercent / 100);
    }
    for (const int speed : design.speedPercents) {
      EXPECT_GE(speed, config.speedMinPercent);
      EXPECT_LE(speed, config.speedMaxPercent);
    }
  }
}

TEST(LifecycleScenario, ApplyEventRejectsCorruptEvents) {
  const ScenarioConfig config = smallConfig();
  const LifecycleScenario scenario = generateScenario(config);
  LivingDesign design = initialDesign(config);
  for (const LifecycleEvent& event : scenario.events) {
    applyEvent(design, event);
  }
  ASSERT_FALSE(design.graphs.empty());

  LifecycleEvent remove;
  remove.kind = LifecycleEventKind::RemoveGraph;
  remove.uid = 0xdead;  // no such graph
  EXPECT_THROW(applyEvent(design, remove), std::invalid_argument);

  LifecycleEvent duplicate;
  duplicate.kind = LifecycleEventKind::AddGraph;
  duplicate.uid = design.graphs.front().uid;
  duplicate.add = design.graphs.front();
  EXPECT_THROW(applyEvent(design, duplicate), std::invalid_argument);

  LifecycleEvent tighten;
  tighten.kind = LifecycleEventKind::DeadlineTighten;
  tighten.uid = design.graphs.front().uid;
  tighten.deadline = design.graphs.front().period + 1;  // out of the window
  EXPECT_THROW(applyEvent(design, tighten), std::invalid_argument);

  LifecycleEvent perturb;
  perturb.kind = LifecycleEventKind::PlatformPerturb;
  perturb.node = config.nodeCount;  // out of range
  perturb.speedPercent = 100;
  EXPECT_THROW(applyEvent(design, perturb), std::invalid_argument);
}

TEST(LifecycleScenario, ParseRejectsStreamsThatBreakTheLivingDesign) {
  // A hand-edited scenario renders fine but must fail the replay
  // validation inside parseScenario.
  LifecycleScenario scenario = generateScenario(smallConfig());
  LifecycleEvent bogus;
  bogus.kind = LifecycleEventKind::RemoveGraph;
  bogus.uid = 0xdead;
  scenario.events.push_back(bogus);
  EXPECT_THROW((void)parseScenario(scenarioJson(scenario)),
               std::invalid_argument);
}

TEST(LifecycleScenario, ParseRejectsMalformedText) {
  EXPECT_THROW((void)parseScenario("not json"), std::runtime_error);
  EXPECT_THROW((void)parseScenario("[1, 2]"), std::runtime_error);
}

TEST(LifecycleScenario, ParseNamesAnOutOfRangeU64Field) {
  // Digits only, but past 2^64 - 1: the error names the field instead of
  // surfacing the bare "stoull" of a library call.
  std::string json = scenarioJson(generateScenario(smallConfig(3)));
  const std::string seed = "\"seed\": \"3\"";
  const std::size_t at = json.find(seed);
  ASSERT_NE(at, std::string::npos);
  json.replace(at, seed.size(), "\"seed\": \"99999999999999999999\"");
  try {
    (void)parseScenario(json);
    FAIL() << "accepted an out-of-range seed";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("field \"seed\""), std::string::npos) << what;
    EXPECT_NE(what.find("out of range"), std::string::npos) << what;
  }
}

TEST(LifecycleScenario, ConfigValidationNamesTheOffendingKnob) {
  const auto rejects = [](void (*tweak)(ScenarioConfig&),
                          const char* expected) {
    ScenarioConfig c;
    tweak(c);
    try {
      validateScenarioConfig(c);
      FAIL() << "accepted config expected to fail: " << expected;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(expected), std::string::npos)
          << e.what();
    }
  };
  rejects([](ScenarioConfig& c) { c.steps = 0; }, "steps");
  rejects([](ScenarioConfig& c) { c.minLiveGraphs = 0; }, "minLiveGraphs");
  rejects([](ScenarioConfig& c) { c.minLiveGraphs = 9; },
          "minLiveGraphs must be <= maxLiveGraphs");
  rejects([](ScenarioConfig& c) { c.periodDivisors = {2, 5}; },
          "divisibility chain");
  rejects([](ScenarioConfig& c) { c.periodDivisors = {3}; },
          "divide basePeriod");
  rejects([](ScenarioConfig& c) { c.tmin = 3000; }, "tmin");
  rejects([](ScenarioConfig& c) { c.probRemove = 0.9; },
          "sum to <= 1");
  rejects([](ScenarioConfig& c) { c.probSpecChange = -0.1; },
          "in [0, 1]");
  rejects([](ScenarioConfig& c) { c.graphProcessesMin = 30; },
          "graphProcesses");
  rejects([](ScenarioConfig& c) { c.deadlineTightenPercent = 0; },
          "deadlineTightenPercent");
  rejects([](ScenarioConfig& c) { c.speedPercents = {100, -5}; },
          "speedPercents");
}

}  // namespace
}  // namespace ides
