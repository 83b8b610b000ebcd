#include "lifecycle/lifecycle_scenario.h"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

#include "util/json_reader.h"
#include "util/parse_number.h"
#include "util/rng.h"

namespace ides {

namespace {

/// Stream ids of one scenario seed (see rngStreamSeed): the event stream
/// drives every generator decision; the graph-seed stream is fanned out per
/// uid so a spec's generation seed never depends on event-draw order.
constexpr std::uint64_t kEventStream = 0x6c666345;      // "lfcE"
constexpr std::uint64_t kGraphSeedStream = 0x6c666347;  // "lfcG"

std::string d17(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

std::string i64s(std::int64_t value) {
  return std::to_string(static_cast<long long>(value));
}

/// u64 values (seeds) are rendered as strings: JSON numbers travel through
/// doubles in this codebase's reader, which cannot round-trip 64 bits.
std::string u64Quoted(std::uint64_t value) {
  return "\"" + std::to_string(static_cast<unsigned long long>(value)) + "\"";
}

std::uint64_t u64At(const JsonValue& obj, std::string_view key) {
  try {
    return parseNumber<std::uint64_t>(key, obj.stringAt(key));
  } catch (const std::invalid_argument& e) {
    throw std::runtime_error("lifecycle scenario: field \"" +
                             std::string(key) + "\" is not a u64 string (" +
                             e.what() + ")");
  }
}

std::size_t sizeAt(const JsonValue& obj, std::string_view key) {
  const std::int64_t v = obj.intAt(key);
  if (v < 0) {
    throw std::runtime_error("lifecycle scenario: field \"" +
                             std::string(key) + "\" must be >= 0");
  }
  return static_cast<std::size_t>(v);
}

int intFieldAt(const JsonValue& obj, std::string_view key) {
  return static_cast<int>(obj.intAt(key));
}

LifecycleGraphSpec* findMutable(LivingDesign& design, std::uint64_t uid) {
  for (LifecycleGraphSpec& g : design.graphs) {
    if (g.uid == uid) return &g;
  }
  return nullptr;
}

[[noreturn]] void badConfig(const std::string& what) {
  throw std::invalid_argument("ScenarioConfig: " + what);
}

[[noreturn]] void badEvent(const std::string& what) {
  throw std::invalid_argument("applyEvent: " + what);
}

}  // namespace

const char* toString(LifecycleEventKind kind) {
  switch (kind) {
    case LifecycleEventKind::AddGraph: return "add_graph";
    case LifecycleEventKind::RemoveGraph: return "remove_graph";
    case LifecycleEventKind::SpecChange: return "spec_change";
    case LifecycleEventKind::DeadlineTighten: return "deadline_tighten";
    case LifecycleEventKind::PlatformPerturb: return "platform_perturb";
  }
  return "?";
}

LifecycleEventKind lifecycleEventKindFromString(std::string_view name) {
  if (name == "add_graph") return LifecycleEventKind::AddGraph;
  if (name == "remove_graph") return LifecycleEventKind::RemoveGraph;
  if (name == "spec_change") return LifecycleEventKind::SpecChange;
  if (name == "deadline_tighten") return LifecycleEventKind::DeadlineTighten;
  if (name == "platform_perturb") return LifecycleEventKind::PlatformPerturb;
  throw std::invalid_argument("unknown lifecycle event kind \"" +
                              std::string(name) + "\"");
}

void validateScenarioConfig(const ScenarioConfig& c) {
  if (c.steps < 1) badConfig("steps must be >= 1");
  if (c.initialGraphs < 1) badConfig("initialGraphs must be >= 1");
  if (c.initialGraphs > static_cast<std::size_t>(c.steps)) {
    badConfig("initialGraphs must be <= steps");
  }
  if (c.minLiveGraphs < 1) badConfig("minLiveGraphs must be >= 1");
  if (c.minLiveGraphs > c.maxLiveGraphs) {
    badConfig("minLiveGraphs must be <= maxLiveGraphs");
  }
  if (c.initialGraphs > c.maxLiveGraphs) {
    badConfig("initialGraphs must be <= maxLiveGraphs");
  }
  if (c.nodeCount < 2) badConfig("nodeCount must be >= 2");
  if (c.speedPercents.empty()) badConfig("speedPercents must be non-empty");
  for (const int p : c.speedPercents) {
    if (p <= 0) badConfig("speedPercents must be > 0");
  }
  if (c.slotLength <= 0) badConfig("slotLength must be > 0");
  if (c.bytesPerTick <= 0) badConfig("bytesPerTick must be > 0");
  if (c.basePeriod <= 0) badConfig("basePeriod must be > 0");
  if (c.periodDivisors.empty()) badConfig("periodDivisors must be non-empty");
  for (std::size_t i = 0; i < c.periodDivisors.size(); ++i) {
    const Time d = c.periodDivisors[i];
    if (d <= 0) badConfig("periodDivisors must be > 0");
    if (c.basePeriod % d != 0) {
      badConfig("every period divisor must divide basePeriod");
    }
    // Divisibility chain: the hyperperiod of any live graph set is then
    // basePeriod / d for some listed d, and the TDMA round snapped against
    // the smallest reachable hyperperiod divides them all.
    if (i > 0 && d % c.periodDivisors[i - 1] != 0) {
      badConfig("periodDivisors must form a divisibility chain "
                "(each divides the next)");
    }
  }
  const Time minHyperperiod = c.basePeriod / c.periodDivisors.back();
  if (c.tmin <= 0) badConfig("tmin must be > 0");
  if (minHyperperiod % c.tmin != 0) {
    badConfig("tmin must divide basePeriod / max(periodDivisors)");
  }
  if (c.tneed <= 0 || c.tneed > c.tmin) {
    badConfig("tneed must be in (0, tmin]");
  }
  if (c.bneedBytes <= 0) badConfig("bneedBytes must be > 0");
  if (c.graphProcessesMin < 1 ||
      c.graphProcessesMin > c.graphProcessesMax) {
    badConfig("graphProcesses range must satisfy 1 <= min <= max");
  }
  const auto probOk = [](double p) { return p >= 0.0 && p <= 1.0; };
  if (!probOk(c.probRemove) || !probOk(c.probSpecChange) ||
      !probOk(c.probDeadlineTighten) || !probOk(c.probPlatformPerturb)) {
    badConfig("event probabilities must be in [0, 1]");
  }
  if (c.probRemove + c.probSpecChange + c.probDeadlineTighten +
          c.probPlatformPerturb >
      1.0) {
    badConfig("event probabilities must sum to <= 1");
  }
  const auto pctRange = [](int lo, int hi) { return lo > 0 && lo <= hi; };
  if (!pctRange(c.wcetScaleMinPercent, c.wcetScaleMaxPercent)) {
    badConfig("wcetScale percent range must satisfy 0 < min <= max");
  }
  if (!pctRange(c.msgScaleMinPercent, c.msgScaleMaxPercent)) {
    badConfig("msgScale percent range must satisfy 0 < min <= max");
  }
  if (!pctRange(c.speedMinPercent, c.speedMaxPercent)) {
    badConfig("speed percent range must satisfy 0 < min <= max");
  }
  if (c.deadlineTightenPercent <= 0 || c.deadlineTightenPercent > 100) {
    badConfig("deadlineTightenPercent must be in (0, 100]");
  }
  if (c.minDeadlinePercent <= 0 || c.minDeadlinePercent > 100) {
    badConfig("minDeadlinePercent must be in (0, 100]");
  }
  if (c.graphGen.wcetMin < 1 || c.graphGen.wcetMin > c.graphGen.wcetMax) {
    badConfig("graphGen wcet range must satisfy 1 <= min <= max");
  }
  if (c.graphGen.msgMin < 1 || c.graphGen.msgMin > c.graphGen.msgMax) {
    badConfig("graphGen msg range must satisfy 1 <= min <= max");
  }
}

const LifecycleGraphSpec* LivingDesign::find(std::uint64_t uid) const {
  for (const LifecycleGraphSpec& g : graphs) {
    if (g.uid == uid) return &g;
  }
  return nullptr;
}

std::size_t LivingDesign::totalProcesses() const {
  std::size_t total = 0;
  for (const LifecycleGraphSpec& g : graphs) total += g.processCount;
  return total;
}

LivingDesign initialDesign(const ScenarioConfig& config) {
  LivingDesign design;
  design.speedPercents.resize(config.nodeCount);
  for (std::size_t n = 0; n < config.nodeCount; ++n) {
    design.speedPercents[n] =
        config.speedPercents[n % config.speedPercents.size()];
  }
  return design;
}

void applyEvent(LivingDesign& design, const LifecycleEvent& event) {
  switch (event.kind) {
    case LifecycleEventKind::AddGraph: {
      const LifecycleGraphSpec& s = event.add;
      if (s.uid == 0 || s.uid != event.uid) {
        badEvent("add_graph uid must be non-zero and match the spec");
      }
      if (design.find(s.uid) != nullptr) {
        badEvent("add_graph uid " + std::to_string(s.uid) +
                 " already exists");
      }
      if (s.processCount == 0) badEvent("add_graph needs processes");
      if (s.period <= 0 || s.deadline <= 0 || s.offset < 0 ||
          s.offset + s.deadline > s.period) {
        badEvent("add_graph timing must satisfy 0 < deadline, 0 <= offset, "
                 "offset + deadline <= period");
      }
      if (s.wcetScalePercent <= 0 || s.msgScalePercent <= 0) {
        badEvent("add_graph scale percents must be > 0");
      }
      design.graphs.push_back(s);
      return;
    }
    case LifecycleEventKind::RemoveGraph: {
      for (std::size_t i = 0; i < design.graphs.size(); ++i) {
        if (design.graphs[i].uid == event.uid) {
          design.graphs.erase(design.graphs.begin() +
                              static_cast<std::ptrdiff_t>(i));
          return;
        }
      }
      badEvent("remove_graph: unknown uid " + std::to_string(event.uid));
    }
    case LifecycleEventKind::SpecChange: {
      LifecycleGraphSpec* g = findMutable(design, event.uid);
      if (g == nullptr) {
        badEvent("spec_change: unknown uid " + std::to_string(event.uid));
      }
      if (event.wcetScalePercent <= 0 || event.msgScalePercent <= 0) {
        badEvent("spec_change scale percents must be > 0");
      }
      g->wcetScalePercent = event.wcetScalePercent;
      g->msgScalePercent = event.msgScalePercent;
      return;
    }
    case LifecycleEventKind::DeadlineTighten: {
      LifecycleGraphSpec* g = findMutable(design, event.uid);
      if (g == nullptr) {
        badEvent("deadline_tighten: unknown uid " +
                 std::to_string(event.uid));
      }
      if (event.deadline <= 0 || g->offset + event.deadline > g->period) {
        badEvent("deadline_tighten: deadline out of the graph's window");
      }
      g->deadline = event.deadline;
      return;
    }
    case LifecycleEventKind::PlatformPerturb: {
      if (event.node >= design.speedPercents.size()) {
        badEvent("platform_perturb: node out of range");
      }
      if (event.speedPercent <= 0) {
        badEvent("platform_perturb: speed percent must be > 0");
      }
      design.speedPercents[event.node] = event.speedPercent;
      return;
    }
  }
  badEvent("unknown event kind");
}

LifecycleScenario generateScenario(const ScenarioConfig& config) {
  validateScenarioConfig(config);
  LifecycleScenario scenario;
  scenario.config = config;
  scenario.events.reserve(static_cast<std::size_t>(config.steps));

  LivingDesign design = initialDesign(config);
  Rng rng(rngStreamSeed(config.seed, kEventStream));
  const std::uint64_t graphSeedBase =
      rngStreamSeed(config.seed, kGraphSeedStream);
  std::uint64_t nextUid = 1;

  const auto makeAdd = [&] {
    LifecycleEvent ev;
    ev.kind = LifecycleEventKind::AddGraph;
    LifecycleGraphSpec s;
    s.uid = nextUid++;
    // Seeded off the uid, not the event stream: the spec fully determines
    // the graph, independent of what happened around it.
    s.seed = rngStreamSeed(graphSeedBase, s.uid);
    s.processCount = static_cast<std::size_t>(rng.uniformInt(
        static_cast<std::int64_t>(config.graphProcessesMin),
        static_cast<std::int64_t>(config.graphProcessesMax)));
    s.period =
        config.basePeriod /
        config.periodDivisors[rng.index(config.periodDivisors.size())];
    s.deadline = s.period;
    ev.uid = s.uid;
    ev.add = s;
    return ev;
  };

  for (int i = 0; i < config.steps; ++i) {
    LifecycleEvent ev;
    if (static_cast<std::size_t>(i) < config.initialGraphs) {
      ev = makeAdd();
    } else {
      const double r = rng.uniform01();
      double cum = config.probRemove;
      LifecycleEventKind kind = LifecycleEventKind::AddGraph;
      if (r < cum) {
        kind = LifecycleEventKind::RemoveGraph;
      } else if (r < (cum += config.probSpecChange)) {
        kind = LifecycleEventKind::SpecChange;
      } else if (r < (cum += config.probDeadlineTighten)) {
        kind = LifecycleEventKind::DeadlineTighten;
      } else if (r < (cum += config.probPlatformPerturb)) {
        kind = LifecycleEventKind::PlatformPerturb;
      }
      // Live-set guards: a drawn kind that would violate the bounds falls
      // back to a spec change, which is always applicable (minLiveGraphs
      // >= 1 keeps at least one target alive).
      if (kind == LifecycleEventKind::RemoveGraph &&
          design.graphs.size() <= config.minLiveGraphs) {
        kind = LifecycleEventKind::SpecChange;
      }
      if (kind == LifecycleEventKind::AddGraph &&
          design.graphs.size() >= config.maxLiveGraphs) {
        kind = LifecycleEventKind::SpecChange;
      }
      switch (kind) {
        case LifecycleEventKind::AddGraph:
          ev = makeAdd();
          break;
        case LifecycleEventKind::RemoveGraph:
          ev.kind = kind;
          ev.uid = design.graphs[rng.index(design.graphs.size())].uid;
          break;
        case LifecycleEventKind::SpecChange:
          ev.kind = kind;
          ev.uid = design.graphs[rng.index(design.graphs.size())].uid;
          ev.wcetScalePercent = static_cast<int>(rng.uniformInt(
              config.wcetScaleMinPercent, config.wcetScaleMaxPercent));
          ev.msgScalePercent = static_cast<int>(rng.uniformInt(
              config.msgScaleMinPercent, config.msgScaleMaxPercent));
          break;
        case LifecycleEventKind::DeadlineTighten: {
          const LifecycleGraphSpec& g =
              design.graphs[rng.index(design.graphs.size())];
          ev.kind = kind;
          ev.uid = g.uid;
          const Time floor = g.period * config.minDeadlinePercent / 100;
          Time tightened =
              g.deadline * config.deadlineTightenPercent / 100;
          tightened = std::max(tightened, floor);
          tightened = std::min(tightened, g.period - g.offset);
          ev.deadline = std::max<Time>(tightened, 1);
          break;
        }
        case LifecycleEventKind::PlatformPerturb:
          ev.kind = kind;
          ev.node = rng.index(config.nodeCount);
          ev.speedPercent = static_cast<int>(rng.uniformInt(
              config.speedMinPercent, config.speedMaxPercent));
          break;
      }
    }
    applyEvent(design, ev);
    scenario.events.push_back(ev);
  }
  return scenario;
}

std::string scenarioJson(const LifecycleScenario& scenario) {
  const ScenarioConfig& c = scenario.config;
  std::string out = "{\n";
  out += "  \"schema\": 1,\n";
  out += "  \"kind\": \"lifecycle_scenario\",\n";
  out += "  \"config\": {\n";
  out += "    \"seed\": " + u64Quoted(c.seed) + ",\n";
  out += "    \"steps\": " + std::to_string(c.steps) + ",\n";
  out += "    \"node_count\": " + std::to_string(c.nodeCount) + ",\n";
  out += "    \"speed_percents\": [";
  for (std::size_t i = 0; i < c.speedPercents.size(); ++i) {
    out += (i == 0 ? "" : ", ") + std::to_string(c.speedPercents[i]);
  }
  out += "],\n";
  out += "    \"slot_length\": " + i64s(c.slotLength) + ",\n";
  out += "    \"bytes_per_tick\": " + i64s(c.bytesPerTick) + ",\n";
  out += "    \"base_period\": " + i64s(c.basePeriod) + ",\n";
  out += "    \"period_divisors\": [";
  for (std::size_t i = 0; i < c.periodDivisors.size(); ++i) {
    out += (i == 0 ? "" : ", ") + i64s(c.periodDivisors[i]);
  }
  out += "],\n";
  out += "    \"tmin\": " + i64s(c.tmin) + ",\n";
  out += "    \"tneed\": " + i64s(c.tneed) + ",\n";
  out += "    \"bneed_bytes\": " + i64s(c.bneedBytes) + ",\n";
  out += "    \"initial_graphs\": " + std::to_string(c.initialGraphs) + ",\n";
  out += "    \"min_live_graphs\": " + std::to_string(c.minLiveGraphs) +
         ",\n";
  out += "    \"max_live_graphs\": " + std::to_string(c.maxLiveGraphs) +
         ",\n";
  out += "    \"graph_processes_min\": " +
         std::to_string(c.graphProcessesMin) + ",\n";
  out += "    \"graph_processes_max\": " +
         std::to_string(c.graphProcessesMax) + ",\n";
  out += "    \"prob_remove\": " + d17(c.probRemove) + ",\n";
  out += "    \"prob_spec_change\": " + d17(c.probSpecChange) + ",\n";
  out += "    \"prob_deadline_tighten\": " + d17(c.probDeadlineTighten) +
         ",\n";
  out += "    \"prob_platform_perturb\": " + d17(c.probPlatformPerturb) +
         ",\n";
  out += "    \"wcet_scale_min_percent\": " +
         std::to_string(c.wcetScaleMinPercent) + ",\n";
  out += "    \"wcet_scale_max_percent\": " +
         std::to_string(c.wcetScaleMaxPercent) + ",\n";
  out += "    \"msg_scale_min_percent\": " +
         std::to_string(c.msgScaleMinPercent) + ",\n";
  out += "    \"msg_scale_max_percent\": " +
         std::to_string(c.msgScaleMaxPercent) + ",\n";
  out += "    \"speed_min_percent\": " + std::to_string(c.speedMinPercent) +
         ",\n";
  out += "    \"speed_max_percent\": " + std::to_string(c.speedMaxPercent) +
         ",\n";
  out += "    \"deadline_tighten_percent\": " +
         std::to_string(c.deadlineTightenPercent) + ",\n";
  out += "    \"min_deadline_percent\": " +
         std::to_string(c.minDeadlinePercent) + ",\n";
  out += "    \"graph_gen\": {\n";
  out += "      \"edge_density\": " + d17(c.graphGen.edgeDensity) + ",\n";
  out += "      \"layer_width\": " + std::to_string(c.graphGen.layerWidth) +
         ",\n";
  out += "      \"wcet_min\": " + i64s(c.graphGen.wcetMin) + ",\n";
  out += "      \"wcet_max\": " + i64s(c.graphGen.wcetMax) + ",\n";
  out += "      \"wcet_node_variation\": " +
         d17(c.graphGen.wcetNodeVariation) + ",\n";
  out += "      \"restricted_mapping_prob\": " +
         d17(c.graphGen.restrictedMappingProb) + ",\n";
  out += "      \"restricted_fraction\": " +
         d17(c.graphGen.restrictedFraction) + ",\n";
  out += "      \"msg_min\": " + i64s(c.graphGen.msgMin) + ",\n";
  out += "      \"msg_max\": " + i64s(c.graphGen.msgMax) + "\n";
  out += "    }\n";
  out += "  },\n";
  out += "  \"events\": [";
  for (std::size_t i = 0; i < scenario.events.size(); ++i) {
    const LifecycleEvent& ev = scenario.events[i];
    out += (i == 0 ? "" : ",");
    out += "\n    {\"kind\": ";
    out += jsonQuote(toString(ev.kind));
    switch (ev.kind) {
      case LifecycleEventKind::AddGraph:
        out += ", \"uid\": " + std::to_string(ev.uid);
        out += ", \"seed\": " + u64Quoted(ev.add.seed);
        out += ", \"process_count\": " + std::to_string(ev.add.processCount);
        out += ", \"period\": " + i64s(ev.add.period);
        out += ", \"deadline\": " + i64s(ev.add.deadline);
        out += ", \"offset\": " + i64s(ev.add.offset);
        out += ", \"wcet_scale_percent\": " +
               std::to_string(ev.add.wcetScalePercent);
        out += ", \"msg_scale_percent\": " +
               std::to_string(ev.add.msgScalePercent);
        break;
      case LifecycleEventKind::RemoveGraph:
        out += ", \"uid\": " + std::to_string(ev.uid);
        break;
      case LifecycleEventKind::SpecChange:
        out += ", \"uid\": " + std::to_string(ev.uid);
        out += ", \"wcet_scale_percent\": " +
               std::to_string(ev.wcetScalePercent);
        out += ", \"msg_scale_percent\": " +
               std::to_string(ev.msgScalePercent);
        break;
      case LifecycleEventKind::DeadlineTighten:
        out += ", \"uid\": " + std::to_string(ev.uid);
        out += ", \"deadline\": " + i64s(ev.deadline);
        break;
      case LifecycleEventKind::PlatformPerturb:
        out += ", \"node\": " + std::to_string(ev.node);
        out += ", \"speed_percent\": " + std::to_string(ev.speedPercent);
        break;
    }
    out += "}";
  }
  out += "\n  ]\n}\n";
  return out;
}

LifecycleScenario parseScenario(std::string_view text) {
  const JsonValue root = parseJson(text);
  if (root.intAt("schema") != 1 ||
      root.stringAt("kind") != "lifecycle_scenario") {
    throw std::runtime_error(
        "lifecycle scenario: unknown schema or document kind");
  }

  LifecycleScenario scenario;
  ScenarioConfig& c = scenario.config;
  const JsonValue& cfg = root.at("config");
  c.seed = u64At(cfg, "seed");
  c.steps = static_cast<int>(cfg.intAt("steps"));
  c.nodeCount = sizeAt(cfg, "node_count");
  c.speedPercents.clear();
  for (const JsonValue& v : cfg.at("speed_percents").items) {
    c.speedPercents.push_back(static_cast<int>(v.numberValue));
  }
  c.slotLength = cfg.intAt("slot_length");
  c.bytesPerTick = cfg.intAt("bytes_per_tick");
  c.basePeriod = cfg.intAt("base_period");
  c.periodDivisors.clear();
  for (const JsonValue& v : cfg.at("period_divisors").items) {
    c.periodDivisors.push_back(static_cast<Time>(v.numberValue));
  }
  c.tmin = cfg.intAt("tmin");
  c.tneed = cfg.intAt("tneed");
  c.bneedBytes = cfg.intAt("bneed_bytes");
  c.initialGraphs = sizeAt(cfg, "initial_graphs");
  c.minLiveGraphs = sizeAt(cfg, "min_live_graphs");
  c.maxLiveGraphs = sizeAt(cfg, "max_live_graphs");
  c.graphProcessesMin = sizeAt(cfg, "graph_processes_min");
  c.graphProcessesMax = sizeAt(cfg, "graph_processes_max");
  c.probRemove = cfg.numberAt("prob_remove");
  c.probSpecChange = cfg.numberAt("prob_spec_change");
  c.probDeadlineTighten = cfg.numberAt("prob_deadline_tighten");
  c.probPlatformPerturb = cfg.numberAt("prob_platform_perturb");
  c.wcetScaleMinPercent = intFieldAt(cfg, "wcet_scale_min_percent");
  c.wcetScaleMaxPercent = intFieldAt(cfg, "wcet_scale_max_percent");
  c.msgScaleMinPercent = intFieldAt(cfg, "msg_scale_min_percent");
  c.msgScaleMaxPercent = intFieldAt(cfg, "msg_scale_max_percent");
  c.speedMinPercent = intFieldAt(cfg, "speed_min_percent");
  c.speedMaxPercent = intFieldAt(cfg, "speed_max_percent");
  c.deadlineTightenPercent = intFieldAt(cfg, "deadline_tighten_percent");
  c.minDeadlinePercent = intFieldAt(cfg, "min_deadline_percent");
  const JsonValue& gg = cfg.at("graph_gen");
  c.graphGen.edgeDensity = gg.numberAt("edge_density");
  c.graphGen.layerWidth = sizeAt(gg, "layer_width");
  c.graphGen.wcetMin = gg.intAt("wcet_min");
  c.graphGen.wcetMax = gg.intAt("wcet_max");
  c.graphGen.wcetNodeVariation = gg.numberAt("wcet_node_variation");
  c.graphGen.restrictedMappingProb = gg.numberAt("restricted_mapping_prob");
  c.graphGen.restrictedFraction = gg.numberAt("restricted_fraction");
  c.graphGen.msgMin = gg.intAt("msg_min");
  c.graphGen.msgMax = gg.intAt("msg_max");
  validateScenarioConfig(c);

  const JsonValue& events = root.at("events");
  if (!events.isArray()) {
    throw std::runtime_error("lifecycle scenario: \"events\" must be array");
  }
  for (const JsonValue& e : events.items) {
    LifecycleEvent ev;
    ev.kind = lifecycleEventKindFromString(e.stringAt("kind"));
    switch (ev.kind) {
      case LifecycleEventKind::AddGraph:
        ev.uid = static_cast<std::uint64_t>(e.intAt("uid"));
        ev.add.uid = ev.uid;
        ev.add.seed = u64At(e, "seed");
        ev.add.processCount = sizeAt(e, "process_count");
        ev.add.period = e.intAt("period");
        ev.add.deadline = e.intAt("deadline");
        ev.add.offset = e.intAt("offset");
        ev.add.wcetScalePercent = intFieldAt(e, "wcet_scale_percent");
        ev.add.msgScalePercent = intFieldAt(e, "msg_scale_percent");
        break;
      case LifecycleEventKind::RemoveGraph:
        ev.uid = static_cast<std::uint64_t>(e.intAt("uid"));
        break;
      case LifecycleEventKind::SpecChange:
        ev.uid = static_cast<std::uint64_t>(e.intAt("uid"));
        ev.wcetScalePercent = intFieldAt(e, "wcet_scale_percent");
        ev.msgScalePercent = intFieldAt(e, "msg_scale_percent");
        break;
      case LifecycleEventKind::DeadlineTighten:
        ev.uid = static_cast<std::uint64_t>(e.intAt("uid"));
        ev.deadline = e.intAt("deadline");
        break;
      case LifecycleEventKind::PlatformPerturb:
        ev.node = sizeAt(e, "node");
        ev.speedPercent = intFieldAt(e, "speed_percent");
        break;
    }
    scenario.events.push_back(ev);
  }

  // Replay through applyEvent so a hand-edited stream that violates the
  // living-design invariants is rejected at parse time, not mid-run.
  LivingDesign design = initialDesign(c);
  for (const LifecycleEvent& ev : scenario.events) applyEvent(design, ev);
  return scenario;
}

}  // namespace ides
