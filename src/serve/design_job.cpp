#include "serve/design_job.h"

#include <cstdio>

#include "sched/validate.h"
#include "tgen/benchmark_suite.h"
#include "util/hashing.h"
#include "util/json_reader.h"

namespace ides {

namespace {

std::string num(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", value);
  return buf;
}

}  // namespace

DesignerOptions designJobOptions(const DesignJobSpec& spec) {
  DesignerOptions opts;
  opts.sa.seed = spec.seed;
  if (spec.saIterations > 0) opts.sa.iterations = spec.saIterations;
  opts.psa.threads = spec.threads;
  opts.psa.restarts = spec.restarts;
  if (spec.specWorkers > 0) opts.sa.speculation.workers = spec.specWorkers;
  opts.psa.speculativeWorkers = spec.specWorkers;
  return opts;
}

std::string designJobFingerprint(const DesignJobSpec& spec) {
  // Two independently-seeded FNV lanes over the same field stream, the
  // sweep-store convention (see instanceFingerprint). threads and
  // specWorkers are deliberately absent: they reshape the search's
  // parallelism, never its result.
  Fnv1aHasher lanes[2] = {Fnv1aHasher(Fnv1aHasher::kDefaultBasis),
                          Fnv1aHasher(0x9e3779b97f4a7c15ULL)};
  for (Fnv1aHasher& h : lanes) {
    h.u64(kDesignFingerprintEpoch);
    h.str("design");
    h.u64(spec.nodes);
    h.u64(spec.existing);
    h.u64(spec.current);
    h.u64(spec.seed);
    h.str(spec.strategy);
    h.i64(spec.saIterations);
    h.i64(spec.restarts);
  }
  return hashHex(lanes[0].value(), lanes[1].value());
}

DesignJobResult runDesignJob(const DesignJobSpec& spec,
                             RunContext& context) {
  SuiteConfig cfg;
  cfg.nodeCount = spec.nodes;
  cfg.existingProcesses = spec.existing;
  cfg.currentProcesses = spec.current;
  cfg.tneedOverride = 12000;
  const Suite suite = buildSuite(cfg, spec.seed);

  IncrementalDesigner designer(suite.system, suite.profile,
                               designJobOptions(spec));
  DesignJobResult out;
  out.result = designer.run(spec.strategy, context);

  Schedule all;
  all.merge(designer.frozenSchedule());
  all.merge(out.result.schedule);
  std::vector<GraphId> graphs = suite.system.graphsOfKind(AppKind::Existing);
  const auto cur = suite.system.graphsOfKind(AppKind::Current);
  graphs.insert(graphs.end(), cur.begin(), cur.end());
  out.validationOk = validateSchedule(suite.system, all, graphs).ok();
  return out;
}

std::string designResultJson(const DesignJobResult& r, bool timing) {
  const RunReport& d = r.result;
  std::string out = "{\n";
  out += "  \"strategy\": " + jsonQuote(d.strategy) + ",\n";
  out += std::string("  \"feasible\": ") + (d.feasible ? "true" : "false") +
         ",\n";
  out += "  \"objective\": " + num(d.objective) + ",\n";
  out += "  \"C1P_pct\": " + num(d.metrics.c1p) + ",\n";
  out += "  \"C1m_pct\": " + num(d.metrics.c1m) + ",\n";
  out += "  \"C2P_ticks\": " +
         std::to_string(static_cast<long long>(d.metrics.c2p)) + ",\n";
  out += "  \"C2m_bytes\": " +
         std::to_string(static_cast<long long>(d.metrics.c2mBytes)) + ",\n";
  out += "  \"evaluations\": " + std::to_string(d.evaluations) + ",\n";
  out += std::string("  \"stopped\": ") + (d.stopped ? "true" : "false") +
         ",\n";
  out += std::string("  \"validation_ok\": ") +
         (r.validationOk ? "true" : "false");
  if (timing) {
    out += ",\n  \"seconds\": " + num(d.seconds);
  }
  out += "\n}\n";
  return out;
}

}  // namespace ides
