#include "serve/design_job.h"

#include <cstdio>
#include <utility>

#include "util/json_reader.h"

namespace ides {

namespace {

std::string num(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", value);
  return buf;
}

/// The design job's probe: the designer's schedule validation.
void validationProbe(const IncrementalDesigner& designer,
                     const RunReport& report, BatchExtras& extras) {
  extras.add("validation_ok", designer.validate(report).ok() ? 1.0 : 0.0);
}

}  // namespace

DesignerOptions designJobOptions(const DesignJobSpec& spec) {
  DesignerOptions opts;
  opts.sa.seed = spec.seed;
  if (spec.saIterations > 0) opts.sa.iterations = spec.saIterations;
  opts.psa.threads = spec.threads;
  opts.psa.restarts = spec.restarts;
  // SA reads the chain-level speculation knobs; PSA auto-splits its thread
  // budget unless specWorkers pins the per-chain worker count.
  if (spec.specWorkers > 0) opts.sa.speculation.workers = spec.specWorkers;
  opts.psa.speculativeWorkers = spec.specWorkers;
  return opts;
}

BatchInstance designJobInstance(const DesignJobSpec& spec) {
  BatchInstance instance;
  instance.id = std::to_string(spec.nodes) + "x" +
                std::to_string(spec.existing) + "+" +
                std::to_string(spec.current) + "/s" +
                std::to_string(spec.seed) + "/" + spec.strategy;
  instance.suiteSeed = spec.seed;
  instance.config.nodeCount = spec.nodes;
  instance.config.existingProcesses = spec.existing;
  instance.config.currentProcesses = spec.current;
  instance.config.tneedOverride = 12000;
  instance.strategy = spec.strategy;
  instance.options = designJobOptions(spec);
  instance.probe = validationProbe;
  return instance;
}

DesignJobResult designJobResult(InstanceOutcome outcome) {
  DesignJobResult out;
  out.result = std::move(outcome.report);
  for (const auto& [key, value] : outcome.extras.fields) {
    if (key == "validation_ok") out.validationOk = value != 0.0;
  }
  return out;
}

DesignJobResult runDesignJob(const DesignJobSpec& spec,
                             const RunContext& context) {
  return designJobResult(runBatchInstance(designJobInstance(spec),
                                          context.stop, context.progress));
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
