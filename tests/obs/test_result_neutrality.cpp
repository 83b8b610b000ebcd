// The telemetry spine's hard guarantee: metrics and trace spans never feed
// back into optimization. A PSA ensemble (the most instrumented path —
// speculative evaluation, per-chain SA loops, EvalContext walks) must
// render byte-identical result JSON with telemetry off, on, and traced.
#include <gtest/gtest.h>

#include <string>

#include "obs/telemetry.h"
#include "obs/trace.h"
#include "serve/design_job.h"

namespace ides {
namespace {

std::string runOnce(const DesignJobSpec& spec) {
  RunContext context;
  const DesignJobResult result = runDesignJob(spec, context);
  return designResultJson(result, /*timing=*/false);
}

DesignJobSpec psaSpec() {
  DesignJobSpec spec;
  spec.nodes = 4;
  spec.existing = 60;
  spec.current = 24;
  spec.seed = 7;
  spec.strategy = "PSA";
  spec.saIterations = 400;
  spec.restarts = 2;
  spec.threads = 2;
  return spec;
}

TEST(ResultNeutrality, PsaEnsembleIsByteIdenticalAcrossTelemetryModes) {
  const bool wasEnabled = telemetryEnabled();
  traceDisable();

  setTelemetryEnabled(false);
  const std::string off = runOnce(psaSpec());

  setTelemetryEnabled(true);
  const std::string on = runOnce(psaSpec());

  traceConfigure("");  // in-memory tracing: spans recorded, nothing read
  const std::string traced = runOnce(psaSpec());
  EXPECT_GT(traceEventCount(), 0u);

  traceDisable();
  setTelemetryEnabled(wasEnabled);

  EXPECT_EQ(off, on) << "telemetry on changed the result";
  EXPECT_EQ(on, traced) << "tracing changed the result";
  // Sanity: the rendering actually carries a result, not an error stub.
  EXPECT_NE(off.find("\"objective\""), std::string::npos);
}

TEST(ResultNeutrality, InstrumentedCountersMoveWhileResultsDoNot) {
  const bool wasEnabled = telemetryEnabled();
  setTelemetryEnabled(true);
  Counter& evals = telemetry().counter("ides_eval_evaluations_total",
                                       "Objective evaluations");
  const std::uint64_t before = evals.value();
  (void)runOnce(psaSpec());
  EXPECT_GT(evals.value(), before)
      << "the PSA run should have recorded evaluations";
  setTelemetryEnabled(wasEnabled);
}

}  // namespace
}  // namespace ides
