// idesbench — the IDES benchmark program.
//
//   idesbench --workload design|sweep|lifecycle|serve --seed N --seconds S
//             --trace 0|1 --work-dir DIR --serve-binary PATH
//             [--trace-file PATH]
//
// --trace 0 measures the workload and reports its end-to-end metrics.
// --trace 1 is the separate traced run: spans around every layer call,
// per-layer metrics (each tied to the end-to-end metric it should move),
// and the tracing overhead of the named workload. Human-readable lines go
// first; the last line of stdout is one JSON object with the result.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>

#include "bench.h"
#include "spans.h"
#include "stats.h"
#include "util/provenance.h"

namespace idesbench {
namespace {

/// The end-to-end metric and workload each per-layer metric of the traced
/// run should move. Printed beside each value.
struct LayerRow {
  const char* metric;
  const char* moves;
  const char* on;
};
constexpr LayerRow kLayerRows[] = {
    {"tgen.build_suite_ms", "setup_s", "design, sweep"},
    {"sched.freeze_ms", "setup_s", "design"},
    {"sched.initial_mapping_ms", "mh_ms", "design, serve"},
    {"sched.state_copy_us", "mh_ms", "design"},
    {"sched.schedule_us", "sa_ms", "design"},
    {"sched.slack_us", "sa_ms", "design"},
    {"sched.validate_ms", "op_p50_ms", "lifecycle, sweep"},
    {"core.metrics_us", "sa_ms", "design"},
    {"core.eval.unaccounted_us", "sa_ms", "design"},
    {"core.eval.full_us", "mh_ms", "design"},
    {"core.eval.inc_us", "sa_ms", "design, lifecycle"},
    {"core.eval.inc_p90_us", "sa_ms", "design"},
    {"core.eval.moves", "(base)", "design"},
    {"core.eval.zero_delta_us", "sa_ms", "design"},
    {"core.eval.share.zero_delta", "sa_ms", "design"},
    {"core.eval.mid_graph_us", "sa_ms", "design"},
    {"core.eval.share.mid_graph", "sa_ms", "design"},
    {"core.eval.graph_start_us", "sa_ms", "design"},
    {"core.eval.share.graph_start", "sa_ms", "design"},
    {"core.eval.speedup", "sa_ms", "design"},
    {"core.sa.us_per_iter", "sa_ms", "design"},
    {"core.sa.proposals", "(base)", "design"},
    {"core.sa.zero_delta_skip_ratio", "sa_ms", "design"},
    {"core.sa.evaluated_accept_ratio", "objective", "design"},
    {"core.sa.late_move_ratio", "objective", "design, lifecycle"},
    {"core.sa.propose_ns", "sa_ms", "design"},
    {"core.sa.filter_ns", "sa_ms", "design"},
    {"core.spec.speedup", "sa_ms (gain) vs ops_per_s (cost)", "design, sweep"},
    {"core.spec.discard_ratio", "sa_ms", "design"},
    {"core.spec.batches", "sa_ms", "design"},
    {"core.psa.parallel_eff", "op_p90_ms", "design"},
    {"core.batch.instance_ms", "ops_per_s", "sweep"},
    {"core.batch.busy_frac", "ops_per_s", "sweep"},
    {"store.write_ms", "ops_per_s", "sweep"},
    {"store.read_ms", "op_p50_ms", "serve"},
    {"store.design_cache_hit_ratio", "op_p50_ms", "serve"},
    {"store.design_cache_lookups", "(base)", "serve"},
    {"lifecycle.rebuild_ms", "op_p50_ms", "lifecycle"},
    {"lifecycle.optimize_ms", "op_p50_ms, op_p90_ms", "lifecycle"},
    {"lifecycle.warm_ratio", "objective", "lifecycle"},
    {"lifecycle.steps", "(base)", "lifecycle"},
    {"serve.http.parse_us", "op_p50_ms, ops_per_s", "serve"},
    {"serve.http.render_us", "op_p50_ms, ops_per_s", "serve"},
    {"serve.route_us.healthz", "op_p50_ms", "serve"},
    {"serve.route_us.metrics", "op_p50_ms", "serve"},
    {"serve.route_us.submit", "op_p50_ms, ops_per_s", "serve"},
    {"serve.route_us.status", "op_p50_ms, ops_per_s", "serve"},
    {"serve.route_us.result", "op_p50_ms", "serve"},
    {"serve.server_ms", "op_p50_ms, ops_per_s", "serve"},
    {"serve.wait_ms", "op_p90_ms", "serve"},
    {"serve.jobs.wait_ms", "mh_ms, sa_ms, ops_per_s", "serve"},
    {"serve.gen_late_ms", "op_p90_ms", "serve"},
    {"obs.scrape_ms", "op_p50_ms", "serve"},
    {"obs.trace_overhead_pct", "-", "the traced workload"},
    {"tgen.self_ms", "-", "all"},
    {"sched.self_ms", "-", "all"},
    {"core.self_ms", "-", "all"},
    {"lifecycle.self_ms", "-", "all"},
    {"store.self_ms", "-", "all"},
    {"serve.self_ms", "-", "all"},
    {"obs.self_ms", "-", "all"},
};

constexpr const char* kWorkloads[] = {"design", "sweep", "lifecycle", "serve"};

/// Runs workload `name` at full size (the measured run) or small (`mini`,
/// the traced run's pass over every workload).
void runWorkload(const std::string& name, const Config& cfg, bool mini,
                 Report& report, OpLog& log) {
  if (name == "design") {
    DesignPlan plan;
    plan.seconds = cfg.seconds;
    if (mini) {
      plan.instances = {1, 1};
      plan.heavy = {"SA"};
      plan.saIterations = 2000;
      plan.seconds = 0.0;
      plan.postChecks = false;
    }
    runDesign(cfg, plan, report, log);
  } else if (name == "sweep") {
    SweepPlan plan;
    plan.seconds = cfg.seconds;
    if (mini) {
      plan.scale = "smoke";
      plan.seconds = 0.0;
    }
    runSweep(cfg, plan, report, log);
  } else if (name == "lifecycle") {
    LifecyclePlan plan;
    plan.seconds = cfg.seconds;
    if (mini) {
      plan.scenarios = 1;
      plan.steps = 20;
      plan.seconds = 0.0;
    }
    runLifecycleWorkload(cfg, plan, report, log);
  } else {
    ServePlan plan;
    plan.seconds = mini ? 3.0 : cfg.seconds;
    if (mini) plan.setups = 1;
    runServe(cfg, plan, report, log);
  }
}

/// Total of the per-operation medians: the work of one pass over the
/// operation set, comparable between a traced and an untraced pass.
double totalOpMs(const OpLog& log) {
  double total = 0.0;
  for (const auto& [key, repeats] : log.latencyMs) total += median(repeats);
  return total;
}

void tracedRun(const Config& cfg, Report& report) {
  // Tracing overhead of the named workload: the same small pass untraced,
  // then traced.
  OpLog untraced;
  OpLog traced;
  spans().setEnabled(false);
  runWorkload(cfg.workload, cfg, true, report, untraced);
  spans().setEnabled(true);
  runWorkload(cfg.workload, cfg, true, report, traced);
  report.metric("obs.trace_overhead_pct",
                100.0 * (totalOpMs(traced) / totalOpMs(untraced) - 1.0), "pct",
                traced.completed);

  // Every other workload once, small and traced, so each traced run
  // reports every layer; then the direct layer probes.
  for (const char* other : kWorkloads) {
    if (cfg.workload == other) continue;
    OpLog log;
    runWorkload(other, cfg, true, report, log);
  }
  runLayerProbes(cfg, report);

  const std::map<std::string, double> self = spans().selfTimeMsByLayer();
  for (const char* layer :
       {"tgen", "sched", "core", "lifecycle", "store", "serve", "obs"}) {
    const auto it = self.find(layer);
    report.metric(std::string(layer) + ".self_ms",
                  it == self.end() ? 0.0 : it->second, "ms", spans().count());
  }
}

std::string jsonNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

int usage() {
  std::fprintf(stderr,
               "usage: idesbench --workload design|sweep|lifecycle|serve "
               "--seed N --seconds S --trace 0|1 --work-dir DIR "
               "--serve-binary PATH [--trace-file PATH]\n");
  return 2;
}

}  // namespace
}  // namespace idesbench

int main(int argc, char** argv) {
  using namespace idesbench;
  Config cfg;
  std::string traceFile;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      cfg.workload = value;
    } else if (flag == "--seed") {
      cfg.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      cfg.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      cfg.trace = value == "1";
    } else if (flag == "--work-dir") {
      cfg.workDir = value;
    } else if (flag == "--serve-binary") {
      cfg.serveBinary = value;
    } else if (flag == "--trace-file") {
      traceFile = value;
    } else {
      return usage();
    }
  }
  bool known = false;
  for (const char* w : kWorkloads) known = known || cfg.workload == w;
  if (!known || cfg.workDir.empty() || cfg.serveBinary.empty() ||
      !(cfg.seconds > 0.0)) {
    return usage();
  }
  cfg.threads = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  std::filesystem::create_directories(cfg.workDir);

  const ides::Provenance& prov = ides::buildProvenance();
  std::printf("idesbench workload=%s seed=%llu seconds=%g trace=%d\n",
              cfg.workload.c_str(), static_cast<unsigned long long>(cfg.seed),
              cfg.seconds, cfg.trace ? 1 : 0);
  std::printf("provenance: sha=%s host=%s nproc=%u compiler=%s\n",
              prov.gitSha.c_str(), prov.hostname.c_str(),
              prov.hardwareConcurrency, prov.compiler.c_str());
  std::fflush(stdout);

  Report report;
  try {
    if (cfg.trace) {
      tracedRun(cfg, report);
    } else {
      OpLog log;
      runWorkload(cfg.workload, cfg, false, report, log);
      addEndToEnd(log, report);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "idesbench: %s\n", e.what());
    return 1;
  }
  spans().setEnabled(false);
  if (cfg.trace && !traceFile.empty()) {
    std::ofstream(traceFile) << spans().chromeJson();
    std::printf("trace: %zu spans written to %s\n", spans().count(),
                traceFile.c_str());
  }

  // run.py checks the metric names against BENCHMARK.json.
  for (const Metric& m : report.metrics()) {
    if (!std::isfinite(m.value)) report.fail(m.name + " is not finite");
  }

  for (const std::string& line : report.notes()) {
    std::printf("note: %s\n", line.c_str());
  }
  std::printf("%-32s %14s %-6s %8s  %s\n", "metric", "value", "unit", "n",
              cfg.trace ? "should move  (on workload)" : "");
  for (const Metric& m : report.metrics()) {
    std::string moves;
    if (cfg.trace) {
      for (const LayerRow& row : kLayerRows) {
        if (m.name == row.metric) {
          moves = std::string(row.moves) + "  (" + row.on + ")";
        }
      }
    }
    std::printf("%-32s %14.6g %-6s %8zu  %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.samples, moves.c_str());
  }
  for (const std::string& f : report.failures()) {
    std::printf("FAILED: %s\n", f.c_str());
  }
  std::printf("operations: %zu attempted, %zu failed\n", report.attempted(),
              report.failed());

  std::string json = std::string("{\"correct\": ") +
                     (report.failed() == 0 ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(report.attempted()) +
                     ", \"failed\": " + std::to_string(report.failed()) +
                     ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : report.metrics()) {
    json += (first ? "\"" : ", \"") + m.name + "\": {\"value\": " +
            jsonNumber(std::isfinite(m.value) ? m.value : 0.0) +
            ", \"unit\": \"" + m.unit + "\"}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
