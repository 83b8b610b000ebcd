// Per-layer probes of the traced run: span-timed calls into each module's
// public functions on the instances the workloads run (the design pool's
// first paper instances), so every layer number sits beside the end-to-end
// number it should move.
#include <filesystem>
#include <thread>

#include "bench.h"
#include "core/batch_runner.h"
#include "core/batch_suites.h"
#include "core/metrics.h"
#include "core/parallel_annealing.h"
#include "obs/telemetry.h"
#include "sched/list_scheduler.h"
#include "sched/slack.h"
#include "sched/validate.h"
#include "serve/daemon.h"
#include "serve/http_server.h"
#include "serve/job_manager.h"
#include "spans.h"
#include "stats.h"
#include "store/sweep_store.h"
#include "util/json_reader.h"
#include "util/rng.h"

namespace idesbench {

namespace {

double us(Clock::time_point t0) { return msSince(t0) * 1000.0; }

void timed(Report& report, const std::string& name,
           const std::vector<double>& values, const std::string& unit) {
  report.metric(name, median(values), unit, values.size());
}

/// Full pass versus its parts on one solution: baseline copy, list
/// scheduling of the current graphs, slack extraction, metrics.
void probeEvaluationParts(const Instance& inst, Report& report) {
  const ides::SolutionEvaluator& ev = *inst.evaluator;
  const ides::SystemModel& sys = inst.suite.system;
  std::vector<double> full, copy, schedule, slack, metrics;
  for (int i = 0; i < 150; ++i) {
    Clock::time_point t0 = Clock::now();
    {
      const Span span("core.eval.full");
      (void)ev.evaluate(inst.initial);
    }
    full.push_back(us(t0));
    t0 = Clock::now();
    ides::PlatformState state = [&] {
      const Span span("sched.state_copy");
      return ev.baseline();
    }();
    copy.push_back(us(t0));
    ides::ScheduleRequest req;
    req.graphs = ev.currentGraphs();
    req.mapping = &inst.initial;
    req.priorities = &ev.priorities();
    t0 = Clock::now();
    {
      const Span span("sched.schedule");
      (void)ides::scheduleGraphs(sys, req, state);
    }
    schedule.push_back(us(t0));
    t0 = Clock::now();
    ides::SlackInfo info;
    {
      const Span span("sched.slack");
      info = ides::extractSlack(state);
    }
    slack.push_back(us(t0));
    t0 = Clock::now();
    {
      const Span span("core.metrics");
      (void)ides::computeMetrics(info, ev.profile());
    }
    metrics.push_back(us(t0));
  }
  timed(report, "sched.state_copy_us", copy, "us");
  timed(report, "sched.schedule_us", schedule, "us");
  timed(report, "sched.slack_us", slack, "us");
  timed(report, "core.metrics_us", metrics, "us");
  report.metric("core.eval.unaccounted_us",
                median(full) - median(copy) - median(schedule) -
                    median(slack) - median(metrics),
                "us", full.size());
}

/// Incremental evaluation over a recorded SaMoveProposer walk, checked
/// against the full pass move by move and split by rewind depth.
void probeWalk(const Config& cfg, const Instance& inst, Report& report) {
  std::vector<WalkMove> moves;
  const WalkStats walk = evalWalk(inst, 600, deriveSeed(cfg.seed, 9), &moves);
  report.check(walk.mismatches == 0,
               std::to_string(walk.mismatches) +
                   " incremental evaluations differ from the full pass");
  std::vector<double> full, inc;
  std::map<WalkMove::Depth, std::vector<double>> byDepth;
  for (const WalkMove& m : moves) {
    full.push_back(m.fullUs);
    inc.push_back(m.incUs);
    byDepth[m.depth].push_back(m.incUs);
  }
  timed(report, "core.eval.full_us", full, "us");
  timed(report, "core.eval.inc_us", inc, "us");
  report.metric("core.eval.inc_p90_us", quantile(inc, 0.9), "us", inc.size());
  report.metric("core.eval.moves", static_cast<double>(moves.size()), "count",
                moves.size());
  const std::pair<WalkMove::Depth, const char*> depths[] = {
      {WalkMove::Depth::ZeroDelta, "zero_delta"},
      {WalkMove::Depth::MidGraph, "mid_graph"},
      {WalkMove::Depth::GraphStart, "graph_start"}};
  for (const auto& [depth, name] : depths) {
    const std::vector<double>& v = byDepth[depth];
    timed(report, std::string("core.eval.") + name + "_us", v, "us");
    report.metric(std::string("core.eval.share.") + name,
                  Ratio{static_cast<double>(v.size()),
                        static_cast<double>(moves.size())}
                      .value(),
                  "ratio", moves.size());
  }
  report.metric("core.eval.speedup",
                median(inc) > 0.0 ? median(full) / median(inc) : 0.0, "x",
                moves.size());
}

/// One SA chain at the default budget, plus the move kernel and the
/// zero-delta filter timed in batches. Returns the chain's best solution.
ides::MappingSolution probeAnnealing(const Config& cfg, const Instance& inst,
                                     Report& report) {
  const ides::SolutionEvaluator& ev = *inst.evaluator;
  ides::SaOptions options;
  options.seed = deriveSeed(cfg.seed, 10);
  options.recordCostTrace = true;
  ides::SaResult sa;
  const Clock::time_point t0 = Clock::now();
  {
    Span span("core.sa.chain");
    span.items = static_cast<std::size_t>(options.iterations);
    sa = ides::runSimulatedAnnealing(ev, inst.initial, options);
  }
  report.metric("core.sa.us_per_iter", us(t0) / options.iterations, "us",
                static_cast<std::size_t>(options.iterations));
  const double skips = static_cast<double>(sa.zeroDeltaSkips);
  report.metric("core.sa.proposals", static_cast<double>(sa.proposals),
                "count", sa.proposals);
  report.metric("core.sa.zero_delta_skip_ratio",
                Ratio{skips, static_cast<double>(sa.proposals)}.value(),
                "ratio", sa.proposals);
  const Ratio evaluatedAccept{static_cast<double>(sa.accepted) - skips,
                              static_cast<double>(sa.evaluations) - skips};
  report.metric("core.sa.evaluated_accept_ratio", evaluatedAccept.value(),
                "ratio", static_cast<std::size_t>(evaluatedAccept.base));
  // Share of the last 10% of iterations in which the current cost moved:
  // a cooled chain has stopped moving.
  const std::vector<double>& trace = sa.costTrace;
  const std::size_t from = trace.size() - trace.size() / 10;
  Ratio late{0.0, static_cast<double>(trace.size() - from)};
  for (std::size_t i = std::max<std::size_t>(from, 1); i < trace.size(); ++i) {
    if (trace[i] != trace[i - 1]) late.part += 1.0;
  }
  report.metric("core.sa.late_move_ratio", late.value(), "ratio",
                static_cast<std::size_t>(late.base));

  const ides::SaMoveProposer proposer(ev, options);
  ides::Rng rng(deriveSeed(cfg.seed, 11));
  constexpr std::size_t kBatch = 20000;
  std::vector<ides::SaMove> drawn;
  drawn.reserve(kBatch);
  Clock::time_point t1 = Clock::now();
  {
    Span span("core.sa.propose");
    span.items = kBatch;
    for (std::size_t i = 0; i < kBatch; ++i) {
      drawn.push_back(proposer.propose(inst.initial, rng));
    }
  }
  report.metric("core.sa.propose_ns", us(t1) * 1000.0 / kBatch, "ns", kBatch);
  ides::ZeroDeltaFilter filter(ev);
  ides::EvalContext ctx(ev);
  filter.captureAccepted(ctx, ctx.evaluate(inst.initial));
  std::size_t zero = 0;
  t1 = Clock::now();
  {
    Span span("core.sa.filter");
    span.items = kBatch;
    for (const ides::SaMove& move : drawn) {
      zero += filter.zeroDelta(move, inst.initial) ? 1 : 0;
    }
  }
  report.metric("core.sa.filter_ns", us(t1) * 1000.0 / kBatch, "ns", kBatch);
  report.note("zero-delta filter: " + std::to_string(zero) + " of " +
              std::to_string(kBatch) + " proposals provably zero-delta");
  return sa.solution;
}

/// Speculative SA against the sequential chain, and the PSA ensemble
/// against one chain.
void probeParallel(const Config& cfg, const Instance& inst, Report& report) {
  const SpecComparison spec =
      compareSpeculation(inst, 4000, cfg.threads, deriveSeed(cfg.seed, 12));
  report.check(spec.identical,
               "speculative SA differs from the sequential chain");
  report.metric("core.spec.speedup",
                spec.sequentialSeconds / spec.speculativeSeconds, "x", 1);
  report.metric("core.spec.discard_ratio",
                Ratio{static_cast<double>(spec.speculative.discardedEvaluations),
                      static_cast<double>(spec.speculative.evaluations)}
                    .value(),
                "ratio", spec.speculative.evaluations);
  report.metric("core.spec.batches",
                static_cast<double>(spec.speculative.speculativeBatches),
                "count", spec.speculative.speculativeBatches);

  ides::ParallelSaOptions psa;
  psa.base.seed = deriveSeed(cfg.seed, 13);
  psa.base.iterations = 4000;
  psa.restarts = 4;
  psa.threads = cfg.threads;
  psa.speculativeWorkers = 1;  // chains across threads only
  Clock::time_point t0 = Clock::now();
  {
    const Span span("core.sa.chain");
    (void)ides::runSimulatedAnnealing(*inst.evaluator, inst.initial, psa.base);
  }
  const double single = secondsSince(t0);
  t0 = Clock::now();
  {
    const Span span("core.psa.ensemble");
    (void)ides::runParallelAnnealing(*inst.evaluator, inst.initial, psa);
  }
  const double ensemble = secondsSince(t0);
  report.metric("core.psa.parallel_eff",
                (psa.restarts * single) / (psa.threads * ensemble), "ratio",
                static_cast<std::size_t>(psa.restarts));
}

/// SweepStore record writes and reads of one real outcome.
void probeStore(const Config& cfg, Report& report) {
  namespace fs = std::filesystem;
  const ides::InstanceSuite quality =
      ides::qualitySweep(ides::sweepScaleNamed("smoke"));
  const ides::BatchInstance& inst = quality.instances().front();
  const ides::InstanceOutcome outcome =
      ides::runBatchInstance(inst, nullptr);
  const std::string dir = cfg.workDir + "/probe-store";
  fs::remove_all(dir);
  ides::SweepStore store(dir);
  std::vector<double> write, read;
  for (int i = 0; i < 60; ++i) {
    char fp[40];
    std::snprintf(fp, sizeof(fp), "%032x", i + 1);
    Clock::time_point t0 = Clock::now();
    {
      const Span span("store.write");
      store.store(fp, quality.name(), inst.id, outcome);
    }
    write.push_back(msSince(t0));
    t0 = Clock::now();
    bool loaded = false;
    {
      const Span span("store.read");
      loaded = store.load(fp).has_value();
    }
    read.push_back(msSince(t0));
    if (!loaded) report.fail("store record " + std::string(fp) + " lost");
  }
  timed(report, "store.write_ms", write, "ms");
  timed(report, "store.read_ms", read, "ms");
  fs::remove_all(dir);
}

/// HTTP parse, route and render in-process over a JobManager, on the
/// requests the serve workload sends.
void probeServe(const Config& cfg, Report& report) {
  namespace fs = std::filesystem;
  const std::string dir = cfg.workDir + "/probe-serve";
  fs::remove_all(dir);
  ides::JobManagerOptions jobOptions;
  jobOptions.workers = 1;
  jobOptions.retainFinished = 0;
  jobOptions.storeDir = dir;
  ides::JobManager jobs(jobOptions);
  ides::ServeRuntime runtime{jobs, nullptr, dir};

  const std::string spec =
      "{\"type\": \"design\", \"strategy\": \"MH\", \"current\": 160, "
      "\"seed\": " + std::to_string(deriveSeed(cfg.seed, 14)) + "}";
  const auto raw = [](const std::string& method, const std::string& target,
                      const std::string& body) {
    std::string bytes = method + " " + target + " HTTP/1.1\r\nHost: x\r\n";
    if (!body.empty()) {
      bytes += "Content-Type: application/json\r\nContent-Length: " +
               std::to_string(body.size()) + "\r\n";
    }
    return bytes + "\r\n" + body;
  };
  std::vector<double> parse, render;
  std::map<std::string, std::vector<double>> route;
  const auto serveOne = [&](const std::string& endpoint,
                            const std::string& bytes) {
    ides::HttpRequest request;
    Clock::time_point t0 = Clock::now();
    {
      const Span span("serve.http.parse");
      if (ides::parseHttpRequest(bytes, request).status !=
          ides::HttpParseStatus::Done) {
        report.fail("probe request did not parse: " + endpoint);
      }
    }
    parse.push_back(us(t0));
    t0 = Clock::now();
    ides::HttpResponse response;
    {
      const Span span("serve.route." + endpoint);
      response = ides::routeRequest(runtime, request);
    }
    route[endpoint].push_back(us(t0));
    t0 = Clock::now();
    {
      const Span span("serve.http.render");
      (void)ides::renderHttpResponse(response);
    }
    render.push_back(us(t0));
    return response;
  };

  std::string id;
  for (int i = 0; i < 20; ++i) {
    serveOne("healthz", raw("GET", "/healthz", ""));
    serveOne("metrics", raw("GET", "/metrics", ""));
    const ides::HttpResponse submitted =
        serveOne("submit", raw("POST", "/jobs", spec));
    if (submitted.status != 202) {
      report.fail("probe submit answered " + std::to_string(submitted.status));
      continue;
    }
    id = ides::parseJson(submitted.body).stringAt("id");
  }
  while (jobs.queuedCount() + jobs.runningCount() > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  for (int i = 0; i < 20; ++i) {
    serveOne("status", raw("GET", "/jobs/" + id, ""));
    if (serveOne("result", raw("GET", "/jobs/" + id + "/result", "")).status !=
        200) {
      report.fail("probe result not served");
    }
  }
  timed(report, "serve.http.parse_us", parse, "us");
  timed(report, "serve.http.render_us", render, "us");
  for (const char* endpoint :
       {"healthz", "metrics", "submit", "status", "result"}) {
    timed(report, std::string("serve.route_us.") + endpoint, route[endpoint],
          "us");
  }
  jobs.drain();
  fs::remove_all(dir);
}

}  // namespace

void runLayerProbes(const Config& cfg, Report& report) {
  const std::size_t mark = spans().count();
  std::vector<std::unique_ptr<Instance>> built;
  for (int rep = 0; rep < 3; ++rep) {
    for (const std::size_t size : {160, 320}) {
      built.push_back(buildInstance(size, designSeed(0)));
    }
  }
  const auto spanMedian = [&](const std::string& metric,
                              const std::string& span) {
    timed(report, metric, spans().durationsMs(span, mark), "ms");
  };
  spanMedian("tgen.build_suite_ms", "tgen.build_suite");
  spanMedian("sched.freeze_ms", "sched.freeze");
  spanMedian("sched.initial_mapping_ms", "sched.initial_mapping");

  // The 320-process instance: the largest paper preset, where the
  // evaluation pipeline costs the most.
  const Instance& inst = *built.back();
  report.check(inst.usable, "probe instance is not schedulable");
  if (!inst.usable) return;
  probeEvaluationParts(inst, report);
  probeWalk(cfg, inst, report);
  const ides::MappingSolution annealed = probeAnnealing(cfg, inst, report);
  probeParallel(cfg, inst, report);

  {
    // Validation of the annealed design, frozen base included.
    ides::PlatformState state = inst.frozen->state;
    ides::ScheduleRequest req;
    req.graphs = inst.evaluator->currentGraphs();
    req.mapping = &annealed;
    req.priorities = &inst.evaluator->priorities();
    ides::Schedule all;
    all.merge(inst.frozen->schedule);
    all.merge(ides::scheduleGraphs(inst.suite.system, req, state).schedule);
    std::vector<ides::GraphId> graphs =
        inst.suite.system.graphsOfKind(ides::AppKind::Existing);
    for (const ides::GraphId g :
         inst.suite.system.graphsOfKind(ides::AppKind::Current)) {
      graphs.push_back(g);
    }
    std::vector<double> validate;
    for (int i = 0; i < 5; ++i) {
      const Clock::time_point t0 = Clock::now();
      bool ok = false;
      {
        const Span span("sched.validate");
        ok = ides::validateSchedule(inst.suite.system, all, graphs).ok();
      }
      validate.push_back(msSince(t0));
      if (i == 0) report.check(ok, "annealed design fails validation");
    }
    timed(report, "sched.validate_ms", validate, "ms");
  }

  probeStore(cfg, report);
  probeServe(cfg, report);

  std::vector<double> scrape;
  for (int i = 0; i < 20; ++i) {
    const Clock::time_point t0 = Clock::now();
    {
      const Span span("obs.scrape");
      (void)ides::telemetry().prometheusText();
    }
    scrape.push_back(msSince(t0));
  }
  timed(report, "obs.scrape_ms", scrape, "ms");
}

}  // namespace idesbench
