// ides_cli — command-line driver for the library.
//
// Subcommands:
//   stats    [--nodes N --existing E --current C --seed S]
//            generate a suite and print its statistics report
//   design   [--strategy NAME] [--sa-iters N] [--restarts K] [--threads T]
//            [--spec-workers W] [--deadline S] [suite flags]
//            run one strategy, print metrics and validation
//   schedule [--out FILE] [suite flags]
//            run MH and dump the merged schedule (CSV form, stdout or file)
//   dot      [suite flags]
//            emit the current application's process graphs as Graphviz DOT
//   sweep    --suite NAME [--shards N] [--deadline S] [--scale SCALE]
//            [--store-dir DIR [--resume]] [--no-timing] [--cancel-after N]
//            run a paper sweep through the sharded BatchRunner, write
//            BENCH_sweep_<NAME>.json (IDES_BENCH_JSON_DIR) and print the
//            sweep's figure: table, CSV block, ASCII chart, shape check.
//            With a store dir, completed instances persist as
//            content-addressed records; --resume skips instances whose
//            records already exist.
//   sweep --serve DIR  --suite NAME [--scale SCALE] [--lease-seconds S]
//            coordinate a cross-process sweep over a shared directory:
//            publish the work manifest, participate in running instances,
//            merge the records into the canonical BENCH json and print the
//            figure
//   sweep --worker DIR [--lease-seconds S]
//            join a served sweep: claim instances through file leases, run
//            them, write records; exits when the sweep is complete
//   sweep --worker http://HOST:PORT/KEY [--lease-seconds S]
//            join a sweep coordinated by ides_serve over HTTP: claims,
//            renewals and records travel the network instead of a shared
//            mount; exits nonzero with a reason when the coordinator
//            vanishes (after capped-backoff retries)
//   store <ls|verify> --store-dir DIR
//            read-only audit of a sweep store: ls lists records
//            (fingerprint, suite, instance, strategy, age), verify checks
//            schema + fingerprint per record and reports the quarantine;
//            both count tmp files; verify exits 1 when a record is bad
//   store gc --store-dir DIR [--epoch N] [--older-than AGE] [--apply]
//            reap quarantined records and orphaned tmp writes over an
//            hour old (always) plus records superseded by an epoch bump
//            or older than AGE (s/m/h/d suffix); dry run unless --apply;
//            never touches records named by a live manifest.json in the
//            store
//   lifecycle (--scenario FILE | --gen [--seed N] [--steps K])
//            [--policy warm|cold] [--strategy NAME] [--sa-iters N]
//            [--step-deadline S] [--scenario-out FILE] [--json]
//            [--no-timing] [--out FILE]
//            replay a lifecycle scenario (long-horizon stream of add /
//            remove / re-spec / perturb events), re-optimizing after every
//            event under the chosen start policy; --gen generates the
//            scenario from --seed/--steps, --scenario-out saves it for
//            sharing, --json prints the report JSON (deterministic with
//            --no-timing and no --step-deadline)
//   list-strategies
//            print the strategy names (also --list-strategies)
//
// Every command that takes --strategy runs it through runStrategy, so any
// name in strategyNames() works; unknown names list the valid set. All flags
// have defaults; every run is deterministic for a given --seed (and for a
// sweep, for any --shards value).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <iterator>
#include <stdexcept>
#include <string>

#include <chrono>
#include <thread>

#include "core/batch_runner.h"
#include "core/batch_suites.h"
#include "core/incremental_designer.h"
#include "lifecycle/lifecycle_runner.h"
#include "model/dot_export.h"
#include "model/model_io.h"
#include "model/system_stats.h"
#include "obs/telemetry.h"
#include "sched/schedule_io.h"
#include "sched/validate.h"
#include "serve/design_job.h"
#include "store/remote_queue.h"
#include "store/store_audit.h"
#include "store/store_gc.h"
#include "store/sweep_store.h"
#include "store/work_queue.h"
#include "tgen/benchmark_suite.h"
#include "tgen/profile_presets.h"
#include "util/log.h"
#include "util/parse_number.h"
#include "util/provenance.h"
#include "util/stop_token.h"

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

namespace {

using namespace ides;

struct CliArgs {
  std::string command;
  std::string action;  // store: "ls" | "verify"
  std::size_t nodes = 10;
  std::size_t existing = 400;
  std::size_t current = 160;
  std::uint64_t seed = 1;
  std::string strategy = "MH";
  int saIterations = 0;  // 0 = SaOptions default
  int threads = 0;       // PSA: 0 = hardware concurrency
  int restarts = 4;      // PSA: chains
  int specWorkers = 0;   // SA: speculative eval workers (0 = off; PSA: auto)
  bool listStrategies = false;
  std::string suiteName;   // sweep: which paper sweep to run
  std::string scaleName;   // sweep: scale name (empty = "default")
  int shards = 0;          // sweep: 0 = all cores
  double deadlineSeconds = 0.0;  // 0 = no deadline
  std::string storeDir;    // sweep: persistent record store (write-through)
  bool resume = false;     // sweep: also REUSE store records (skip done)
  std::string serveDir;    // sweep: coordinate a cross-process run here
  std::string workerDir;   // sweep: join the cross-process run here
  double leaseSeconds = 600.0;   // claim lease duration (serve/worker)
  bool jsonOutput = false; // design: deterministic result JSON on stdout
  bool noTiming = false;   // deterministic BENCH json (no wall-clock)
  std::int64_t gcEpoch = -1;   // store gc: reap records below this epoch
  std::string olderThan;       // store gc: age threshold ("3600", "2h", ...)
  bool apply = false;          // store gc: actually delete (else dry run)
  int cancelAfter = 0;     // testing aid: request stop after N instances
  bool genScenario = false;      // lifecycle: generate instead of loading
  std::string scenarioFile;      // lifecycle: scenario JSON to replay
  std::string scenarioOut;       // lifecycle: save the scenario JSON here
  int steps = 0;                 // lifecycle --gen: events (0 = default 50)
  double stepDeadlineSeconds = 0.0;  // lifecycle: per-step budget (0 = off)
  std::string policyName = "warm";   // lifecycle: warm | cold
  bool telemetryDump = false;  // print the telemetry snapshot to stderr
  std::string logLevel;        // log threshold flag; wins over IDES_LOG
  std::string outFile;
  std::string modelFile;  // load a hand-written model instead of generating
  Time tmin = 0;          // profile for --model runs (0 = hyperperiod / 4)
  Time tneed = 0;
  std::int64_t bneed = 0;
};

void usage() {
  std::puts(
      "usage: ides_cli <stats|design|schedule|dot|sweep|store|lifecycle|"
      "list-strategies> [options]\n"
      "  --nodes N      architecture size        (default 10)\n"
      "  --existing E   existing processes       (default 400)\n"
      "  --current C    current-app processes    (default 160)\n"
      "  --seed S       generator seed           (default 1)\n"
      "  --strategy X   strategy name            (default MH;\n"
      "                 see --list-strategies)\n"
      "  --sa-iters N   SA iterations (per chain for PSA)\n"
      "  --restarts K   PSA chains               (default 4)\n"
      "  --threads T    PSA threads, 0 = all cores (default 0)\n"
      "  --spec-workers W  speculative eval workers per SA chain\n"
      "                 (SA default 1 = off; PSA default 0 = auto split)\n"
      "  --deadline S   cooperative wall-clock budget in seconds; the run\n"
      "                 stops early with its best solution so far\n"
      "  --json         design: print the deterministic result JSON (the\n"
      "                 exact bytes ides_serve returns for the same job)\n"
      "  --suite NAME   sweep to run: quality | runtime | future |\n"
      "                 weights | increments\n"
      "  --shards N     sweep worker threads, 0 = all cores (default 0),\n"
      "                 at most 256; results are bit-identical for every\n"
      "                 value\n"
      "  --scale NAME   sweep scale smoke | default | full\n"
      "                 (default: default)\n"
      "  --store-dir D  persist completed sweep instances as records in D\n"
      "                 (also: the directory store ls/verify audits)\n"
      "  --resume       with --store-dir: skip instances whose records\n"
      "                 already exist (resume a cancelled sweep)\n"
      "  --serve D      coordinate a cross-process sweep over directory D\n"
      "                 (publishes the manifest, participates, merges)\n"
      "  --worker D     join the sweep served at directory D, or at an\n"
      "                 ides_serve coordinator (http://HOST:PORT/KEY)\n"
      "  --lease-seconds S  claim lease duration for serve/worker, in\n"
      "                 (0, 1e6] (default 600; renewal heartbeats keep a\n"
      "                 live worker's claim fresh, so slow instances are\n"
      "                 safe)\n"
      "  --epoch N      store gc: reap records below fingerprint epoch N\n"
      "  --older-than AGE  store gc: reap records older than AGE\n"
      "                 (seconds, or s/m/h/d suffix: 2h, 30m, 7d)\n"
      "  --apply        store gc: delete (without it, dry run only)\n"
      "  --no-timing    render BENCH json without wall-clock fields\n"
      "                 (byte-identical across runs/workers/resume)\n"
      "  --cancel-after N  request stop after N completed instances\n"
      "                 (deterministic cancellation for resume tests)\n"
      "  --scenario F   lifecycle: replay the scenario JSON in file F\n"
      "  --gen          lifecycle: generate the scenario from --seed and\n"
      "                 --steps instead of loading one\n"
      "  --steps K      lifecycle --gen: number of events (default 50)\n"
      "  --policy P     lifecycle start policy: warm | cold (default warm)\n"
      "  --step-deadline S  lifecycle: per-step wall-clock budget in\n"
      "                 seconds (0 = off; non-deterministic when it fires)\n"
      "  --scenario-out F  lifecycle: also write the scenario JSON to F\n"
      "  --list-strategies  print the strategy names\n"
      "  --log-level L  log threshold debug|info|warn|error|off (wins\n"
      "                 over the IDES_LOG environment variable)\n"
      "  --telemetry-dump  after the command, print the process telemetry\n"
      "                 snapshot (JSON) to stderr; counters never affect\n"
      "                 results\n"
      "  --out FILE     write schedule to FILE   (schedule command)\n"
      "  --model FILE   load an 'ides model v1' file instead of generating\n"
      "  --tmin T --tneed T --bneed B  future profile for --model runs");
}

/// Numeric flag values parse strictly (util/parse_number.h): a bad one is
/// reported by name and fails the parse, so main exits 2.
bool parse(int argc, char** argv, CliArgs& args) try {
  if (argc < 2) return false;
  args.command = argv[1];
  int i = 2;
  // Positional sub-action (store ls / store verify).
  if (i < argc && argv[i][0] != '-') {
    args.action = argv[i];
    ++i;
  }
  while (i < argc) {
    const std::string flag = argv[i];
    // Valueless flags first.
    if (flag == "--json") {
      args.jsonOutput = true;
      ++i;
      continue;
    }
    if (flag == "--list-strategies") {
      args.listStrategies = true;
      ++i;
      continue;
    }
    if (flag == "--resume") {
      args.resume = true;
      ++i;
      continue;
    }
    if (flag == "--no-timing") {
      args.noTiming = true;
      ++i;
      continue;
    }
    if (flag == "--apply") {
      args.apply = true;
      ++i;
      continue;
    }
    if (flag == "--gen") {
      args.genScenario = true;
      ++i;
      continue;
    }
    if (flag == "--telemetry-dump") {
      args.telemetryDump = true;
      ++i;
      continue;
    }
    if (i + 1 >= argc) {
      std::fprintf(stderr, "flag %s needs a value\n", flag.c_str());
      return false;
    }
    const std::string value = argv[i + 1];
    i += 2;
    if (flag == "--nodes") {
      args.nodes = parseNumber<std::size_t>(flag, value, 1);
    } else if (flag == "--existing") {
      args.existing = parseNumber<std::size_t>(flag, value);
    } else if (flag == "--current") {
      args.current = parseNumber<std::size_t>(flag, value);
    } else if (flag == "--seed") {
      args.seed = parseNumber<std::uint64_t>(flag, value);
    } else if (flag == "--strategy") {
      args.strategy = value;
    } else if (flag == "--sa-iters") {
      args.saIterations = parseNumber(flag, value, 0);
    } else if (flag == "--restarts") {
      args.restarts = parseNumber(flag, value, 0);
    } else if (flag == "--threads") {
      args.threads = parseNumber(flag, value, 0);
    } else if (flag == "--spec-workers") {
      args.specWorkers = parseNumber(flag, value, 0);
    } else if (flag == "--suite") {
      args.suiteName = value;
    } else if (flag == "--shards") {
      args.shards = parseNumber(flag, value, 0, kMaxAnnealingThreads);
    } else if (flag == "--scale") {
      args.scaleName = value;
    } else if (flag == "--store-dir") {
      args.storeDir = value;
    } else if (flag == "--serve") {
      args.serveDir = value;
    } else if (flag == "--worker") {
      args.workerDir = value;
    } else if (flag == "--lease-seconds") {
      args.leaseSeconds = parseNumber(flag, value, 0.0, kMaxLeaseSeconds);
      if (args.leaseSeconds == 0.0) {
        throw std::invalid_argument(flag + ": must be > 0");
      }
    } else if (flag == "--cancel-after") {
      args.cancelAfter = parseNumber(flag, value, 0);
    } else if (flag == "--epoch") {
      args.gcEpoch = parseNumber<std::int64_t>(flag, value, 0);
    } else if (flag == "--older-than") {
      args.olderThan = value;
    } else if (flag == "--deadline") {
      args.deadlineSeconds = parseNumber(flag, value, 0.0);
    } else if (flag == "--scenario") {
      args.scenarioFile = value;
    } else if (flag == "--scenario-out") {
      args.scenarioOut = value;
    } else if (flag == "--steps") {
      args.steps = parseNumber(flag, value, 0);
    } else if (flag == "--policy") {
      args.policyName = value;
    } else if (flag == "--log-level") {
      if (parseLogLevel(value, LogLevel::Off) == LogLevel::Off &&
          value != "off") {
        std::fprintf(stderr,
                     "--log-level %s: expected debug|info|warn|error|off\n",
                     value.c_str());
        return false;
      }
      args.logLevel = value;
    } else if (flag == "--step-deadline") {
      args.stepDeadlineSeconds = parseNumber(flag, value, 0.0);
    } else if (flag == "--out") {
      args.outFile = value;
    } else if (flag == "--model") {
      args.modelFile = value;
    } else if (flag == "--tmin") {
      args.tmin = parseNumber<Time>(flag, value, 0);
    } else if (flag == "--tneed") {
      args.tneed = parseNumber<Time>(flag, value, 0);
    } else if (flag == "--bneed") {
      args.bneed = parseNumber<std::int64_t>(flag, value, 0);
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", flag.c_str());
      return false;
    }
  }
  return true;
} catch (const std::invalid_argument& e) {
  std::fprintf(stderr, "%s\n", e.what());
  return false;
}

Suite makeSuite(const CliArgs& args) {
  if (!args.modelFile.empty()) {
    std::ifstream in(args.modelFile);
    if (!in) {
      throw std::invalid_argument("cannot open model file " +
                                  args.modelFile);
    }
    Suite suite{readModel(in), FutureProfile{}, args.seed, 1};
    const Time tmin =
        args.tmin > 0 ? args.tmin : std::max<Time>(1,
                                                   suite.system.hyperperiod() /
                                                       4);
    suite.profile = paperFutureProfile(
        tmin, args.tneed > 0 ? args.tneed : tmin / 4,
        args.bneed > 0 ? args.bneed : 64);
    return suite;
  }
  SuiteConfig cfg;
  cfg.nodeCount = args.nodes;
  cfg.existingProcesses = args.existing;
  cfg.currentProcesses = args.current;
  cfg.tneedOverride = 12000;
  std::fprintf(stderr, "generating suite (seed %llu)...\n",
               static_cast<unsigned long long>(args.seed));
  return buildSuite(cfg, args.seed);
}

/// The design flags as the daemon's job spec; designJobOptions maps it to
/// DesignerOptions for every command, so the CLI and the daemon agree.
DesignJobSpec designSpec(const CliArgs& args) {
  DesignJobSpec spec;
  spec.nodes = args.nodes;
  spec.existing = args.existing;
  spec.current = args.current;
  spec.seed = args.seed;
  spec.strategy = args.strategy;
  spec.saIterations = args.saIterations;
  spec.restarts = args.restarts;
  spec.threads = args.threads;
  spec.specWorkers = args.specWorkers;
  return spec;
}

int cmdListStrategies() {
  for (const std::string& name : strategyNames()) {
    std::printf("%s\n", name.c_str());
  }
  return 0;
}

int cmdStats(const CliArgs& args) {
  const Suite suite = makeSuite(args);
  std::fputs(statsReport(suite.system).c_str(), stdout);
  std::printf("future profile: Tmin=%lld tneed=%lld bneed=%lldB\n",
              static_cast<long long>(suite.profile.tmin),
              static_cast<long long>(suite.profile.tneed),
              static_cast<long long>(suite.profile.bneedBytes));
  return 0;
}

/// The --strategy run with the optional --deadline stop token.
RunReport runWithDeadline(IncrementalDesigner& designer,
                          const CliArgs& args) {
  StopToken stop;
  RunContext context;
  if (args.deadlineSeconds > 0.0) {
    stop.setTimeout(args.deadlineSeconds);
    context.stop = &stop;
  }
  return designer.run(args.strategy, context);
}

/// --json: the daemon-identical path. Spec -> shared runDesignJob ->
/// deterministic JSON, so `ides_cli design --json` and a GET
/// /jobs/<id>/result for the same spec diff byte-equal (serve-e2e).
int cmdDesignJson(const CliArgs& args) {
  if (!args.modelFile.empty()) {
    std::fprintf(stderr, "--json supports generated suites only\n");
    return 2;
  }
  StopToken stop;
  RunContext context;
  if (args.deadlineSeconds > 0.0) {
    stop.setTimeout(args.deadlineSeconds);
    context.stop = &stop;
  }
  const DesignJobResult result = runDesignJob(designSpec(args), context);
  std::fputs(designResultJson(result, /*timing=*/false).c_str(), stdout);
  return result.validationOk && result.result.feasible ? 0 : 1;
}

int cmdDesign(const CliArgs& args) {
  if (args.jsonOutput) return cmdDesignJson(args);
  const Suite suite = makeSuite(args);
  IncrementalDesigner designer(suite.system, suite.profile,
                               designJobOptions(designSpec(args)));
  const RunReport r = runWithDeadline(designer, args);
  std::printf("strategy: %s\nfeasible: %s\nobjective C: %.2f\n",
              r.strategy.c_str(), r.feasible ? "yes" : "no",
              r.objective);
  if (r.stopped) std::puts("stopped: deadline/cancellation hit");
  std::printf("metrics: C1P=%.2f%% C1m=%.2f%% C2P=%lld C2m=%lldB\n",
              r.metrics.c1p, r.metrics.c1m,
              static_cast<long long>(r.metrics.c2p),
              static_cast<long long>(r.metrics.c2mBytes));
  std::printf("evaluations: %zu  runtime: %.3fs\n", r.evaluations,
              r.seconds);

  const ValidationReport report = designer.validate(r);
  std::printf("validation: %s\n", report.ok() ? "ok" : "FAILED");
  if (!report.ok()) std::fputs(report.summary().c_str(), stdout);
  return report.ok() && r.feasible ? 0 : 1;
}

int cmdSchedule(const CliArgs& args) {
  const Suite suite = makeSuite(args);
  IncrementalDesigner designer(suite.system, suite.profile,
                               designJobOptions(designSpec(args)));
  const RunReport r = runWithDeadline(designer, args);
  if (!r.feasible) {
    std::fputs("no feasible design\n", stderr);
    return 1;
  }
  Schedule all;
  all.merge(designer.frozenSchedule());
  all.merge(r.schedule);
  if (args.outFile.empty()) {
    writeSchedule(std::cout, suite.system, all);
  } else {
    std::ofstream out(args.outFile);
    if (!out) {
      std::fprintf(stderr, "cannot open %s\n", args.outFile.c_str());
      return 1;
    }
    writeSchedule(out, suite.system, all);
    std::fprintf(stderr, "schedule written to %s\n", args.outFile.c_str());
  }
  return 0;
}

int cmdDot(const CliArgs& args) {
  const Suite suite = makeSuite(args);
  DotOptions opts;
  opts.application = suite.system.applicationsOfKind(AppKind::Current)
                         .front();
  writeDot(std::cout, suite.system, opts);
  return 0;
}

/// --older-than AGE: plain seconds or an s/m/h/d-suffixed count.
/// Throws std::invalid_argument on junk.
double parseAgeSeconds(const std::string& text) {
  if (text.empty()) throw std::invalid_argument("--older-than: empty age");
  double multiplier = 1.0;
  std::string number = text;
  switch (number.back()) {
    case 'd': multiplier *= 24.0; [[fallthrough]];
    case 'h': multiplier *= 60.0; [[fallthrough]];
    case 'm': multiplier *= 60.0; [[fallthrough]];
    case 's': number.pop_back(); break;
    default: break;
  }
  std::size_t used = 0;
  double value = 0.0;
  try {
    value = std::stod(number, &used);
  } catch (const std::exception&) {
    used = std::string::npos;
  }
  if (used != number.size() || value < 0.0) {
    throw std::invalid_argument("--older-than: bad age \"" + text +
                                "\" (want seconds or s/m/h/d suffix)");
  }
  return value * multiplier;
}

/// The store's reaper (`store gc`): dry run unless --apply; see
/// store/store_gc.h for the exact predicates and manifest protection.
int cmdStoreGc(const CliArgs& args) {
  StoreGcOptions options;
  options.apply = args.apply;
  options.epoch = args.gcEpoch;
  if (!args.olderThan.empty()) {
    options.olderThanSeconds = parseAgeSeconds(args.olderThan);
  }
  const StoreGcReport report = gcSweepStore(args.storeDir, options);
  std::fputs(storeGcText(report, options).c_str(), stdout);
  return 0;
}

/// Store maintenance (`store ls` / `store verify` / `store gc`). ls and
/// verify never mutate the store, so they are safe against a directory
/// live workers are filling; gc deletes only with --apply and never
/// touches records a live manifest references.
int cmdStore(const CliArgs& args) {
  if (args.action != "ls" && args.action != "verify" &&
      args.action != "gc") {
    std::fprintf(stderr,
                 "usage: ides_cli store <ls|verify|gc> --store-dir D\n");
    return 2;
  }
  if (args.storeDir.empty()) {
    std::fprintf(stderr, "store %s needs --store-dir DIR\n",
                 args.action.c_str());
    return 2;
  }
  if (args.action == "gc") return cmdStoreGc(args);
  const StoreAuditReport report = auditSweepStore(args.storeDir);
  if (args.action == "ls") {
    std::fputs(storeLsText(report).c_str(), stdout);
    return 0;
  }
  std::fputs(storeVerifyText(report).c_str(), stdout);
  // verify is the CI-able health check: anything bad fails the command.
  return report.badCount == 0 ? 0 : 1;
}

/// lifecycle: replay a scenario (loaded or generated), re-optimizing after
/// every event under the chosen start policy. Deterministic whenever the
/// per-step deadline is off and --no-timing renders the JSON.
int cmdLifecycle(const CliArgs& args) {
  if (args.scenarioFile.empty() == !args.genScenario) {
    std::fprintf(stderr,
                 "lifecycle needs exactly one of --scenario FILE or --gen\n");
    return 2;
  }

  LifecycleScenario scenario;
  if (!args.scenarioFile.empty()) {
    std::ifstream in(args.scenarioFile, std::ios::binary);
    if (!in) {
      std::fprintf(stderr, "cannot open %s\n", args.scenarioFile.c_str());
      return 1;
    }
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    scenario = parseScenario(text);
  } else {
    ScenarioConfig config;
    config.seed = args.seed;
    if (args.steps > 0) config.steps = args.steps;
    scenario = generateScenario(config);
  }
  if (!args.scenarioOut.empty()) {
    std::ofstream out(args.scenarioOut, std::ios::binary);
    if (!out) {
      std::fprintf(stderr, "cannot open %s\n", args.scenarioOut.c_str());
      return 1;
    }
    out << scenarioJson(scenario);
    std::fprintf(stderr, "scenario written to %s\n",
                 args.scenarioOut.c_str());
  }

  LifecycleOptions options;
  options.strategy = args.strategy;
  options.policy = startPolicyFromString(args.policyName);
  options.designer = designJobOptions(designSpec(args));
  options.stepDeadlineSeconds = args.stepDeadlineSeconds;
  StopToken stop;
  if (args.deadlineSeconds > 0.0) {
    stop.setTimeout(args.deadlineSeconds);
    options.stop = &stop;
  }

  std::fprintf(stderr, "lifecycle: %d events, strategy=%s, policy=%s\n",
               scenario.config.steps, options.strategy.c_str(),
               toString(options.policy));
  const LifecycleReport report = runLifecycle(scenario, options);

  const std::string json = lifecycleReportJson(report, !args.noTiming);
  if (args.jsonOutput) {
    std::fputs(json.c_str(), stdout);
  } else {
    for (const LifecycleStep& step : report.steps) {
      std::printf("  [%3d] %-16s live=%zu/%zu %s C=%.2f%s\n", step.step,
                  toString(step.event), step.liveGraphs, step.liveProcesses,
                  step.warmStart ? "warm" : "cold",
                  step.cost, step.feasible ? "" : " [infeasible]");
    }
    std::printf(
        "steps: %zu  feasible: %zu  warm starts: %zu  median C: %.2f  "
        "runtime: %.3fs%s\n",
        report.steps.size(), report.feasibleSteps, report.warmStarts,
        report.medianCost, report.totalSeconds,
        report.stopped ? " (stopped)" : "");
  }
  if (!args.outFile.empty()) {
    std::ofstream out(args.outFile, std::ios::binary);
    if (!out) {
      std::fprintf(stderr, "cannot open %s\n", args.outFile.c_str());
      return 1;
    }
    out << json;
    std::fprintf(stderr, "report written to %s\n", args.outFile.c_str());
  }
  return report.feasibleSteps > 0 ? 0 : 1;
}

/// This process's participant name in lease files: host + pid.
std::string workerName() {
  std::string name = buildProvenance().hostname;
#if defined(__unix__) || defined(__APPLE__)
  // += instead of chained + : avoids GCC's bogus -Wrestrict (PR105651).
  name += ':';
  name += std::to_string(static_cast<long>(getpid()));
#endif
  return name;
}

void printInstanceDone(const InstanceResult& r) {
  if (r.cached) {
    std::printf("  [%s] from store\n", r.id.c_str());
  } else if (r.outcome.hasReport) {
    std::printf("  [%s] C=%.2f (%.3fs)%s\n", r.id.c_str(),
                r.outcome.report.objective, r.outcome.report.seconds,
                r.outcome.report.stopped ? " [stopped]" : "");
  } else {
    std::printf("  [%s] done\n", r.id.c_str());
  }
}

/// The sweep's scale: --scale, or the default scale.
SweepScale sweepScaleOf(const CliArgs& args) {
  return sweepScaleNamed(args.scaleName.empty() ? "default" : args.scaleName);
}

/// Renders and publishes BENCH_sweep_<suite>.json, then prints the sweep's
/// figure; 0 on success.
int publishSweep(const std::string& suiteArg, const BatchReport& report,
                 const SweepScale& scale, bool noTiming) {
  BatchJsonOptions json;
  json.scale = scale.name;
  json.timing = !noTiming;
  const std::string name = "sweep_" + suiteArg;
  if (!writeBenchJsonFile(name, batchReportJson(name, report, json))) {
    std::fprintf(stderr, "cannot write %s\n", benchJsonPath(name).c_str());
    return 1;
  }
  std::printf("machine-readable results: %s\n",
              benchJsonPath(name).c_str());
  std::fputs(sweepFigure(suiteArg, report).c_str(), stdout);
  return 0;
}

/// The single-process path (optionally store-backed and resumable).
int cmdSweep(const CliArgs& args) {
  if (args.suiteName.empty()) {
    std::string known;
    for (const std::string& n : sweepNames()) {
      known += known.empty() ? n : ", " + n;
    }
    std::fprintf(stderr, "sweep needs --suite NAME (available: %s)\n",
                 known.c_str());
    return 2;
  }
  if (args.resume && args.storeDir.empty()) {
    std::fprintf(stderr, "--resume needs --store-dir DIR\n");
    return 2;
  }
  const SweepScale scale = sweepScaleOf(args);
  const InstanceSuite suite = namedSweep(args.suiteName, scale);
  std::printf("sweep %s: %zu instances, scale=%s, shards=%s\n",
              suite.name().c_str(), suite.size(), scale.name.c_str(),
              args.shards > 0 ? std::to_string(args.shards).c_str()
                              : "all cores");

  StopToken stop;
  BatchOptions options;
  options.shards = args.shards;
  if (args.deadlineSeconds > 0.0) {
    stop.setTimeout(args.deadlineSeconds);
    options.stop = &stop;
  }
  // --cancel-after must be able to fire even without --deadline, so the
  // token is wired in up front; onInstanceDone is serialized across shards.
  if (args.cancelAfter > 0) options.stop = &stop;
  std::size_t done = 0;
  options.onInstanceDone = [&](const InstanceResult& r) {
    printInstanceDone(r);
    if (args.cancelAfter > 0 &&
        ++done >= static_cast<std::size_t>(args.cancelAfter)) {
      stop.requestStop();
    }
  };

  std::optional<SweepStore> store;
  std::optional<SweepStoreCache> cache;
  if (!args.storeDir.empty()) {
    store.emplace(args.storeDir);
    cache.emplace(*store, suite.name(), args.resume);
    options.cache = &*cache;
  }

  const BatchReport report = runBatch(suite, options);
  std::printf("completed %zu/%zu instances", report.completed,
              report.results.size());
  if (report.cacheHits > 0) {
    std::printf(" (%zu from store)", report.cacheHits);
  }
  std::printf("%s\n", report.stopped ? " (stopped)" : "");

  return publishSweep(args.suiteName, report, scale, args.noTiming);
}

/// Flags of the single-process path that the serve/worker modes do not
/// honor; silently ignoring them would misrepresent what ran.
int rejectUnsupportedQueueFlags(const CliArgs& args, const char* mode) {
  const char* offending = nullptr;
  if (args.shards != 0) {
    offending = "--shards (one claim at a time; start more workers instead)";
  }
  if (!args.storeDir.empty()) {
    offending = "--store-dir (the serve/worker directory IS the store)";
  }
  if (args.resume) {
    offending = "--resume (a served sweep always reuses its records)";
  }
  if (args.cancelAfter > 0) offending = "--cancel-after";
  if (!args.serveDir.empty() && !args.workerDir.empty()) {
    offending = "--serve together with --worker";
  }
  if (offending != nullptr) {
    std::fprintf(stderr, "sweep %s does not support %s\n", mode, offending);
    return 2;
  }
  return 0;
}

/// Coordinator: publish the manifest, participate in the queue, wait for
/// all records, merge in canonical order.
int cmdSweepServe(const CliArgs& args) {
  if (const int rc = rejectUnsupportedQueueFlags(args, "--serve")) return rc;
  if (args.suiteName.empty()) {
    std::fprintf(stderr, "sweep --serve needs --suite NAME\n");
    return 2;
  }
  const SweepScale scale = sweepScaleOf(args);
  const InstanceSuite suite = namedSweep(args.suiteName, scale);
  SweepStore store(args.serveDir);
  WorkQueue queue(args.serveDir, workerName(), args.leaseSeconds);
  queue.clearStop();  // a sentinel from a previous cancelled run is stale
  const SweepManifest manifest = makeManifest(args.suiteName, scale, suite);
  writeManifest(args.serveDir, manifest);
  std::printf(
      "serving sweep %s at %s: %zu instances, scale=%s\n"
      "join with: ides_cli sweep --worker %s\n",
      suite.name().c_str(), args.serveDir.c_str(), suite.size(),
      scale.name.c_str(), args.serveDir.c_str());

  StopToken stop;
  if (args.deadlineSeconds > 0.0) stop.setTimeout(args.deadlineSeconds);

  const auto onDone = [](const WorkItem& item, const InstanceOutcome&) {
    std::printf("  [%s] done (this process)\n", item.id.c_str());
  };
  bool stopped = false;
  while (true) {
    const QueueRunStats stats =
        runQueuedInstances(suite, manifest, store, queue, &stop, onDone);
    if (stats.stopped || stop.stopRequested()) {
      stopped = true;
      queue.requestStop();  // tell the workers to wind down too
      break;
    }
    if (queue.allDone(store, manifest)) break;
    // Peers hold live leases; wait for their records (or lease expiry).
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
  }

  BatchReport report = reportFromStore(suite, store);
  report.stopped = report.stopped || stopped;
  std::printf("merged %zu/%zu records from %s%s\n", report.completed,
              report.results.size(), args.serveDir.c_str(),
              report.stopped ? " (stopped)" : "");
  return publishSweep(args.suiteName, report, scale, args.noTiming);
}

/// The worker loop of both transports: claim and run instances until the
/// sweep is complete (exit 0), a stop lands (exit 0) or the transport
/// fails (exit 1 with the reason).
int runSweepWorker(const InstanceSuite& suite, SweepParticipant& participant,
                   const StopToken& stop) {
  std::size_t executed = 0;
  const auto onDone = [&](const WorkItem& item, const InstanceOutcome&) {
    std::printf("  [%s] done\n", item.id.c_str());
    ++executed;
  };
  while (true) {
    const QueueRunStats stats =
        runSweepParticipant(suite, participant, &stop, onDone);
    if (stats.failed) {
      std::fprintf(stderr, "worker giving up: %s\n", stats.error.c_str());
      return 1;
    }
    if (stats.stopped || stop.stopRequested() ||
        participant.stopRequested()) {
      std::printf("worker stopping (%zu instances executed)\n", executed);
      return 0;
    }
    if (participant.allDone()) break;
    if (participant.failed()) {
      std::fprintf(stderr, "worker giving up: %s\n",
                   participant.failureReason().c_str());
      return 1;
    }
    // Peers hold live leases; poll until their records land.
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
  }
  std::printf("sweep complete (%zu instances executed here)\n", executed);
  return 0;
}

/// HTTP worker: join a sweep coordinated by ides_serve. Claims, renewals
/// and records travel the network, and a vanished coordinator ends the
/// worker nonzero with a printed reason instead of hanging.
int cmdSweepWorkerHttp(const CliArgs& args) {
  if (const int rc = rejectUnsupportedQueueFlags(args, "--worker")) return rc;
  if (!args.suiteName.empty() || !args.scaleName.empty()) {
    std::fprintf(stderr,
                 "sweep --worker reads the suite and scale from the served "
                 "manifest; drop --suite/--scale\n");
    return 2;
  }
  StopToken stop;
  if (args.deadlineSeconds > 0.0) stop.setTimeout(args.deadlineSeconds);

  RemoteWorkQueue remote(args.workerDir, workerName(), args.leaseSeconds);
  const std::optional<SweepManifest> manifest =
      remote.fetchManifest(/*waitSeconds=*/30.0, &stop);
  if (!manifest.has_value()) {
    if (remote.failed()) {
      std::fprintf(stderr, "%s\n", remote.failureReason().c_str());
    }
    return 1;
  }
  const InstanceSuite suite = suiteFromManifest(*manifest);
  std::printf("worker %s joined sweep %s at %s (%zu instances)\n",
              remote.workerId().c_str(), suite.name().c_str(),
              args.workerDir.c_str(), suite.size());
  return runSweepWorker(suite, remote, stop);
}

/// Worker: wait for the manifest, rebuild + verify the suite, then claim
/// and run instances until the sweep is complete (or a stop lands).
int cmdSweepWorker(const CliArgs& args) {
  if (const int rc = rejectUnsupportedQueueFlags(args, "--worker")) return rc;
  if (!args.suiteName.empty() || !args.scaleName.empty()) {
    std::fprintf(stderr,
                 "sweep --worker reads the suite and scale from the served "
                 "manifest; drop --suite/--scale\n");
    return 2;
  }
  std::optional<SweepManifest> manifest;
  // The coordinator may not have published yet; poll briefly.
  for (int attempt = 0; attempt < 150; ++attempt) {
    manifest = readManifest(args.workerDir);
    if (manifest.has_value()) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
  }
  if (!manifest.has_value()) {
    std::fprintf(stderr, "no manifest at %s (is a --serve running?)\n",
                 args.workerDir.c_str());
    return 1;
  }
  const InstanceSuite suite = suiteFromManifest(*manifest);
  SweepStore store(args.workerDir);
  WorkQueue queue(args.workerDir, workerName(), args.leaseSeconds);
  std::printf("worker %s joined sweep %s (%zu instances)\n",
              queue.workerId().c_str(), suite.name().c_str(), suite.size());

  StopToken stop;
  if (args.deadlineSeconds > 0.0) stop.setTimeout(args.deadlineSeconds);
  FileSweepParticipant participant(suite, *manifest, store, queue);
  return runSweepWorker(suite, participant, stop);
}

}  // namespace

namespace {

int dispatch(const CliArgs& args) {
  if (args.listStrategies || args.command == "list-strategies") {
    return cmdListStrategies();
  }
  if (args.command == "stats") return cmdStats(args);
  if (args.command == "design") return cmdDesign(args);
  if (args.command == "schedule") return cmdSchedule(args);
  if (args.command == "dot") return cmdDot(args);
  if (args.command == "store") return cmdStore(args);
  if (args.command == "lifecycle") return cmdLifecycle(args);
  if (args.command == "sweep") {
    if (args.workerDir.rfind("http://", 0) == 0) {
      return cmdSweepWorkerHttp(args);
    }
    if (!args.workerDir.empty()) return cmdSweepWorker(args);
    if (!args.serveDir.empty()) return cmdSweepServe(args);
    return cmdSweep(args);
  }
  usage();
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  CliArgs args;
  try {
    if (!parse(argc, argv, args)) {
      usage();
      return 2;
    }
    // The flag wins over IDES_LOG (the threshold's env default).
    if (!args.logLevel.empty()) {
      setLogThreshold(parseLogLevel(args.logLevel, LogLevel::Warn));
    }
    const int rc = dispatch(args);
    // To stderr so it composes with --json (results stay alone on stdout).
    if (args.telemetryDump) {
      std::fprintf(stderr, "%s\n", telemetry().jsonSnapshot().c_str());
    }
    return rc;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
