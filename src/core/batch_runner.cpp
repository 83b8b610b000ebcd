#include "core/batch_runner.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "core/incremental_designer.h"
#include "util/json_reader.h"
#include "util/provenance.h"

namespace ides {

InstanceOutcome runBatchInstance(const BatchInstance& instance,
                                 const StopToken* stop,
                                 const ProgressSink& progress) {
  if (instance.job) return instance.job(instance, stop);

  // The standard instance job: generate the suite, run the named strategy
  // through the designer, append probe extras.
  const Suite suite = buildSuite(instance.config, instance.suiteSeed);
  IncrementalDesigner designer(suite.system, suite.profile, instance.options);

  // A fresh context per instance: its evaluation context must not outlive
  // this instance's evaluator.
  RunContext context;
  context.stop = stop;
  context.progress = progress;

  InstanceOutcome outcome;
  outcome.report = designer.run(instance.strategy, context);
  if (instance.probe) instance.probe(designer, outcome.report, outcome.extras);
  return outcome;
}

BatchReport runBatch(const InstanceSuite& suite, const BatchOptions& options) {
  if (options.shards < 0 || options.shards > kMaxAnnealingThreads) {
    throw std::invalid_argument(
        "BatchOptions: shards must lie in [0, " +
        std::to_string(kMaxAnnealingThreads) + "] (got " +
        std::to_string(options.shards) + ")");
  }
  unsigned shards = options.shards > 0
                        ? static_cast<unsigned>(options.shards)
                        : std::thread::hardware_concurrency();
  if (shards == 0) shards = 1;
  const std::size_t count = suite.size();
  if (count > 0 && static_cast<std::size_t>(shards) > count) {
    shards = static_cast<unsigned>(count);
  }

  BatchReport report;
  report.suiteName = suite.name();
  report.results.resize(count);
  for (std::size_t i = 0; i < count; ++i) {
    InstanceResult& slot = report.results[i];
    const BatchInstance& instance = suite.instances()[i];
    slot.index = i;
    slot.id = instance.id;
    slot.group = instance.group;
    slot.axis = instance.axis;
    slot.seedIndex = instance.seedIndex;
    slot.suiteSeed = instance.suiteSeed;
  }

  // Shard workers claim instances through the atomic counter; slot i of
  // `results` is written only by the worker that claimed instance i, so the
  // aggregate is in canonical order no matter which shard ran what.
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> completed{0};
  std::atomic<std::size_t> cacheHits{0};
  std::mutex doneMutex;  // serializes onInstanceDone across shards
  std::vector<std::exception_ptr> errors(shards);

  auto worker = [&](unsigned shard) {
    try {
      while (true) {
        if (options.stop != nullptr && options.stop->stopRequested()) break;
        const std::size_t i =
            next.fetch_add(1, std::memory_order_relaxed);
        if (i >= count) break;
        const BatchInstance& instance = suite.instances()[i];
        InstanceResult& slot = report.results[i];
        if (options.cache != nullptr &&
            options.cache->lookup(instance, slot.outcome)) {
          slot.cached = true;
          cacheHits.fetch_add(1, std::memory_order_relaxed);
        } else {
          slot.outcome = runBatchInstance(instance, options.stop);
          if (options.cache != nullptr) {
            options.cache->store(instance, slot.outcome);
          }
        }
        slot.ran = true;
        completed.fetch_add(1, std::memory_order_relaxed);
        if (options.onInstanceDone) {
          const std::lock_guard<std::mutex> lock(doneMutex);
          options.onInstanceDone(slot);
        }
      }
    } catch (...) {
      errors[shard] = std::current_exception();
    }
  };

  if (shards <= 1) {
    worker(0);
  } else {
    std::vector<std::thread> pool;
    pool.reserve(shards);
    try {
      for (unsigned s = 0; s < shards; ++s) pool.emplace_back(worker, s);
    } catch (...) {
      // A shard failed to start: hand out no further instances, let the
      // started shards finish the one they hold, then report the failure
      // instead of destroying joinable threads.
      next.store(count, std::memory_order_relaxed);
      for (std::thread& t : pool) t.join();
      throw;
    }
    for (std::thread& t : pool) t.join();
  }

  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }

  report.completed = completed.load(std::memory_order_relaxed);
  report.cacheHits = cacheHits.load(std::memory_order_relaxed);
  report.stopped = options.stop != nullptr && options.stop->stopRequested();
  return report;
}

namespace {

void appendField(std::string& out, bool& first, const std::string& key,
                 const std::string& rendered) {
  if (!first) out += ", ";
  first = false;
  out += '"';
  out += key;
  out += "\": ";
  out += rendered;
}

std::string num(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", value);
  return buf;
}

std::string num(long long value) { return std::to_string(value); }

}  // namespace

std::string batchReportJson(const std::string& benchName,
                            const BatchReport& report,
                            const BatchJsonOptions& options) {
  // Header provenance (git SHA, host, compiler) is deliberately NOT keyed
  // on run shape: two runs of the same build on the same machine render the
  // same header regardless of shard count, worker count or cache hits, so
  // the deterministic (timing=false) rendering still diffs byte-clean.
  const Provenance& prov = buildProvenance();
  std::string out = "{\n  \"bench\": " + jsonQuote(benchName) +
                    ",\n  \"scale\": " + jsonQuote(options.scale) +
                    ",\n  \"suite\": " + jsonQuote(report.suiteName) +
                    ",\n  \"git_sha\": " + jsonQuote(prov.gitSha) +
                    ",\n  \"hostname\": " + jsonQuote(prov.hostname) +
                    ",\n  \"hardware_concurrency\": " +
                    num(static_cast<long long>(prov.hardwareConcurrency)) +
                    ",\n  \"compiler\": " + jsonQuote(prov.compiler) +
                    ",\n  \"instances\": " +
                    num(static_cast<long long>(report.results.size())) +
                    ",\n  \"completed\": " +
                    num(static_cast<long long>(report.completed)) +
                    ",\n  \"stopped\": " +
                    (report.stopped ? "true" : "false") +
                    ",\n  \"results\": [";
  bool firstRecord = true;
  for (const InstanceResult& r : report.results) {
    if (!r.ran) continue;
    out += firstRecord ? "\n    {" : ",\n    {";
    firstRecord = false;
    bool first = true;
    // Record layout mirrors BenchJson: flat key/value pairs, %.6g doubles,
    // identity fields first, then the report, extras, and timing last (so
    // the deterministic prefix is stable with timing on or off).
    const InstanceOutcome& o = r.outcome;
    appendField(out, first, "id", jsonQuote(r.id));
    appendField(out, first, "group", jsonQuote(r.group));
    appendField(out, first, "axis", num(r.axis));
    appendField(out, first, "seed",
                num(static_cast<long long>(r.seedIndex)));
    appendField(out, first, "suite_seed",
                num(static_cast<long long>(r.suiteSeed)));
    if (o.hasReport) {
      const RunReport& rep = o.report;
      appendField(out, first, "strategy", jsonQuote(rep.strategy));
      appendField(out, first, "feasible",
                  num(static_cast<long long>(rep.feasible ? 1 : 0)));
      appendField(out, first, "objective", num(rep.objective));
      appendField(out, first, "C1P_pct", num(rep.metrics.c1p));
      appendField(out, first, "C1m_pct", num(rep.metrics.c1m));
      appendField(out, first, "C2P_ticks",
                  num(static_cast<long long>(rep.metrics.c2p)));
      appendField(out, first, "C2m_bytes",
                  num(static_cast<long long>(rep.metrics.c2mBytes)));
      appendField(out, first, "evaluations",
                  num(static_cast<long long>(rep.evaluations)));
      appendField(out, first, "run_stopped",
                  num(static_cast<long long>(rep.stopped ? 1 : 0)));
    }
    for (const auto& [key, value] : o.extras.fields) {
      appendField(out, first, key, num(value));
    }
    if (options.timing && o.hasReport) {
      appendField(out, first, "seconds", num(o.report.seconds));
    }
    out += "}";
  }
  out += "\n  ]\n}\n";
  return out;
}

std::string benchJsonPath(const std::string& name) {
  const char* dir = std::getenv("IDES_BENCH_JSON_DIR");
  std::string path;
  if (dir != nullptr && *dir != '\0') {
    path = dir;
    path += '/';
  }
  path += "BENCH_";
  path += name;
  path += ".json";
  return path;
}

bool writeBenchJsonFile(const std::string& name, const std::string& payload) {
  std::ofstream out(benchJsonPath(name));
  if (!out) return false;
  out << payload;
  return true;
}

namespace {

/// Lookup key of (group, seed, strategy); '\n' never appears in the parts.
std::string indexKey(const std::string& group, int seed,
                     const std::string& strategy) {
  std::string key = group;
  key += '\n';
  key += std::to_string(seed);
  key += '\n';
  key += strategy;
  return key;
}

}  // namespace

BatchIndex::BatchIndex(const BatchReport& report) {
  for (const InstanceResult& r : report.results) {
    if (!r.ran) continue;
    // emplace keeps the first entry per key — canonical order wins, exactly
    // like the linear scan this index replaces.
    if (r.outcome.hasReport) {
      byKey_.emplace(indexKey(r.group, r.seedIndex, r.outcome.report.strategy),
                     &r);
    }
    byKey_.emplace(indexKey(r.group, r.seedIndex, ""), &r);
  }
}

const InstanceResult* BatchIndex::find(const std::string& group, int seed,
                                       const std::string& strategy) const {
  const auto it = byKey_.find(indexKey(group, seed, strategy));
  return it == byKey_.end() ? nullptr : it->second;
}

}  // namespace ides
