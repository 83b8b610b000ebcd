// serve — open loop at a fixed offered rate against an ides_serve daemon on
// loopback (--workers 2, fresh --store-dir), at most `cores` connections.
// A seeded mix of cheap reads, design submits that hit the pre-warmed
// design cache, and fresh-seed submits that miss it (the optimizer runs and
// the cache is written). Every submit is polled to its result; latency is
// timed from each arrival's due time. A closed-loop batch of design jobs on
// one connection after it measures how many jobs per second the daemon
// completes. No time is scaled to the machine's speed (see speed.h).
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <iterator>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "bench.h"
#include "serve/design_job.h"
#include "spans.h"
#include "stats.h"
#include "util/http_client.h"
#include "util/json_reader.h"
#include "util/rng.h"

namespace idesbench {

namespace {

/// Status polls of a submitted job back off from the first to the last
/// interval, so a cache hit resolves within a fraction of a millisecond and
/// a running job is not polled more than every 2 ms.
constexpr double kFirstPollMs = 0.25;
constexpr double kLastPollMs = 2.0;
/// MH jobs of the closed-loop phase after the open loop, and the first of
/// their generator seeds (clear of the pre-warmed specs and the misses).
constexpr std::size_t kClosedLoopJobs = 48;
constexpr std::uint64_t kClosedLoopSeedBase = 100000;
constexpr double kJobTimeoutSeconds = 60.0;
constexpr int kPrewarmedSpecs = 4;
constexpr int kMissSaIterations = 500;
constexpr std::size_t kMissCurrent = 160;

/// One ides_serve child process: started on an ephemeral port with its own
/// store and request log, stopped (SIGTERM, then SIGKILL) and reaped on
/// destruction.
class Daemon {
 public:
  Daemon(const std::string& binary, const std::string& dir) {
    int fds[2];
    if (pipe(fds) != 0) throw std::runtime_error("pipe failed");
    const std::string store = dir + "/store";
    const std::string log = dir + "/serve.log";
    std::vector<std::string> args{binary,        "--port",    "0",
                                  "--workers",   "2",         "--store-dir",
                                  store,         "--log",     log,
                                  "--retain-finished", "0"};
    std::vector<char*> argv;
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    // posix_spawn, not fork: this process may already run threads.
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
    posix_spawn_file_actions_addclose(&actions, fds[0]);
    posix_spawn_file_actions_addclose(&actions, fds[1]);
    const int rc = posix_spawn(&pid_, binary.c_str(), &actions, nullptr,
                               argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    close(fds[1]);
    if (rc != 0) {
      close(fds[0]);
      pid_ = -1;
      throw std::runtime_error("cannot start " + binary);
    }
    port_ = readPort(fds[0]);
    close(fds[0]);
    if (port_ <= 0) {
      stop();
      throw std::runtime_error("ides_serve did not report its port");
    }
  }
  ~Daemon() { stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  [[nodiscard]] ides::HttpUrl url() const {
    ides::HttpUrl u;
    u.host = "127.0.0.1";
    u.port = port_;
    return u;
  }

  /// Peak resident set of the daemon in MB, known once it has stopped.
  [[nodiscard]] double peakRssMb() const { return peakRssKb_ / 1024.0; }

  /// SIGTERM (graceful drain, up to 10 s), then SIGKILL; reaps the child.
  void stop() {
    if (pid_ <= 0) return;
    kill(pid_, SIGTERM);
    int status = 0;
    rusage usage{};
    for (int i = 0; i < 1000; ++i) {
      if (wait4(pid_, &status, WNOHANG, &usage) == pid_) {
        peakRssKb_ = static_cast<double>(usage.ru_maxrss);
        pid_ = -1;
        return;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    kill(pid_, SIGKILL);
    wait4(pid_, &status, 0, &usage);
    peakRssKb_ = static_cast<double>(usage.ru_maxrss);
    pid_ = -1;
  }

 private:
  static int readPort(int fd) {
    std::string out;
    const Clock::time_point t0 = Clock::now();
    while (out.find('\n') == std::string::npos && secondsSince(t0) < 20.0) {
      pollfd p{fd, POLLIN, 0};
      if (poll(&p, 1, 200) <= 0) continue;
      char buf[256];
      const ssize_t n = read(fd, buf, sizeof(buf));
      if (n <= 0) break;
      out.append(buf, static_cast<std::size_t>(n));
    }
    const std::size_t colon = out.rfind(':');
    return colon == std::string::npos ? -1 : std::atoi(out.c_str() + colon + 1);
  }

  pid_t pid_ = -1;
  int port_ = 0;
  double peakRssKb_ = 0.0;
};

std::string designBody(const ides::DesignJobSpec& spec) {
  std::string body = "{\"type\": \"design\", \"strategy\": \"" +
                     spec.strategy + "\", \"nodes\": " +
                     std::to_string(spec.nodes) + ", \"existing\": " +
                     std::to_string(spec.existing) + ", \"current\": " +
                     std::to_string(spec.current) + ", \"seed\": " +
                     std::to_string(spec.seed);
  if (spec.saIterations > 0) {
    body += ", \"sa_iters\": " + std::to_string(spec.saIterations);
  }
  return body + "}";
}

ides::DesignJobSpec missSpec(std::uint64_t seed, const std::string& strategy) {
  ides::DesignJobSpec spec;
  spec.current = kMissCurrent;
  spec.seed = seed;
  spec.strategy = strategy;
  if (strategy == "SA") spec.saIterations = kMissSaIterations;
  return spec;
}

/// HTTP calls of one run, with per-request client-side timing.
class Client {
 public:
  explicit Client(ides::HttpUrl url) : url_(std::move(url)) {
    options_.connectTimeoutSeconds = 10.0;
    options_.readTimeoutSeconds = 30.0;
  }

  ides::HttpClientResult call(const std::string& method,
                              const std::string& target,
                              const std::string& body = {}) {
    const Span span("serve.request");
    const Clock::time_point t0 = Clock::now();
    ides::HttpClientResult r =
        ides::httpRequest(url_, method, target, body, options_);
    const double ms = msSince(t0);
    const std::lock_guard<std::mutex> lock(mutex_);
    requestMs_.push_back(ms);
    return r;
  }

  /// Submit, poll to a terminal state, fetch the result. Returns the result
  /// body; `error` is set on any failure. `serverMs` receives the job's
  /// runtime as the daemon reports it, `idOut` the job id.
  std::string design(const std::string& body, std::string& error,
                     double& serverMs, std::string* idOut = nullptr) {
    const ides::HttpClientResult submit = call("POST", "/jobs", body);
    if (!submit.ok || submit.status != 202) {
      error = "submit: " + (submit.ok ? std::to_string(submit.status)
                                      : submit.error);
      return {};
    }
    std::string id;
    try {
      id = ides::parseJson(submit.body).stringAt("id");
    } catch (const std::exception& e) {
      error = std::string("submit body: ") + e.what();
      return {};
    }
    if (idOut != nullptr) *idOut = id;
    const Clock::time_point t0 = Clock::now();
    for (double pollMs = kFirstPollMs;;
         pollMs = std::min(2 * pollMs, kLastPollMs)) {
      const ides::HttpClientResult status = call("GET", "/jobs/" + id);
      if (!status.ok || status.status != 200) {
        error = "status: " + (status.ok ? std::to_string(status.status)
                                        : status.error);
        return {};
      }
      try {
        const ides::JsonValue s = ides::parseJson(status.body);
        const std::string& state = s.stringAt("state");
        if (state == "done") {
          serverMs = s.numberAt("runtime_seconds") * 1000.0;
          break;
        }
        if (state != "queued" && state != "running") {
          error = id + " ended " + state;
          return {};
        }
      } catch (const std::exception& e) {
        error = std::string("status body: ") + e.what();
        return {};
      }
      if (secondsSince(t0) > kJobTimeoutSeconds) {
        error = id + " timed out";
        return {};
      }
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(pollMs));
    }
    const ides::HttpClientResult result =
        call("GET", "/jobs/" + id + "/result");
    if (!result.ok || result.status != 200) {
      error = "result: " + (result.ok ? std::to_string(result.status)
                                      : result.error);
      return {};
    }
    return result.body;
  }

  [[nodiscard]] std::vector<double> requestMs() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return requestMs_;
  }

 private:
  ides::HttpUrl url_;
  ides::HttpClientOptions options_;
  mutable std::mutex mutex_;
  std::vector<double> requestMs_;
};

struct Arrival {
  enum class Kind { Healthz, Metrics, List, Status, Hit, Miss };
  Kind kind = Kind::Healthz;
  int hit = 0;           ///< pre-warmed spec index (Hit, Status)
  ides::DesignJobSpec miss;
};

/// The traffic mix, repeated every 20 arrivals: 8 reads (R), 6 cache hits
/// (H), 2 MH misses (M) and 4 SA misses (S), spread evenly so misses never
/// bunch up. Latency ranks R < H < M < S, so the median falls inside the
/// cache hits (ranks 8-13 of 20) and the 90th percentile inside the SA
/// misses (ranks 16-19), each away from a class boundary: a slower design
/// cache read moves op_p50_ms. The seed picks each read's endpoint and each
/// hit's spec.
std::vector<Arrival> trafficPlan(std::uint64_t seed, std::size_t count) {
  static constexpr char kPattern[] = "RHSRHMRSHRSHRMRHSRHR";
  ides::Rng rng(deriveSeed(seed, 5000));
  std::vector<Arrival> plan(count);
  for (std::size_t i = 0; i < count; ++i) {
    Arrival& a = plan[i];
    a.hit = static_cast<int>(rng.index(kPrewarmedSpecs));
    switch (kPattern[i % (sizeof(kPattern) - 1)]) {
      case 'R': {
        constexpr Arrival::Kind kReads[] = {
            Arrival::Kind::Healthz, Arrival::Kind::Healthz,
            Arrival::Kind::Metrics, Arrival::Kind::List,
            Arrival::Kind::Status};
        a.kind = kReads[rng.index(std::size(kReads))];
        break;
      }
      case 'H':
        a.kind = Arrival::Kind::Hit;
        break;
      default:
        // Fixed generator seeds, distinct per arrival and from the
        // pre-warmed specs: a miss's cost depends on its instance, and MH
        // cost varies widely between instances.
        a.kind = Arrival::Kind::Miss;
        a.miss = missSpec(1000 + i,
                          kPattern[i % (sizeof(kPattern) - 1)] == 'M' ? "MH"
                                                                      : "SA");
    }
  }
  return plan;
}

double prometheusValue(const std::string& text, const std::string& series) {
  const std::size_t at = text.find(series + " ");
  if (at == std::string::npos) return 0.0;
  return std::stod(text.substr(at + series.size() + 1));
}

/// Sum over every label set of one metric family's series `name`.
double prometheusSum(const std::string& text, const std::string& name) {
  double total = 0.0;
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.rfind(name + "{", 0) != 0 && line.rfind(name + " ", 0) != 0) {
      continue;
    }
    total += std::stod(line.substr(line.rfind(' ') + 1));
  }
  return total;
}

}  // namespace

void runServe(const Config& cfg, const ServePlan& plan, Report& report,
              OpLog& log) {
  namespace fs = std::filesystem;
  // The cache-hit specs are a fixed set (generator seeds 1..4): pre-warming
  // them is part of set-up, and one MH job's time varies widely between
  // instances, which would make set-up time depend on the run seed.
  std::vector<ides::DesignJobSpec> warmSpecs;
  for (int h = 0; h < kPrewarmedSpecs; ++h) {
    warmSpecs.push_back(missSpec(static_cast<std::uint64_t>(h + 1), "MH"));
  }

  // Set-up: start a daemon on a fresh store until /healthz answers 200,
  // then pre-warm the design cache. Repeated; the last daemon serves.
  std::unique_ptr<Daemon> daemon;
  std::vector<std::string> warmIds;
  std::vector<std::string> warmResults;
  for (int rep = 0; rep < plan.setups; ++rep) {
    daemon.reset();
    const std::string dir = cfg.workDir + "/serve-" + std::to_string(rep);
    fs::remove_all(dir);
    fs::create_directories(dir);
    const Clock::time_point t0 = Clock::now();
    daemon = std::make_unique<Daemon>(cfg.serveBinary, dir);
    Client client(daemon->url());
    bool healthy = false;
    while (!healthy && secondsSince(t0) < 20.0) {
      const ides::HttpClientResult r = client.call("GET", "/healthz");
      healthy = r.ok && r.status == 200;
      if (!healthy) std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    if (!healthy) throw std::runtime_error("ides_serve never became healthy");
    warmIds.clear();
    warmResults.clear();
    for (const ides::DesignJobSpec& spec : warmSpecs) {
      std::string error;
      double serverMs = 0.0;
      std::string id;
      warmResults.push_back(
          client.design(designBody(spec), error, serverMs, &id));
      if (!error.empty()) throw std::runtime_error("pre-warm: " + error);
      warmIds.push_back(id);
    }
    log.setupSeconds.push_back(secondsSince(t0));
  }

  const std::size_t count = static_cast<std::size_t>(kServeRate * plan.seconds);
  const std::vector<Arrival> arrivals = trafficPlan(cfg.seed, count);
  std::vector<double> dueMs(count);
  for (std::size_t i = 0; i < count; ++i) {
    dueMs[i] = 1000.0 * static_cast<double>(i) / kServeRate;
  }

  Client client(daemon->url());
  std::mutex mutex;  // guards the per-arrival outcome vectors below
  std::vector<std::string> errors(count);
  std::vector<std::string> results(count);
  std::vector<double> jobServerMs(count, -1.0);
  const auto execute = [&](std::size_t i) {
    const Arrival& a = arrivals[i];
    const Span span("serve.arrival");
    std::string error;
    std::string body;
    double serverMs = -1.0;
    try {
      switch (a.kind) {
        case Arrival::Kind::Healthz:
        case Arrival::Kind::Metrics:
        case Arrival::Kind::List:
        case Arrival::Kind::Status: {
          const std::string target =
              a.kind == Arrival::Kind::Healthz   ? "/healthz"
              : a.kind == Arrival::Kind::Metrics ? "/metrics"
              : a.kind == Arrival::Kind::List
                  ? "/jobs?limit=5"
                  : "/jobs/" + warmIds[static_cast<std::size_t>(a.hit)];
          const ides::HttpClientResult r = client.call("GET", target);
          if (!r.ok || r.status != 200) {
            error = target + ": " +
                    (r.ok ? std::to_string(r.status) : r.error);
          }
          break;
        }
        case Arrival::Kind::Hit:
          body = client.design(
              designBody(warmSpecs[static_cast<std::size_t>(a.hit)]), error,
              serverMs);
          if (error.empty() &&
              body != warmResults[static_cast<std::size_t>(a.hit)]) {
            error = "cache hit differs from the pre-warmed result";
          }
          break;
        case Arrival::Kind::Miss:
          body = client.design(designBody(a.miss), error, serverMs);
          break;
      }
    } catch (const std::exception& e) {
      error = e.what();
    }
    const std::lock_guard<std::mutex> lock(mutex);
    errors[i] = std::move(error);
    results[i] = std::move(body);
    jobServerMs[i] = serverMs;
  };

  const std::vector<OpenLoopSample> samples =
      runOpenLoop(dueMs, cfg.threads, execute);

  std::vector<double> jobWaitMs;
  for (std::size_t i = 0; i < count; ++i) {
    const Arrival& a = arrivals[i];
    report.attempt();
    if (!errors[i].empty()) {
      report.fail("arrival " + std::to_string(i) + ": " + errors[i]);
      continue;
    }
    const bool miss = a.kind == Arrival::Kind::Miss;
    log.record("a" + std::to_string(i), miss ? a.miss.strategy : "",
               samples[i].latencyMs);
    if (jobServerMs[i] >= 0.0) {
      jobWaitMs.push_back(samples[i].latencyMs - jobServerMs[i]);
    }
    if (miss) {
      try {
        log.objectives.push_back(
            ides::parseJson(results[i]).numberAt("objective"));
      } catch (const std::exception& e) {
        report.fail("arrival " + std::to_string(i) + ": " + e.what());
      }
    }
  }

  // Closed loop, one connection: a fixed batch of MH design submits that
  // miss the cache, each submitted once the last one's result is in. An
  // open loop completes what it is offered, so this is the throughput
  // figure the daemon can move: HTTP, queue, optimizer and cache write on
  // every job's path. One connection, because work on several threads at
  // once times the VM's contention: with 2 or 4 connections keeping both
  // workers busy, jobs per second spread 23-26% between runs, and a closed
  // loop of status reads 17-36%.
  Client closedLoopClient(daemon->url());
  const Clock::time_point closedLoopStart = Clock::now();
  for (std::size_t k = 0; k < kClosedLoopJobs; ++k) {
    std::string error;
    double serverMs = 0.0;
    (void)closedLoopClient.design(
        designBody(missSpec(kClosedLoopSeedBase + k, "MH")), error, serverMs);
    report.check(error.empty(), "closed-loop job: " + error);
    if (error.empty()) ++log.roundOps;
  }
  log.roundSeconds = secondsSince(closedLoopStart);

  // Generator lateness, and whether the backlog grew: lateness over the
  // last quarter of the run against the first.
  std::vector<double> late;
  for (const OpenLoopSample& s : samples) late.push_back(s.lateMs);
  const std::size_t q = count / 4;
  const std::vector<double> firstQ(late.begin(), late.begin() + q);
  const std::vector<double> lastQ(late.end() - q, late.end());
  const bool grew = median(lastQ) > median(firstQ) + 5.0;
  char line[200];
  std::snprintf(line, sizeof(line),
                "offered %.0f/s: generator lateness p50 %.2f ms, p99 %.2f ms; "
                "backlog %s (first/last quarter median %.2f/%.2f ms)",
                kServeRate, median(late), quantile(late, 0.99),
                grew ? "GREW" : "steady", median(firstQ), median(lastQ));
  report.note(line);

  // Sampled daemon results against the in-process runDesignJob bytes.
  int sampled = 0;
  for (std::size_t i = 0; i < count && sampled < 4; ++i) {
    if (arrivals[i].kind != Arrival::Kind::Miss || results[i].empty()) continue;
    ides::RunContext context;
    const std::string local =
        ides::designResultJson(ides::runDesignJob(arrivals[i].miss, context));
    report.check(local == results[i],
                 "daemon result of arrival " + std::to_string(i) +
                     " differs from the in-process run");
    ++sampled;
  }
  {
    ides::RunContext context;
    report.check(ides::designResultJson(ides::runDesignJob(warmSpecs[0],
                                                           context)) ==
                     warmResults[0],
                 "pre-warmed daemon result differs from the in-process run");
  }

  const std::string metricsText = client.call("GET", "/metrics").body;
  daemon->stop();
  log.peakRssMb = daemon->peakRssMb();
  daemon.reset();

  if (!spans().enabled()) return;
  // Mean server time from the daemon's request histogram, whose sums are
  // exact; its request log keeps 0.1 ms, too coarse for a percentile of
  // sub-millisecond requests.
  const double served =
      prometheusSum(metricsText, "ides_serve_request_seconds_count");
  const double serverMean =
      Ratio{prometheusSum(metricsText, "ides_serve_request_seconds_sum"),
            served}
          .value() *
      1000.0;
  const std::vector<double> clientMs = client.requestMs();
  double clientMean = 0.0;
  for (const double ms : clientMs) clientMean += ms;
  clientMean /= static_cast<double>(std::max<std::size_t>(clientMs.size(), 1));
  report.metric("serve.server_ms", serverMean, "ms",
                static_cast<std::size_t>(served));
  report.metric("serve.wait_ms", clientMean - serverMean, "ms",
                clientMs.size());
  report.metric("serve.jobs.wait_ms", median(jobWaitMs), "ms",
                jobWaitMs.size());
  report.metric("serve.gen_late_ms", quantile(late, 0.99), "ms", late.size());
  const double hits = prometheusValue(
      metricsText, "ides_serve_design_cache_total{result=\"hit\"}");
  const double misses = prometheusValue(
      metricsText, "ides_serve_design_cache_total{result=\"miss\"}");
  report.metric("store.design_cache_hit_ratio",
                Ratio{hits, hits + misses}.value(), "ratio",
                static_cast<std::size_t>(hits + misses));
  report.metric("store.design_cache_lookups", hits + misses, "count",
                static_cast<std::size_t>(hits + misses));
}

}  // namespace idesbench
