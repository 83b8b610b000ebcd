#include "serve/daemon.h"

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "obs/telemetry.h"
#include "util/json_reader.h"
#include "util/log.h"
#include "util/parse_number.h"

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

namespace ides {

namespace {

/// Applies one key/value pair shared by the flag and config paths.
bool applyOption(std::string_view key, const std::string& value,
                 ServeOptions& options, std::string& error) {
  try {
    if (key == "bind") {
      options.bindAddress = value;
    } else if (key == "port") {
      options.port = parseNumber<int>(key, value);
      if (options.port < 0 || options.port > 65535) {
        error = "port out of range: " + value;
        return false;
      }
    } else if (key == "workers") {
      options.workers = parseNumber<int>(key, value);
      if (options.workers < 1 || options.workers > kMaxAnnealingThreads) {
        error = "workers must lie in [1, " +
                std::to_string(kMaxAnnealingThreads) + "]";
        return false;
      }
    } else if (key == "max-queued") {
      const int queued = parseNumber<int>(key, value);
      if (queued < 1) {
        error = "max-queued must be >= 1";
        return false;
      }
      options.maxQueued = static_cast<std::size_t>(queued);
    } else if (key == "retain-finished") {
      options.retainFinished = parseNumber<int>(key, value);
      if (options.retainFinished < 0) {
        error = "retain-finished must be >= 0";
        return false;
      }
    } else if (key == "store-dir") {
      options.storeDir = value;
    } else if (key == "pidfile") {
      options.pidFile = value;
    } else if (key == "log") {
      options.logFile = value;
    } else if (key == "log-level") {
      if (parseLogLevel(value, LogLevel::Off) == LogLevel::Off &&
          value != "off") {
        error = "log-level must be debug|info|warn|error|off, got \"" +
                value + "\"";
        return false;
      }
      options.logLevel = value;
    } else {
      error = "unknown option \"" + std::string(key) + "\"";
      return false;
    }
  } catch (const std::exception& e) {
    error = std::string("bad value for ") + e.what();
    return false;
  }
  return true;
}

}  // namespace

bool parseServeConfig(std::string_view text, ServeOptions& options,
                      std::string& error) {
  std::istringstream in{std::string(text)};
  std::string line;
  int lineNo = 0;
  while (std::getline(in, line)) {
    ++lineNo;
    // Strip comments, then surrounding whitespace.
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    const std::size_t begin = line.find_first_not_of(" \t\r");
    if (begin == std::string::npos) continue;
    const std::size_t end = line.find_last_not_of(" \t\r");
    line = line.substr(begin, end - begin + 1);

    // `key value` or `key=value`.
    std::size_t split = line.find_first_of(" \t=");
    if (split == std::string::npos) {
      error = "config line " + std::to_string(lineNo) +
              ": expected \"key value\"";
      return false;
    }
    const std::string key = line.substr(0, split);
    split = line.find_first_not_of(" \t=", split);
    if (split == std::string::npos) {
      error = "config line " + std::to_string(lineNo) + ": missing value";
      return false;
    }
    if (!applyOption(key, line.substr(split), options, error)) {
      error = "config line " + std::to_string(lineNo) + ": " + error;
      return false;
    }
  }
  return true;
}

const char* serveUsage() {
  return
      "usage: ides_serve [options]\n"
      "  --bind ADDR      listen address            (default 127.0.0.1)\n"
      "  --port N         listen port, 0 = ephemeral (default 8080)\n"
      "  --workers N      job worker threads, 1-256 (default 2)\n"
      "  --max-queued N   admission limit on waiting jobs (default 32)\n"
      "  --retain-finished N  terminal jobs kept in the registry; older\n"
      "                   ones are evicted, 0 = keep all (default 256)\n"
      "  --store-dir D    sweep store: content-addressed result cache\n"
      "                   (identical sweep jobs answer from records)\n"
      "  --pidfile FILE   write the pid; refuses an existing file\n"
      "  --log FILE       request/event log          (default stderr)\n"
      "  --log-level L    debug|info|warn|error|off; wins over IDES_LOG\n"
      "                   (default: IDES_LOG, else warn)\n"
      "  --config FILE    `key value` per line, keys = flag names\n"
      "                   without --; explicit flags override it\n"
      "  --help           this text\n"
      "\n"
      "Signals: SIGINT/SIGTERM drain gracefully — stop accepting, cancel\n"
      "queued jobs, fire running jobs' stop tokens, exit 0.\n";
}

bool parseServeOptions(int argc, char** argv, ServeOptions& options,
                       std::string& error, bool& helpRequested) {
  helpRequested = false;

  // First pass: --help and --config (config applies before other flags).
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (flag == "--help" || flag == "-h") {
      helpRequested = true;
      return true;
    }
    if (flag == "--config") {
      if (i + 1 >= argc) {
        error = "--config needs a value";
        return false;
      }
      std::ifstream in(argv[i + 1]);
      if (!in) {
        error = std::string("cannot open config file ") + argv[i + 1];
        return false;
      }
      std::ostringstream buffer;
      buffer << in.rdbuf();
      if (!parseServeConfig(buffer.str(), options, error)) {
        error = std::string(argv[i + 1]) + ": " + error;
        return false;
      }
    }
  }

  // Second pass: every flag; explicit flags win over the config file.
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (i + 1 >= argc) {
      error = "flag " + std::string(flag) + " needs a value";
      return false;
    }
    const std::string value = argv[i + 1];
    ++i;
    if (flag == "--config") continue;  // already applied
    if (flag.size() < 3 || flag.substr(0, 2) != "--") {
      error = "unknown argument \"" + std::string(flag) + "\"";
      return false;
    }
    if (!applyOption(flag.substr(2), value, options, error)) return false;
  }
  return true;
}

bool writePidFile(const std::string& path, std::string& error) {
  if (std::filesystem::exists(path)) {
    error = "pidfile " + path +
            " already exists (another instance running, or a stale file "
            "from a crash — remove it to proceed)";
    return false;
  }
  std::ofstream out(path);
  if (!out) {
    error = "cannot write pidfile " + path;
    return false;
  }
#if defined(__unix__) || defined(__APPLE__)
  out << static_cast<long>(getpid()) << '\n';
#else
  out << 0 << '\n';
#endif
  return static_cast<bool>(out);
}

void removePidFile(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove(path, ec);
}

namespace {

HttpResponse jsonResponse(int status, std::string body) {
  return HttpResponse{status, "application/json", std::move(body)};
}

HttpResponse errorResponse(int status, const std::string& message) {
  return jsonResponse(status,
                      "{\"error\": " + jsonQuote(message) + "}\n");
}

/// GET /jobs pagination parameters, parsed strictly from the query
/// string: unknown keys and malformed values are client errors, same
/// policy as the JSON bodies.
struct ListQuery {
  std::size_t limit = 0;  ///< 0 = no limit
  std::string after;      ///< empty = from the first retained job
  std::string error;      ///< non-empty = answer 400 with this reason
};

ListQuery parseListQuery(std::string_view query) {
  ListQuery out;
  while (!query.empty()) {
    const std::size_t amp = query.find('&');
    const std::string_view pair = query.substr(0, amp);
    query = amp == std::string_view::npos ? std::string_view{}
                                          : query.substr(amp + 1);
    if (pair.empty()) continue;
    const std::size_t eq = pair.find('=');
    const std::string_view key = pair.substr(0, eq);
    const std::string_view value =
        eq == std::string_view::npos ? std::string_view{}
                                     : pair.substr(eq + 1);
    if (key == "limit") {
      if (value.empty() || value.size() > 9 ||
          value.find_first_not_of("0123456789") != std::string_view::npos) {
        out.error = "limit must be a non-negative integer";
        return out;
      }
      out.limit = static_cast<std::size_t>(
          std::stoul(std::string(value)));
    } else if (key == "after") {
      if (!parseJobIdNumber(value).has_value()) {
        out.error = "after must be a job id (\"job-<n>\")";
        return out;
      }
      out.after = std::string(value);
    } else {
      out.error = "unknown query parameter \"" + std::string(key) +
                  "\" (available: limit, after)";
      return out;
    }
  }
  return out;
}

/// healthz store probe: a full write-read round-trip under the store dir.
/// "none" when no store is configured, "unreachable" when the filesystem
/// refuses the write or reads back the wrong bytes (full disk, lost mount,
/// permissions, silent corruption) — the signal a load balancer drains on.
/// The probe file is removed on every path, success or failure, so a sick
/// round-trip never leaves `.healthz.probe` debris; `probeMs` reports the
/// round-trip latency for the healthz JSON.
std::string storeHealth(const std::string& storeDir, double& probeMs) {
  probeMs = 0.0;
  if (storeDir.empty()) return "none";
  using Clock = std::chrono::steady_clock;
  const Clock::time_point begin = Clock::now();
  const std::string probe =
      (std::filesystem::path(storeDir) / ".healthz.probe").string();
  bool healthy = false;
  {
    std::ofstream out(probe, std::ios::trunc | std::ios::binary);
    if (out) {
      out << "probe\n";
      out.flush();
      healthy = static_cast<bool>(out);
    }
  }
  if (healthy) {
    std::ifstream in(probe, std::ios::binary);
    std::string readBack;
    healthy = static_cast<bool>(in) &&
              static_cast<bool>(std::getline(in, readBack)) &&
              readBack == "probe";
  }
  std::error_code ec;
  std::filesystem::remove(probe, ec);
  probeMs = std::chrono::duration<double, std::milli>(Clock::now() - begin)
                .count();
  return healthy ? "ok" : "unreachable";
}

std::string sweepStatusJson(const std::string& key,
                            const CoordinatorSweepStatus& status) {
  return "{\"key\": " + jsonQuote(key) +
         ", \"total\": " + std::to_string(status.total) +
         ", \"recorded\": " + std::to_string(status.recorded) +
         ", \"leased\": " + std::to_string(status.leased) +
         std::string(", \"done\": ") + (status.done ? "true" : "false") +
         "}";
}

/// Coordinator errors: an unknown sweep key is a 404, every other
/// std::invalid_argument (bad key, spec conflict, foreign fingerprint) is
/// the client's 400.
HttpResponse coordinatorError(const std::invalid_argument& e) {
  const std::string what = e.what();
  const int status = what.rfind("no such sweep", 0) == 0 ? 404 : 400;
  return errorResponse(status, what);
}

HttpResponse routeSweeps(ServeRuntime& runtime,
                         const HttpRequest& request) {
  if (runtime.sweeps == nullptr) {
    return errorResponse(
        503, "no sweep store configured (start ides_serve with --store-dir)");
  }
  SweepCoordinator& sweeps = *runtime.sweeps;
  const std::string& path = request.path;

  if (path == "/sweeps") {
    if (request.method != "GET") {
      return errorResponse(405, "use GET on /sweeps (register with POST "
                                "/sweeps/<key>)");
    }
    std::string body = "{\"sweeps\": [";
    bool first = true;
    for (const std::string& key : sweeps.keys()) {
      body += first ? "\n  " : ",\n  ";
      first = false;
      body += sweepStatusJson(key, sweeps.status(key));
    }
    body += first ? "]}\n" : "\n]}\n";
    return jsonResponse(200, std::move(body));
  }

  // /sweeps/<key>[/<action>]
  std::string key = path.substr(8);
  std::string action;
  const std::size_t slash = key.find('/');
  if (slash != std::string::npos) {
    action = key.substr(slash + 1);
    key.erase(slash);
  }
  if (!validSweepKey(key)) {
    return errorResponse(400,
                         "sweep key must be non-empty [A-Za-z0-9._-]+");
  }

  try {
    if (action.empty()) {
      if (request.method == "POST") {
        const JsonValue spec = parseJson(request.body);
        const std::string scale =
            spec.find("scale") != nullptr ? spec.stringAt("scale")
                                          : std::string("default");
        sweeps.create(key, spec.stringAt("sweep"), scale);
        return jsonResponse(
            200, sweepStatusJson(key, sweeps.status(key)) + "\n");
      }
      if (request.method != "GET") {
        return errorResponse(405, "use GET or POST on /sweeps/<key>");
      }
      return jsonResponse(200,
                          sweepStatusJson(key, sweeps.status(key)) + "\n");
    }

    if (action == "manifest") {
      if (request.method != "GET") {
        return errorResponse(405, "use GET on /sweeps/<key>/manifest");
      }
      return jsonResponse(200, sweeps.manifestText(key));
    }

    if (action == "result") {
      if (request.method != "GET") {
        return errorResponse(405, "use GET on /sweeps/<key>/result");
      }
      const std::optional<std::string> result = sweeps.resultJson(key);
      if (!result.has_value()) {
        return errorResponse(409, "sweep " + key +
                                      " is not complete yet; a result "
                                      "exists once every record is in");
      }
      return jsonResponse(200, *result);
    }

    // The remaining actions are worker POSTs with JSON bodies.
    if (request.method != "POST") {
      return errorResponse(405, "use POST on /sweeps/<key>/" + action);
    }
    const JsonValue body = parseJson(request.body);

    if (action == "claim") {
      const double lease = body.find("lease_seconds") != nullptr
                               ? body.numberAt("lease_seconds")
                               : 600.0;
      const CoordinatorClaim claim =
          sweeps.claim(key, body.stringAt("worker"), lease);
      switch (claim.kind) {
        case CoordinatorClaim::Kind::Done:
          return jsonResponse(200, "{\"done\": true}\n");
        case CoordinatorClaim::Kind::Wait:
          return jsonResponse(200, "{\"wait\": true}\n");
        case CoordinatorClaim::Kind::Claimed:
          break;
      }
      return jsonResponse(
          200, "{\"claimed\": {\"index\": " +
                   std::to_string(claim.item.index) +
                   ", \"id\": " + jsonQuote(claim.item.id) +
                   ", \"fingerprint\": " +
                   jsonQuote(claim.item.fingerprint) + "}}\n");
    }
    if (action == "renew") {
      const bool renewed = sweeps.renew(key, body.stringAt("worker"),
                                        body.stringAt("fingerprint"));
      return jsonResponse(200, std::string("{\"renewed\": ") +
                                   (renewed ? "true" : "false") + "}\n");
    }
    if (action == "release") {
      sweeps.release(key, body.stringAt("worker"),
                     body.stringAt("fingerprint"));
      return jsonResponse(200, "{\"released\": true}\n");
    }
    if (action == "complete") {
      bool stored = false;
      try {
        stored = sweeps.complete(key, body.stringAt("worker"),
                                 body.stringAt("fingerprint"),
                                 body.stringAt("record"));
      } catch (const std::runtime_error& e) {
        return errorResponse(400, e.what());  // invalid record document
      }
      return jsonResponse(200, std::string("{\"stored\": ") +
                                   (stored ? "true" : "false") + "}\n");
    }
    return errorResponse(404, "no such endpoint");
  } catch (const std::invalid_argument& e) {
    return coordinatorError(e);
  } catch (const std::runtime_error& e) {
    // parseJson and the typed accessors throw runtime_error on malformed
    // request bodies — the client's fault, not ours.
    return errorResponse(400, e.what());
  }
}

}  // namespace

HttpResponse routeRequest(ServeRuntime& runtime,
                          const HttpRequest& request) {
  JobManager& jobs = runtime.jobs;
  const std::string& path = request.path;

  if (path == "/healthz") {
    if (request.method != "GET") {
      return errorResponse(405, "use GET on /healthz");
    }
    double probeMs = 0.0;
    const std::string store = storeHealth(runtime.storeDir, probeMs);
    const bool sick = store == "unreachable";
    const auto uptime = std::chrono::duration_cast<std::chrono::seconds>(
        std::chrono::steady_clock::now() - runtime.start);
    char probeBuf[32];
    std::snprintf(probeBuf, sizeof(probeBuf), "%.3f", probeMs);
    std::string body =
        std::string("{\"status\": ") + (sick ? "\"sick\"" : "\"ok\"") +
        ", \"uptime_seconds\": " + std::to_string(uptime.count()) +
        ", \"queued\": " + std::to_string(jobs.queuedCount()) +
        ", \"running\": " + std::to_string(jobs.runningCount()) +
        ", \"finished\": " + std::to_string(jobs.finishedCount()) +
        ", \"store\": " + jsonQuote(store) +
        ", \"store_probe_ms\": " + probeBuf + "}\n";
    // 503 drains the instance at the load balancer while the process
    // itself stays up to finish what it can.
    return jsonResponse(sick ? 503 : 200, std::move(body));
  }

  if (path == "/metrics") {
    if (request.method != "GET") {
      return errorResponse(405, "use GET on /metrics");
    }
    return HttpResponse{200, "text/plain; version=0.0.4; charset=utf-8",
                        telemetry().prometheusText()};
  }

  if (path == "/sweeps" || path.rfind("/sweeps/", 0) == 0) {
    return routeSweeps(runtime, request);
  }

  if (path == "/jobs") {
    if (request.method == "GET") {
      const ListQuery page = parseListQuery(request.query);
      if (!page.error.empty()) return errorResponse(400, page.error);
      return jsonResponse(200, jobs.listJson(page.limit, page.after));
    }
    if (request.method != "POST") {
      return errorResponse(405, "use GET or POST on /jobs");
    }
    JobSpec spec;
    try {
      spec = parseJobSpec(request.body);
    } catch (const std::invalid_argument& e) {
      return errorResponse(400, e.what());
    }
    const JobManager::Submission submission = jobs.submit(std::move(spec));
    if (!submission.accepted) return errorResponse(503, submission.error);
    return jsonResponse(
        202, "{\"id\": " + jsonQuote(submission.id) +
                 ", \"status_url\": " +
                 jsonQuote("/jobs/" + submission.id) + "}\n");
  }

  // /jobs/<id> and /jobs/<id>/result
  if (path.rfind("/jobs/", 0) == 0) {
    std::string id = path.substr(6);
    bool wantResult = false;
    const std::size_t slash = id.find('/');
    if (slash != std::string::npos) {
      if (id.substr(slash) != "/result") {
        return errorResponse(404, "no such endpoint");
      }
      wantResult = true;
      id.erase(slash);
    }
    const std::optional<JobState> state = jobs.state(id);
    if (!state.has_value()) {
      return errorResponse(404, "no such job \"" + id + "\"");
    }

    if (wantResult) {
      if (request.method != "GET") {
        return errorResponse(405, "use GET on /jobs/<id>/result");
      }
      const std::optional<std::string> result = jobs.resultJson(id);
      if (!result.has_value()) {
        return errorResponse(
            409, "job " + id + " is " + toString(*state) +
                     "; a result exists once it is done (or cancelled "
                     "mid-run with a partial result)");
      }
      return jsonResponse(200, *result);
    }

    if (request.method == "DELETE") {
      if (!jobs.cancel(id)) {
        return errorResponse(409, "job " + id + " is already " +
                                      toString(*state));
      }
      return jsonResponse(200, "{\"id\": " + jsonQuote(id) +
                                   ", \"cancelled\": true}\n");
    }
    if (request.method != "GET") {
      return errorResponse(405, "use GET or DELETE on /jobs/<id>");
    }
    return jsonResponse(200, *jobs.statusJson(id));
  }

  return errorResponse(404, "no such endpoint");
}

HttpResponse routeRequest(JobManager& jobs, const HttpRequest& request) {
  ServeRuntime runtime{jobs, nullptr, std::string()};
  return routeRequest(runtime, request);
}

std::string requestLogLine(const RequestLogEntry& entry) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.1f", entry.milliseconds);
  std::string out = "peer=";
  out += entry.peer;
  out += " method=";
  out += entry.method;
  out += " target=";
  out += entry.target;
  out += " status=";
  out += std::to_string(entry.status);
  out += " in=";
  out += std::to_string(entry.bytesIn);
  out += " out=";
  out += std::to_string(entry.bytesOut);
  out += " ms=";
  out += buf;
  return out;
}

namespace {

/// Collapses a request target onto the fixed endpoint surface so metric
/// cardinality stays bounded no matter what clients send: ids and sweep
/// keys become placeholders, unknown paths become "other".
std::string normalizeEndpoint(std::string_view target) {
  const std::size_t question = target.find('?');
  if (question != std::string_view::npos) target = target.substr(0, question);

  if (target == "/healthz" || target == "/metrics" || target == "/jobs" ||
      target == "/sweeps") {
    return std::string(target);
  }
  if (target.rfind("/jobs/", 0) == 0) {
    std::string_view rest = target.substr(6);
    const std::size_t slash = rest.find('/');
    if (slash == std::string_view::npos) return "/jobs/{id}";
    if (rest.substr(slash) == "/result") return "/jobs/{id}/result";
    return "other";
  }
  if (target.rfind("/sweeps/", 0) == 0) {
    std::string_view rest = target.substr(8);
    const std::size_t slash = rest.find('/');
    if (slash == std::string_view::npos) return "/sweeps/{key}";
    const std::string_view action = rest.substr(slash + 1);
    if (action == "manifest" || action == "result" || action == "claim" ||
        action == "renew" || action == "release" || action == "complete") {
      return "/sweeps/{key}/" + std::string(action);
    }
    return "other";
  }
  return "other";
}

}  // namespace

void recordRequestTelemetry(const RequestLogEntry& entry) {
  if (!telemetryEnabled()) return;
  const std::string endpoint = normalizeEndpoint(entry.target);
  telemetry()
      .counter("ides_serve_requests_total", "HTTP requests served",
               {{"endpoint", endpoint},
                {"method", entry.method},
                {"status", std::to_string(entry.status)}})
      .add();
  telemetry()
      .histogram("ides_serve_request_seconds",
                 "HTTP request latency in seconds",
                 {0.001, 0.005, 0.02, 0.1, 0.5, 2.0, 10.0},
                 {{"endpoint", endpoint}})
      .observe(entry.milliseconds / 1000.0);
}

}  // namespace ides
