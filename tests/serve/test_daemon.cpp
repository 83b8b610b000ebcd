// Daemon process discipline without a process: the endpoint router is
// pure over (JobManager, HttpRequest), option/config parsing is pure over
// strings, and the pidfile contract is a couple of filesystem calls — all
// of it unit-tested with no sockets and no signals.
#include "serve/daemon.h"

#include <gtest/gtest.h>

#include "obs/telemetry.h"
#include "util/json_reader.h"

#include <chrono>
#include <filesystem>
#include <fstream>
#include <functional>
#include <string>
#include <thread>
#include <vector>

namespace ides {
namespace {

using namespace std::chrono_literals;

HttpRequest makeRequest(std::string method, std::string target,
                        std::string body = {}) {
  HttpRequest request;
  request.method = std::move(method);
  request.target = std::move(target);
  const std::size_t qmark = request.target.find('?');
  request.path = request.target.substr(0, qmark);
  if (qmark != std::string::npos) {
    request.query = request.target.substr(qmark + 1);
  }
  request.body = std::move(body);
  return request;
}

bool waitFor(const std::function<bool()>& done, double seconds = 30.0) {
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(seconds));
  while (std::chrono::steady_clock::now() < deadline) {
    if (done()) return true;
    std::this_thread::sleep_for(5ms);
  }
  return done();
}

/// Fast design job body (AH on a tiny generated instance).
const char* kFastJob =
    "{\"type\": \"design\", \"nodes\": 4, \"existing\": 30, "
    "\"current\": 12, \"strategy\": \"AH\"}";

TEST(RouteRequest, HealthzReportsCounters) {
  JobManager jobs(JobManagerOptions{});
  const HttpResponse response =
      routeRequest(jobs, makeRequest("GET", "/healthz"));
  EXPECT_EQ(response.status, 200);
  EXPECT_NE(response.body.find("\"status\": \"ok\""), std::string::npos);
  EXPECT_NE(response.body.find("\"queued\": 0"), std::string::npos);

  EXPECT_EQ(routeRequest(jobs, makeRequest("POST", "/healthz")).status, 405);
}

TEST(RouteRequest, SubmitPollFetchLifecycle) {
  JobManager jobs(JobManagerOptions{});

  const HttpResponse accepted =
      routeRequest(jobs, makeRequest("POST", "/jobs", kFastJob));
  EXPECT_EQ(accepted.status, 202);
  EXPECT_NE(accepted.body.find("\"id\": \"job-1\""), std::string::npos);
  EXPECT_NE(accepted.body.find("\"status_url\": \"/jobs/job-1\""),
            std::string::npos);

  ASSERT_TRUE(
      waitFor([&] { return jobs.state("job-1") == JobState::Done; }));

  const HttpResponse status =
      routeRequest(jobs, makeRequest("GET", "/jobs/job-1"));
  EXPECT_EQ(status.status, 200);
  EXPECT_NE(status.body.find("\"state\": \"done\""), std::string::npos);

  const HttpResponse result =
      routeRequest(jobs, makeRequest("GET", "/jobs/job-1/result"));
  EXPECT_EQ(result.status, 200);
  EXPECT_NE(result.body.find("\"strategy\": \"AH\""), std::string::npos);

  const HttpResponse list = routeRequest(jobs, makeRequest("GET", "/jobs"));
  EXPECT_EQ(list.status, 200);
  EXPECT_NE(list.body.find("\"id\": \"job-1\""), std::string::npos);
}

TEST(RouteRequest, JobListPaginatesAndValidatesQueryParameters) {
  JobManager jobs(JobManagerOptions{});
  ASSERT_EQ(routeRequest(jobs, makeRequest("POST", "/jobs", kFastJob))
                .status,
            202);
  ASSERT_EQ(routeRequest(jobs, makeRequest("POST", "/jobs", kFastJob))
                .status,
            202);
  ASSERT_TRUE(waitFor([&] { return jobs.finishedCount() == 2u; }));

  const HttpResponse page =
      routeRequest(jobs, makeRequest("GET", "/jobs?limit=1"));
  EXPECT_EQ(page.status, 200);
  EXPECT_NE(page.body.find("\"id\": \"job-1\""), std::string::npos);
  EXPECT_EQ(page.body.find("\"id\": \"job-2\""), std::string::npos);
  EXPECT_NE(page.body.find("\"next_after\": \"job-1\""),
            std::string::npos);

  const HttpResponse rest =
      routeRequest(jobs, makeRequest("GET", "/jobs?limit=1&after=job-1"));
  EXPECT_EQ(rest.status, 200);
  EXPECT_NE(rest.body.find("\"id\": \"job-2\""), std::string::npos);
  EXPECT_EQ(rest.body.find("\"id\": \"job-1\""), std::string::npos);
  EXPECT_EQ(rest.body.find("\"next_after\""), std::string::npos);

  // Strict query validation, same policy as the JSON bodies.
  EXPECT_EQ(routeRequest(jobs, makeRequest("GET", "/jobs?limit=x")).status,
            400);
  EXPECT_EQ(routeRequest(jobs, makeRequest("GET", "/jobs?after=7")).status,
            400);
  EXPECT_EQ(routeRequest(jobs, makeRequest("GET", "/jobs?frob=1")).status,
            400);
}

TEST(RouteRequest, BadSpecAnswers400WithReason) {
  JobManager jobs(JobManagerOptions{});
  const HttpResponse response = routeRequest(
      jobs, makeRequest("POST", "/jobs", "{\"type\": \"mystery\"}"));
  EXPECT_EQ(response.status, 400);
  EXPECT_NE(response.body.find("unknown job type"), std::string::npos);
  EXPECT_EQ(jobs.finishedCount() + jobs.queuedCount(), 0u);
}

TEST(RouteRequest, ErrorBodiesEscapeControlBytesFromTheClient) {
  JobManager jobs(JobManagerOptions{});
  // The spec's strategy decodes to "M", LF, "H", 0x01; the 400 body echoes
  // it inside the error message.
  const HttpResponse response = routeRequest(
      jobs, makeRequest("POST", "/jobs",
                        "{\"type\": \"design\", \"strategy\": "
                        "\"M\\nH\\u0001\"}"));
  EXPECT_EQ(response.status, 400);
  ASSERT_FALSE(response.body.empty());
  EXPECT_EQ(response.body.back(), '\n');
  for (std::size_t i = 0; i + 1 < response.body.size(); ++i) {
    EXPECT_GE(static_cast<unsigned char>(response.body[i]), 0x20)
        << "raw control byte at " << i << " of " << response.body;
  }
  const std::string error = parseJson(response.body).stringAt("error");
  EXPECT_NE(error.find("M\nH\x01"), std::string::npos) << error;
}

TEST(RouteRequest, ResultBeforeDoneAnswers409) {
  JobManagerOptions options;
  options.workers = 1;
  JobManager jobs(options);
  // Long SA job so the result query happens while queued/running.
  const HttpResponse accepted = routeRequest(
      jobs, makeRequest("POST", "/jobs",
                        "{\"type\": \"design\", \"nodes\": 4, "
                        "\"existing\": 60, \"current\": 24, \"strategy\": "
                        "\"SA\", \"sa_iters\": 50000000}"));
  ASSERT_EQ(accepted.status, 202);

  const HttpResponse early =
      routeRequest(jobs, makeRequest("GET", "/jobs/job-1/result"));
  EXPECT_EQ(early.status, 409);

  const HttpResponse cancelled =
      routeRequest(jobs, makeRequest("DELETE", "/jobs/job-1"));
  EXPECT_EQ(cancelled.status, 200);
  EXPECT_NE(cancelled.body.find("\"cancelled\": true"), std::string::npos);
  ASSERT_TRUE(waitFor(
      [&] { return jobs.state("job-1") == JobState::Cancelled; }));

  // Terminal cancel: a second DELETE conflicts.
  EXPECT_EQ(routeRequest(jobs, makeRequest("DELETE", "/jobs/job-1")).status,
            409);
}

TEST(RouteRequest, UnknownTargetsAnswer404) {
  JobManager jobs(JobManagerOptions{});
  EXPECT_EQ(routeRequest(jobs, makeRequest("GET", "/")).status, 404);
  EXPECT_EQ(routeRequest(jobs, makeRequest("GET", "/jobs/job-9")).status,
            404);
  EXPECT_EQ(
      routeRequest(jobs, makeRequest("GET", "/jobs/job-9/result")).status,
      404);
  EXPECT_EQ(
      routeRequest(jobs, makeRequest("GET", "/jobs/job-1/resultx")).status,
      404);
  EXPECT_EQ(routeRequest(jobs, makeRequest("PUT", "/jobs")).status, 405);
}

TEST(RouteRequest, FullQueueAnswers503) {
  JobManagerOptions options;
  options.workers = 1;
  options.maxQueued = 1;
  JobManager jobs(options);
  const char* longJob =
      "{\"type\": \"design\", \"nodes\": 4, \"existing\": 60, "
      "\"current\": 24, \"strategy\": \"SA\", \"sa_iters\": 50000000}";
  ASSERT_EQ(routeRequest(jobs, makeRequest("POST", "/jobs", longJob)).status,
            202);
  ASSERT_TRUE(waitFor(
      [&] { return jobs.state("job-1") == JobState::Running; }));
  ASSERT_EQ(routeRequest(jobs, makeRequest("POST", "/jobs", longJob)).status,
            202);

  const HttpResponse rejected =
      routeRequest(jobs, makeRequest("POST", "/jobs", longJob));
  EXPECT_EQ(rejected.status, 503);
  EXPECT_NE(rejected.body.find("full"), std::string::npos);
  jobs.drain();
}

TEST(RouteRequest, HealthzReportsUptimeAndStoreHealth) {
  JobManager jobs(JobManagerOptions{});
  const std::string storeDir = ::testing::TempDir() + "ides_healthz_store";
  std::filesystem::create_directories(storeDir);

  ServeRuntime healthy{jobs, nullptr, storeDir};
  const HttpResponse ok =
      routeRequest(healthy, makeRequest("GET", "/healthz"));
  EXPECT_EQ(ok.status, 200);
  EXPECT_NE(ok.body.find("\"status\": \"ok\""), std::string::npos);
  EXPECT_NE(ok.body.find("\"uptime_seconds\": "), std::string::npos);
  EXPECT_NE(ok.body.find("\"store\": \"ok\""), std::string::npos);

  // No store configured: reported, but not sick.
  ServeRuntime storeless{jobs, nullptr, std::string()};
  const HttpResponse none =
      routeRequest(storeless, makeRequest("GET", "/healthz"));
  EXPECT_EQ(none.status, 200);
  EXPECT_NE(none.body.find("\"store\": \"none\""), std::string::npos);

  // An unreachable store dir (lost mount, full disk) answers 503 so a
  // load balancer drains the instance.
  ServeRuntime sick{jobs, nullptr, "/nonexistent/ides/store"};
  const HttpResponse drained =
      routeRequest(sick, makeRequest("GET", "/healthz"));
  EXPECT_EQ(drained.status, 503);
  EXPECT_NE(drained.body.find("\"status\": \"sick\""), std::string::npos);
  EXPECT_NE(drained.body.find("\"store\": \"unreachable\""),
            std::string::npos);
}

TEST(RouteRequest, SweepsWithoutStoreAnswer503) {
  JobManager jobs(JobManagerOptions{});
  // The back-compat entry point (no runtime): no coordinator wired in.
  const HttpResponse response =
      routeRequest(jobs, makeRequest("GET", "/sweeps"));
  EXPECT_EQ(response.status, 503);
  EXPECT_NE(response.body.find("--store-dir"), std::string::npos);
}

TEST(RouteRequest, SweepLifecycleOverHttpRoutes) {
  JobManager jobs(JobManagerOptions{});
  const std::string storeDir =
      ::testing::TempDir() + "ides_daemon_sweeps_store";
  std::filesystem::remove_all(storeDir);
  SweepCoordinator coordinator(storeDir);
  ServeRuntime runtime{jobs, &coordinator, storeDir};

  // Empty listing before anything is registered.
  const HttpResponse empty =
      routeRequest(runtime, makeRequest("GET", "/sweeps"));
  EXPECT_EQ(empty.status, 200);
  EXPECT_NE(empty.body.find("\"sweeps\": []"), std::string::npos);

  // Register (default scale comes from the body being allowed to omit it).
  const HttpResponse created = routeRequest(
      runtime, makeRequest("POST", "/sweeps/nightly",
                           "{\"sweep\": \"quality\", \"scale\": \"smoke\"}"));
  EXPECT_EQ(created.status, 200) << created.body;
  EXPECT_NE(created.body.find("\"key\": \"nightly\""), std::string::npos);
  EXPECT_NE(created.body.find("\"done\": false"), std::string::npos);

  const HttpResponse listed =
      routeRequest(runtime, makeRequest("GET", "/sweeps"));
  EXPECT_NE(listed.body.find("\"key\": \"nightly\""), std::string::npos);

  // The manifest endpoint serves the canonical document.
  const HttpResponse manifest = routeRequest(
      runtime, makeRequest("GET", "/sweeps/nightly/manifest"));
  EXPECT_EQ(manifest.status, 200);
  EXPECT_NE(manifest.body.find("\"sweep\": \"quality\""),
            std::string::npos);

  // Claim, renew, release round trip.
  const HttpResponse claimed = routeRequest(
      runtime, makeRequest("POST", "/sweeps/nightly/claim",
                           "{\"worker\": \"w1\", \"lease_seconds\": 60}"));
  EXPECT_EQ(claimed.status, 200);
  ASSERT_NE(claimed.body.find("\"claimed\""), std::string::npos);
  const JsonValue claim = parseJson(claimed.body);
  const std::string fingerprint =
      claim.at("claimed").stringAt("fingerprint");

  const HttpResponse renewed = routeRequest(
      runtime, makeRequest("POST", "/sweeps/nightly/renew",
                           "{\"worker\": \"w1\", \"fingerprint\": " +
                               jsonQuote(fingerprint) + "}"));
  EXPECT_NE(renewed.body.find("\"renewed\": true"), std::string::npos);
  const HttpResponse stolen = routeRequest(
      runtime, makeRequest("POST", "/sweeps/nightly/renew",
                           "{\"worker\": \"w2\", \"fingerprint\": " +
                               jsonQuote(fingerprint) + "}"));
  EXPECT_NE(stolen.body.find("\"renewed\": false"), std::string::npos);
  const HttpResponse released = routeRequest(
      runtime, makeRequest("POST", "/sweeps/nightly/release",
                           "{\"worker\": \"w1\", \"fingerprint\": " +
                               jsonQuote(fingerprint) + "}"));
  EXPECT_NE(released.body.find("\"released\": true"), std::string::npos);

  // Error surface: the matrix clients actually hit.
  EXPECT_EQ(routeRequest(runtime, makeRequest("GET", "/sweeps/nope"))
                .status,
            404);
  EXPECT_EQ(routeRequest(runtime, makeRequest("GET", "/sweeps/bad!key"))
                .status,
            400);
  EXPECT_EQ(routeRequest(runtime, makeRequest("PUT", "/sweeps/nightly"))
                .status,
            405);
  EXPECT_EQ(routeRequest(runtime,
                         makeRequest("POST", "/sweeps/nightly/claim",
                                     "{\"worker\": \"w\", "
                                     "\"lease_seconds\": 0}"))
                .status,
            400);
  EXPECT_EQ(routeRequest(runtime, makeRequest("POST", "/sweeps/nightly/claim",
                                              "not json"))
                .status,
            400);
  // Conflicting re-registration of a live key.
  EXPECT_EQ(routeRequest(runtime,
                         makeRequest("POST", "/sweeps/nightly",
                                     "{\"sweep\": \"quality\", "
                                     "\"scale\": \"full\"}"))
                .status,
            400);
  // A garbage record is refused at the completion boundary.
  EXPECT_EQ(routeRequest(runtime,
                         makeRequest("POST", "/sweeps/nightly/complete",
                                     "{\"worker\": \"w1\", "
                                     "\"fingerprint\": " +
                                         jsonQuote(fingerprint) +
                                         ", \"record\": \"junk\"}"))
                .status,
            400);
  // No result until every record is in.
  EXPECT_EQ(
      routeRequest(runtime, makeRequest("GET", "/sweeps/nightly/result"))
          .status,
      409);
}

TEST(RouteRequest, ClaimLeaseIsBoundedSoNoInstanceIsHandedOutTwice) {
  JobManager jobs(JobManagerOptions{});
  const std::string storeDir =
      ::testing::TempDir() + "ides_daemon_lease_bound_store";
  std::filesystem::remove_all(storeDir);
  SweepCoordinator coordinator(storeDir);
  ServeRuntime runtime{jobs, &coordinator, storeDir};
  ASSERT_EQ(routeRequest(runtime,
                         makeRequest("POST", "/sweeps/leases",
                                     "{\"sweep\": \"quality\", "
                                     "\"scale\": \"smoke\"}"))
                .status,
            200);
  const auto claim = [&](const std::string& worker, const char* lease) {
    return routeRequest(
        runtime, makeRequest("POST", "/sweeps/leases/claim",
                             "{\"worker\": " + jsonQuote(worker) +
                                 ", \"lease_seconds\": " + lease + "}"));
  };

  // A lease past the bound would overflow its steady_clock expiry into the
  // past, so the next claim would hand the same instance out again.
  for (const char* lease : {"1e300", "2e6", "0", "-1"}) {
    const HttpResponse refused = claim("w1", lease);
    EXPECT_EQ(refused.status, 400) << lease;
    EXPECT_NE(refused.body.find("lease_seconds"), std::string::npos)
        << refused.body;
  }

  // The longest lease accepted still holds against a second worker.
  const HttpResponse first = claim("w1", "1e6");
  ASSERT_EQ(first.status, 200) << first.body;
  const HttpResponse second = claim("w2", "60");
  ASSERT_EQ(second.status, 200) << second.body;
  EXPECT_NE(parseJson(first.body).at("claimed").stringAt("fingerprint"),
            parseJson(second.body).at("claimed").stringAt("fingerprint"));
}

TEST(ServeConfig, ParsesKeysCommentsAndBlanks) {
  ServeOptions options;
  std::string error;
  const bool ok = parseServeConfig(
      "# ides_serve config\n"
      "port 9090\n"
      "workers = 3\n"
      "store-dir /tmp/store  # inline comment\n"
      "retain-finished 64\n"
      "\n"
      "bind 0.0.0.0\n",
      options, error);
  ASSERT_TRUE(ok) << error;
  EXPECT_EQ(options.port, 9090);
  EXPECT_EQ(options.workers, 3);
  EXPECT_EQ(options.storeDir, "/tmp/store");
  EXPECT_EQ(options.retainFinished, 64);
  EXPECT_EQ(options.bindAddress, "0.0.0.0");
}

TEST(ServeConfig, RejectsUnknownKeysAndBadValues) {
  ServeOptions options;
  std::string error;
  EXPECT_FALSE(parseServeConfig("volume 11\n", options, error));
  EXPECT_NE(error.find("unknown option"), std::string::npos);
  EXPECT_FALSE(parseServeConfig("port zero\n", options, error));
  EXPECT_NE(error.find("bad value"), std::string::npos);
  EXPECT_FALSE(parseServeConfig("port 8080x\n", options, error));
  EXPECT_NE(error.find("bad value for port"), std::string::npos);
  EXPECT_FALSE(parseServeConfig("workers 2.5\n", options, error));
  EXPECT_FALSE(parseServeConfig("port 70000\n", options, error));
  EXPECT_NE(error.find("out of range"), std::string::npos);
  EXPECT_FALSE(parseServeConfig("workers 0\n", options, error));
  EXPECT_FALSE(parseServeConfig("retain-finished -1\n", options, error));
  EXPECT_NE(error.find("retain-finished must be >= 0"), std::string::npos);
  EXPECT_FALSE(parseServeConfig("orphan\n", options, error));
  EXPECT_NE(error.find("expected"), std::string::npos);
}

TEST(ServeOptionsTest, FlagsOverrideConfigFile) {
  const std::string configPath =
      ::testing::TempDir() + "ides_serve_config_test.conf";
  {
    std::ofstream out(configPath);
    out << "port 9090\nworkers 5\n";
  }

  std::vector<std::string> argStorage = {"ides_serve", "--config",
                                         configPath, "--port", "18080"};
  std::vector<char*> argv;
  argv.reserve(argStorage.size());
  for (std::string& arg : argStorage) argv.push_back(arg.data());

  ServeOptions options;
  std::string error;
  bool help = false;
  ASSERT_TRUE(parseServeOptions(static_cast<int>(argv.size()), argv.data(),
                                options, error, help))
      << error;
  EXPECT_FALSE(help);
  EXPECT_EQ(options.port, 18080);  // flag wins over the config's 9090
  EXPECT_EQ(options.workers, 5);   // config survives where no flag is set
  std::filesystem::remove(configPath);
}

TEST(ServeOptionsTest, HelpUnknownFlagAndMissingConfig) {
  ServeOptions options;
  std::string error;
  bool help = false;

  std::vector<std::string> helpArgs = {"ides_serve", "--help"};
  std::vector<char*> helpArgv;
  for (std::string& arg : helpArgs) helpArgv.push_back(arg.data());
  ASSERT_TRUE(parseServeOptions(2, helpArgv.data(), options, error, help));
  EXPECT_TRUE(help);

  std::vector<std::string> badArgs = {"ides_serve", "--volume", "11"};
  std::vector<char*> badArgv;
  for (std::string& arg : badArgs) badArgv.push_back(arg.data());
  EXPECT_FALSE(parseServeOptions(3, badArgv.data(), options, error, help));
  EXPECT_NE(error.find("unknown option"), std::string::npos);

  std::vector<std::string> cfgArgs = {"ides_serve", "--config",
                                      "/nonexistent/serve.conf"};
  std::vector<char*> cfgArgv;
  for (std::string& arg : cfgArgs) cfgArgv.push_back(arg.data());
  EXPECT_FALSE(parseServeOptions(3, cfgArgv.data(), options, error, help));
  EXPECT_NE(error.find("cannot open config file"), std::string::npos);

  EXPECT_NE(std::string(serveUsage()).find("--store-dir"),
            std::string::npos);
}

TEST(PidFileTest, WritesRefusesAndRemoves) {
  const std::string path = ::testing::TempDir() + "ides_serve_test.pid";
  std::filesystem::remove(path);

  std::string error;
  ASSERT_TRUE(writePidFile(path, error)) << error;
  {
    std::ifstream in(path);
    long pid = 0;
    in >> pid;
    EXPECT_GT(pid, 0);
  }

  // A second instance must refuse to clobber the live pidfile.
  EXPECT_FALSE(writePidFile(path, error));
  EXPECT_NE(error.find("already exists"), std::string::npos);

  removePidFile(path);
  EXPECT_FALSE(std::filesystem::exists(path));
  removePidFile(path);  // idempotent on a missing file
}

TEST(RequestLogTest, RendersKeyValueFields) {
  RequestLogEntry entry;
  entry.peer = "127.0.0.1:52114";
  entry.method = "POST";
  entry.target = "/jobs";
  entry.status = 202;
  entry.bytesIn = 96;
  entry.bytesOut = 54;
  entry.milliseconds = 1.5;
  EXPECT_EQ(requestLogLine(entry),
            "peer=127.0.0.1:52114 method=POST target=/jobs status=202 "
            "in=96 out=54 ms=1.5");
}

TEST(RouteRequest, HealthzReportsProbeLatencyAndLeavesNoDebris) {
  JobManager jobs(JobManagerOptions{});
  const std::string storeDir = ::testing::TempDir() + "ides_healthz_probe";
  std::filesystem::create_directories(storeDir);
  const std::filesystem::path probe =
      std::filesystem::path(storeDir) / ".healthz.probe";

  ServeRuntime healthy{jobs, nullptr, storeDir};
  const HttpResponse ok =
      routeRequest(healthy, makeRequest("GET", "/healthz"));
  EXPECT_EQ(ok.status, 200);
  EXPECT_NE(ok.body.find("\"store_probe_ms\": "), std::string::npos);
  // The round-trip must clean its probe file up behind itself.
  EXPECT_FALSE(std::filesystem::exists(probe));

  // Sabotage the round-trip: a directory squatting on the probe path makes
  // the write fail. The probe must answer "unreachable" AND still remove
  // the debris (the empty directory) on the failure path.
  std::filesystem::create_directory(probe);
  const HttpResponse sick =
      routeRequest(healthy, makeRequest("GET", "/healthz"));
  EXPECT_EQ(sick.status, 503);
  EXPECT_NE(sick.body.find("\"store\": \"unreachable\""),
            std::string::npos);
  EXPECT_FALSE(std::filesystem::exists(probe));
}

TEST(RouteRequest, MetricsServesPrometheusExposition) {
  const bool wasEnabled = telemetryEnabled();
  setTelemetryEnabled(true);
  JobManager jobs(JobManagerOptions{});

  // Run one fast design job through the router so the core and serve
  // instrumentation has something to show.
  ASSERT_EQ(routeRequest(jobs, makeRequest("POST", "/jobs", kFastJob))
                .status,
            202);
  ASSERT_TRUE(waitFor([&] {
    return routeRequest(jobs, makeRequest("GET", "/jobs/job-1"))
               .body.find("\"state\": \"done\"") != std::string::npos;
  }));

  // Feed a request-log entry the way the binary's log sink does.
  RequestLogEntry entry;
  entry.method = "POST";
  entry.target = "/jobs";
  entry.status = 202;
  entry.milliseconds = 0.4;
  recordRequestTelemetry(entry);

  const HttpResponse metrics =
      routeRequest(jobs, makeRequest("GET", "/metrics"));
  EXPECT_EQ(metrics.status, 200);
  EXPECT_EQ(metrics.contentType, "text/plain; version=0.0.4; charset=utf-8");
  EXPECT_EQ(routeRequest(jobs, makeRequest("POST", "/metrics")).status, 405);

  const std::string& text = metrics.body;
  for (const char* name :
       {"ides_opt_runs_total", "ides_opt_evaluations_total",
        "ides_eval_evaluations_total", "ides_eval_rewind_depth_total",
        "ides_serve_requests_total", "ides_serve_request_seconds",
        "ides_serve_jobs_total", "ides_serve_queue_depth",
        "ides_serve_job_seconds"}) {
    EXPECT_NE(text.find(std::string("# TYPE ") + name), std::string::npos)
        << "missing metric family " << name;
  }
  EXPECT_NE(text.find("ides_serve_requests_total{endpoint=\"/jobs\","
                      "method=\"POST\",status=\"202\"}"),
            std::string::npos);
  // The queue drained: the depth gauge must read 0.
  EXPECT_NE(text.find("ides_serve_queue_depth 0"), std::string::npos);
  setTelemetryEnabled(wasEnabled);
}

}  // namespace
}  // namespace ides
