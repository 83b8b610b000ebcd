// Unit tests of the benchmark's own statistics: tail-percentile choice,
// open-loop due-time latency under a stalled response, geometric mean,
// ratio-with-base, quantiles, and span self time. Exit code 0 = all pass.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <thread>

#include "spans.h"
#include "stats.h"

namespace {

int g_failures = 0;

void check(bool ok, const char* what, int line) {
  if (!ok) {
    ++g_failures;
    std::printf("FAIL line %d: %s\n", line, what);
  }
}
#define CHECK(cond) check((cond), #cond, __LINE__)

bool near(double a, double b, double tol = 1e-9) {
  return std::fabs(a - b) <= tol;
}

void sleepMs(int ms) {
  std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

void testTailPercentile() {
  using idesbench::tailPercentile;
  CHECK(tailPercentile(10000) == 99.9);
  CHECK(tailPercentile(9999) == 99.0);
  CHECK(tailPercentile(1000) == 99.0);
  CHECK(tailPercentile(999) == 95.0);
  CHECK(tailPercentile(200) == 95.0);
  CHECK(tailPercentile(199) == 90.0);
  CHECK(tailPercentile(100) == 90.0);
  CHECK(tailPercentile(40) == 75.0);
  CHECK(tailPercentile(20) == 50.0);
  CHECK(tailPercentile(19) == 0.0);
  CHECK(tailPercentile(0) == 0.0);
}

void testQuantile() {
  using idesbench::quantile;
  CHECK(near(quantile({4, 1, 3, 2}, 0.5), 2.5));
  CHECK(near(quantile({5, 1, 3}, 0.5), 3.0));
  CHECK(near(quantile({1, 2, 3, 4, 5}, 0.9), 4.6));
  CHECK(near(quantile({7}, 0.99), 7.0));
  CHECK(quantile({}, 0.5) == 0.0);
}

void testGeomean() {
  using idesbench::geomean;
  CHECK(near(geomean({1, 4, 16}), 4.0));
  CHECK(near(geomean({2}), 2.0));
  CHECK(near(geomean({0.5, 2}), 1.0));
  const auto throws = [](std::vector<double> v) {
    try {
      (void)geomean(v);
    } catch (const std::domain_error&) {
      return true;
    }
    return false;
  };
  CHECK(throws({}));
  CHECK(throws({1, 0}));
  CHECK(throws({-1, 4}));
  CHECK(throws({1, NAN}));
}

void testRatio() {
  using idesbench::Ratio;
  const Ratio half{1, 2};
  CHECK(half.defined());
  CHECK(near(half.value(), 0.5));
  CHECK(half.base == 2.0);
  const Ratio none{0, 0};
  CHECK(!none.defined());
  CHECK(none.value() == 0.0);
  const Ratio zero{0, 5};
  CHECK(zero.defined());
  CHECK(zero.value() == 0.0);
}

void testOpenLoopStall() {
  using idesbench::runOpenLoop;
  // Requests due every 10 ms; the first response stalls for 150 ms. On one
  // connection the later requests wait behind it, and their latency counts
  // that wait because it is timed from the due time, not the send time.
  const std::vector<double> due{0, 10, 20, 30, 40};
  const auto stallFirst = [](std::size_t i) {
    if (i == 0) sleepMs(150);
  };
  const auto one = runOpenLoop(due, 1, stallFirst);
  CHECK(one[0].latencyMs >= 145.0);
  CHECK(one[1].latencyMs >= 130.0);  // ~140: sent at 150, due at 10
  CHECK(one[1].lateMs >= 130.0);
  CHECK(one[4].latencyMs >= 100.0);  // ~110: still queued behind the stall
  CHECK(one[4].latencyMs < one[1].latencyMs);
  // With a second connection, request 1 goes out on time.
  const auto two = runOpenLoop(due, 2, stallFirst);
  CHECK(two[1].latencyMs < 50.0);
  CHECK(two[1].lateMs < 50.0);
  CHECK(two[0].latencyMs >= 145.0);
}

void testSelfTime() {
  idesbench::spans().setEnabled(true);
  {
    const idesbench::Span outer("alpha.outer");
    sleepMs(5);
    {
      const idesbench::Span inner("beta.inner");
      sleepMs(30);
    }
  }
  idesbench::spans().setEnabled(false);
  { const idesbench::Span ignored("gamma.off"); }
  const auto self = idesbench::spans().selfTimeMsByLayer();
  CHECK(self.at("beta") >= 29.0);
  CHECK(self.at("alpha") >= 4.0);
  CHECK(self.at("alpha") < 20.0);  // the child's 30 ms are not its own
  CHECK(self.count("gamma") == 0);
  CHECK(idesbench::spans().durationsMs("beta.inner").size() == 1);
  CHECK(idesbench::spans().records()[1].parent == 0);
}

}  // namespace

int main() {
  testTailPercentile();
  testQuantile();
  testGeomean();
  testRatio();
  testOpenLoopStall();
  testSelfTime();
  if (g_failures == 0) std::printf("idesbench_tests: all passed\n");
  return g_failures == 0 ? 0 : 1;
}
