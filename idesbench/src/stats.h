// Summary statistics of the benchmark: percentiles, the tail-percentile
// rule, geometric means, ratios with their base, and the open-loop load
// generator whose latencies are timed from each request's due time.
//
// Header-only so the unit tests (idesbench/tests) exercise exactly the code
// the workloads run.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <functional>
#include <stdexcept>
#include <thread>
#include <vector>

namespace idesbench {

/// Linear-interpolated quantile (q in [0, 1]) of `samples`; 0 when empty.
inline double quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double pos = q * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  return samples[lo] + (pos - static_cast<double>(lo)) * (samples[hi] - samples[lo]);
}

inline double median(std::vector<double> samples) {
  return quantile(std::move(samples), 0.5);
}

/// Samples a tail percentile must leave beyond it.
inline constexpr double kMinBeyond = 10.0;

/// The highest percentile of {99.9, 99, 95, 90, 75, 50} that leaves at least
/// kMinBeyond of `n` samples above it, or 0 when even the median does not.
/// A tail figure is only meaningful with enough samples past it; reporting
/// p99 from 50 samples would be reporting the maximum.
inline double tailPercentile(std::size_t n) {
  for (const double p : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0}) {
    // Samples strictly beyond percentile p: n * (1 - p/100), rounded to
    // guard against 1000 * 0.01 reading as 9.999...
    const double beyond =
        std::round(static_cast<double>(n) * (100.0 - p) * 10.0) / 1000.0;
    if (beyond >= kMinBeyond) return p;
  }
  return 0.0;
}

/// Geometric mean of strictly positive values. Throws std::domain_error on
/// an empty input or a non-positive value (an objective or a time of 0 is a
/// broken measurement, not a data point).
inline double geomean(const std::vector<double>& values) {
  if (values.empty()) throw std::domain_error("geomean of no values");
  double logSum = 0.0;
  for (const double v : values) {
    if (!(v > 0.0) || !std::isfinite(v)) {
      throw std::domain_error("geomean of a non-positive value");
    }
    logSum += std::log(v);
  }
  return std::exp(logSum / static_cast<double>(values.size()));
}

/// A ratio that always travels with its base, so "0.5" can be told apart
/// from "1 of 2" and "0 of 0" reads as no data rather than as a zero rate.
struct Ratio {
  double part = 0.0;
  double base = 0.0;
  [[nodiscard]] bool defined() const { return base > 0.0; }
  [[nodiscard]] double value() const { return defined() ? part / base : 0.0; }
};

/// Per-request record of one open-loop run.
struct OpenLoopSample {
  double latencyMs = 0.0;  ///< completion minus due time
  double lateMs = 0.0;     ///< send time minus due time (generator lateness)
};

/// Open-loop load: request i is due at start + dueMs[i], whether or not the
/// earlier ones have finished. `connections` threads take requests in due
/// order; a thread that is still busy when the next request falls due sends
/// it late, and that wait is part of the request's latency — latency is
/// completion minus DUE time, never minus send time, so one stalled
/// response shows up in every request queued behind it. `execute(i)` runs
/// request i on the calling thread and must not throw (record failures
/// instead). Returns one sample per request.
inline std::vector<OpenLoopSample> runOpenLoop(
    const std::vector<double>& dueMs, int connections,
    const std::function<void(std::size_t)>& execute) {
  using Clock = std::chrono::steady_clock;
  std::vector<OpenLoopSample> samples(dueMs.size());
  std::atomic<std::size_t> next{0};
  const Clock::time_point start = Clock::now();
  const auto msSinceStart = [&start](Clock::time_point t) {
    return std::chrono::duration<double, std::milli>(t - start).count();
  };
  const auto worker = [&] {
    for (std::size_t i = next.fetch_add(1); i < dueMs.size();
         i = next.fetch_add(1)) {
      std::this_thread::sleep_until(
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double, std::milli>(dueMs[i])));
      samples[i].lateMs = std::max(0.0, msSinceStart(Clock::now()) - dueMs[i]);
      execute(i);
      samples[i].latencyMs = msSinceStart(Clock::now()) - dueMs[i];
    }
  };
  std::vector<std::thread> threads;
  for (int c = 1; c < connections; ++c) threads.emplace_back(worker);
  worker();
  for (std::thread& t : threads) t.join();
  return samples;
}

}  // namespace idesbench
