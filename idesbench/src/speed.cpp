#include "speed.h"

#include <time.h>

#include <algorithm>
#include <chrono>
#include <cstdint>

namespace idesbench {

namespace {

double threadCpuMs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) / 1e6;
}

}  // namespace

double speedKernelMs() {
  static const std::vector<std::uint32_t> source = [] {
    std::vector<std::uint32_t> v(1 << 15);
    std::uint32_t x = 2463534242u;  // xorshift32
    for (std::uint32_t& e : v) {
      x ^= x << 13;
      x ^= x >> 17;
      x ^= x << 5;
      e = x;
    }
    return v;
  }();
  // Allocated once: a fresh 128 KiB buffer per run would time the
  // allocator's page faults, which depend on what the process did before.
  static std::vector<std::uint32_t> work(source.size());
  const double t0 = threadCpuMs();
  std::copy(source.begin(), source.end(), work.begin());
  std::sort(work.begin(), work.end());
  return threadCpuMs() - t0;
}

double sampleSpeed(std::vector<double>& samplesMs, int runs) {
  const auto t0 = std::chrono::steady_clock::now();
  for (int r = 0; r < runs; ++r) samplesMs.push_back(speedKernelMs());
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace idesbench
