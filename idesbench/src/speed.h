// Machine-speed gauge of a measured run.
//
// On a shared VM the host's load moves CPU-bound timings together: over ten
// design runs the run's MH job time tracked a fixed sort kernel's time with
// correlation 0.98, while the kernel's median ranged 2.3-3.1 ms. The
// in-process workloads (design, sweep, lifecycle) therefore time such a
// kernel — code of the benchmark's own, independent of the library under
// test — on the caller's thread while the workload is idle: between
// operations, or between sweep passes, never while an operation or a shard
// runs, so that nothing the library does (more threads, more cache) runs
// beside the yardstick. The kernel is timed in thread CPU time, so waiting
// for a busy core does not count. Times of operations that run on one
// thread are scaled by kReferenceKernelMs / median kernel time, which turns
// "ms on this host right now" into "ms at the reference speed". Over seven
// sweep runs, where each instance runs on one of 4 shards, this cut the
// spread of sa_ms from 0.125 to 0.038 and of ops_per_s from 0.113 to 0.049.
// Set-up runs before any of those samples and the speed drifts within a
// run, so each set-up repeat is scaled by kernel runs right after it
// (OpLog::recordSetup).
//
// Not scaled: PSA jobs, which spread one job over every core (design's
// op_p90_ms, among them, was uncorrelated with the kernel, r = 0.09, and
// spread 0.27 between runs scaled against 0.06 raw; a 4-thread kernel
// batch over-corrected the sweep, spread 0.24-0.33), and serve, whose
// operations run in the daemon and wait on loopback.
#pragma once

#include <vector>

namespace idesbench {

/// Kernel CPU time at the reference speed (ms): roughly one unloaded core
/// of the 4-core VM the bounds were set on.
inline constexpr double kReferenceKernelMs = 2.0;

/// One run of the kernel: sorts a fixed 32768-element array; returns its
/// thread CPU time (ms). Not thread-safe: one thread samples.
double speedKernelMs();

/// Runs the kernel `runs` times on the calling thread, appending each time
/// to `samplesMs`; returns the wall time spent (s). Call it only while the
/// workload is idle.
double sampleSpeed(std::vector<double>& samplesMs, int runs);

}  // namespace idesbench
