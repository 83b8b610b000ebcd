// Deterministic fault injection for crash/slowness testing.
//
// The sweep fabric's robustness claims ("a SIGKILLed worker costs one
// lease timeout, not the sweep"; "a worker slower than the lease is never
// reclaimed while alive") are only testable by actually killing and
// stalling real processes at precise points. This hook compiles into the
// production binaries but is completely inert unless the IDES_FAULT
// environment variable is set, so the tested binary IS the shipped binary.
//
// Spec grammar (comma-separated entries):
//
//   IDES_FAULT="<point>:<action>[:<arg>][,<point>:<action>[:<arg>]...]"
//
//   actions:
//     crash        raise(SIGKILL) — an un-catchable death, exactly what a
//                  kernel OOM kill or power loss looks like to peers
//     exit[:CODE]  _exit(CODE) without unwinding (default 70) — a crash
//                  that skips destructors but flushes nothing
//     stall[:SEC]  sleep SEC seconds (default 1.0) every time the point is
//                  hit — a worker slower than its lease
//
// Named points on the sweep participant path (store/work_queue.cpp):
//   post-claim     after a claim is won, before the instance runs
//   pre-complete   after the instance ran, before its record is published
//   mid-renewal    inside the lease renewal heartbeat, before each renew
// and in the durable writer every store record and work manifest goes
// through (util/durable_file.cpp):
//   pre-rename     after the tmp file is written and synced, before the
//                  rename that publishes it
//
// The spec is parsed once, on the first faultPoint() call; a malformed
// spec aborts loudly at that moment rather than silently disabling the
// fault a test depends on.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace ides {

struct FaultSpec {
  enum class Action { Crash, Exit, Stall };
  std::string point;
  Action action = Action::Crash;
  double arg = 0.0;  ///< exit code or stall seconds
};

/// Parses one IDES_FAULT value. Throws std::invalid_argument naming the
/// offending entry on malformed input.
std::vector<FaultSpec> parseFaultSpec(std::string_view text);

/// First spec matching `point` in `specs`, or nullopt.
std::optional<FaultSpec> findFault(const std::vector<FaultSpec>& specs,
                                   std::string_view point);

/// Executes one spec's action: crash and exit do not return; stall sleeps
/// and returns. Exposed for tests (stall) — production code goes through
/// faultPoint().
void executeFault(const FaultSpec& spec);

/// The production hook: no-op unless IDES_FAULT names `point`. The env var
/// is read and parsed once per process (first call).
void faultPoint(std::string_view point);

/// True when IDES_FAULT is set and non-empty (diagnostics/log lines).
bool faultInjectionActive();

}  // namespace ides
