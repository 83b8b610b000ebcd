#include "obs/trace.h"

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <mutex>
#include <vector>

#include "util/json_reader.h"

namespace ides {

namespace {

struct TraceEvent {
  std::string name;
  const char* category;
  char phase;              // 'X' complete, 'i' instant
  std::uint64_t tsUs;
  std::uint64_t durUs;     // complete events only
  std::uint32_t tid;
};

struct TraceState {
  std::mutex mutex;
  std::vector<TraceEvent> events;
  std::string path;
  std::atomic<bool> enabled{false};
  bool atexitRegistered = false;
};

TraceState& state() {
  // Leaked on purpose, same rationale as the telemetry registry: spans may
  // close during atexit handlers.
  static TraceState* s = new TraceState();
  return *s;
}

std::uint64_t nowUs() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point start = Clock::now();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                            start)
          .count());
}

std::uint32_t threadTraceId() {
  static std::atomic<std::uint32_t> next{1};
  const thread_local std::uint32_t id =
      next.fetch_add(1, std::memory_order_relaxed);
  return id;
}

void ensureEnvChecked() {
  static const bool once = [] {
    const char* env = std::getenv("IDES_TRACE");
    if (env != nullptr && env[0] != '\0') {
      traceConfigure(env);
    }
    return true;
  }();
  (void)once;
}

void record(TraceEvent event) {
  TraceState& s = state();
  std::lock_guard<std::mutex> lock(s.mutex);
  if (!s.enabled.load(std::memory_order_relaxed)) return;  // raced a disable
  s.events.push_back(std::move(event));
}

}  // namespace

bool traceEnabled() {
  ensureEnvChecked();
  return state().enabled.load(std::memory_order_relaxed);
}

void traceConfigure(std::string path) {
  TraceState& s = state();
  std::lock_guard<std::mutex> lock(s.mutex);
  s.path = std::move(path);
  s.enabled.store(true, std::memory_order_relaxed);
  if (!s.atexitRegistered) {
    s.atexitRegistered = true;
    std::atexit([] { traceFlush(); });
  }
}

void traceDisable() {
  TraceState& s = state();
  std::lock_guard<std::mutex> lock(s.mutex);
  s.enabled.store(false, std::memory_order_relaxed);
  s.events.clear();
  s.path.clear();
}

std::string traceJson() {
  TraceState& s = state();
  std::lock_guard<std::mutex> lock(s.mutex);
  std::string out = "{\"traceEvents\": [";
  for (std::size_t i = 0; i < s.events.size(); ++i) {
    const TraceEvent& e = s.events[i];
    out += i == 0 ? "\n" : ",\n";
    out += "{\"name\": " + jsonQuote(e.name) + ", \"cat\": \"" +
           e.category + "\", \"ph\": \"" + e.phase + "\", \"ts\": " +
           std::to_string(e.tsUs) + ", ";
    if (e.phase == 'X') {
      out += "\"dur\": " + std::to_string(e.durUs) + ", ";
    } else {
      out += "\"s\": \"t\", ";
    }
    out += "\"pid\": 1, \"tid\": " + std::to_string(e.tid) + "}";
  }
  out += "\n]}\n";
  return out;
}

void traceFlush() {
  TraceState& s = state();
  std::string path;
  {
    std::lock_guard<std::mutex> lock(s.mutex);
    if (!s.enabled.load(std::memory_order_relaxed) || s.path.empty()) return;
    path = s.path;
  }
  const std::string json = traceJson();
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (out) out << json;
}

std::size_t traceEventCount() {
  TraceState& s = state();
  std::lock_guard<std::mutex> lock(s.mutex);
  return s.events.size();
}

void traceInstant(std::string_view name, const char* category) {
  if (!traceEnabled()) return;
  record({std::string(name), category, 'i', nowUs(), 0, threadTraceId()});
}

TraceSpan::TraceSpan(std::string name, const char* category) {
  if (!traceEnabled()) return;
  active_ = true;
  name_ = std::move(name);
  category_ = category;
  startUs_ = nowUs();
}

TraceSpan::~TraceSpan() {
  if (!active_) return;
  record({std::move(name_), category_, 'X', startUs_, nowUs() - startUs_,
          threadTraceId()});
}

}  // namespace ides
