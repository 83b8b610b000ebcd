// In-memory span recorder of the traced run.
//
// Spans are recorded by the benchmark's own code around each call it makes
// into a layer of the library (name "<layer>.<what>", start, end, parent),
// kept in memory, and written out as Chrome trace JSON when the run ends.
// Per-layer timings, call counts and self time are all derived from the
// recorded spans. When the recorder is disabled — every untraced run — a
// Span is two branches and records nothing.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace idesbench {

struct SpanRecord {
  std::string name;    ///< "<layer>.<what>"
  std::int64_t startNs = 0;
  std::int64_t endNs = 0;
  int parent = -1;     ///< index into the record list, -1 for a root
  std::size_t items = 1;  ///< work items inside (batched calls)
  unsigned thread = 0;
};

class SpanRecorder {
 public:
  [[nodiscard]] bool enabled() const { return enabled_; }
  void setEnabled(bool on) { enabled_ = on; }

  /// Opens a span on the calling thread; returns its index (-1 when off).
  int open(const std::string& name);
  /// Closes span `index`, recording `items` units of work inside it.
  void close(int index, std::size_t items);

  [[nodiscard]] std::vector<SpanRecord> records() const;
  [[nodiscard]] std::size_t count() const;

  /// Durations (ms) of the closed spans named `name` recorded at index
  /// `from` or later.
  [[nodiscard]] std::vector<double> durationsMs(const std::string& name,
                                                std::size_t from = 0) const;

  /// Self time per layer (ms): each span's duration minus the part covered
  /// by its children, summed over the layer named by the span's prefix.
  [[nodiscard]] std::map<std::string, double> selfTimeMsByLayer() const;

  /// Chrome trace-event JSON ("X" events, µs), loadable in Perfetto.
  [[nodiscard]] std::string chromeJson() const;

 private:
  bool enabled_ = false;
  mutable std::mutex mutex_;
  std::vector<SpanRecord> spans_;
};

/// The process-wide recorder.
SpanRecorder& spans();

/// RAII span around one layer call. `items` may be raised before the span
/// closes when it wraps a batch of calls.
class Span {
 public:
  explicit Span(const std::string& name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  std::size_t items = 1;

 private:
  int index_ = -1;
  int savedParent_ = -1;
};

}  // namespace idesbench
