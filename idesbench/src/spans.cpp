#include "spans.h"

#include <atomic>
#include <cstdio>

namespace idesbench {

namespace {

thread_local int tlCurrent = -1;

std::int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

unsigned threadNumber() {
  static std::atomic<unsigned> counter{0};
  thread_local const unsigned number = counter.fetch_add(1);
  return number;
}

std::string layerOf(const std::string& name) {
  return name.substr(0, name.find('.'));
}

}  // namespace

SpanRecorder& spans() {
  static SpanRecorder recorder;
  return recorder;
}

int SpanRecorder::open(const std::string& name) {
  SpanRecord record;
  record.name = name;
  record.parent = tlCurrent;
  record.thread = threadNumber();
  record.startNs = nowNs();
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(std::move(record));
  return static_cast<int>(spans_.size() - 1);
}

void SpanRecorder::close(int index, std::size_t items) {
  const std::int64_t end = nowNs();
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_[static_cast<std::size_t>(index)].endNs = end;
  spans_[static_cast<std::size_t>(index)].items = items;
}

std::vector<SpanRecord> SpanRecorder::records() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

std::size_t SpanRecorder::count() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return spans_.size();
}

std::vector<double> SpanRecorder::durationsMs(const std::string& name,
                                              std::size_t from) const {
  std::vector<double> out;
  const std::lock_guard<std::mutex> lock(mutex_);
  for (std::size_t i = from; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    if (s.name == name && s.endNs > 0) {
      out.push_back(static_cast<double>(s.endNs - s.startNs) / 1e6);
    }
  }
  return out;
}

std::map<std::string, double> SpanRecorder::selfTimeMsByLayer() const {
  const std::vector<SpanRecord> all = records();
  std::vector<double> childNs(all.size(), 0.0);
  for (const SpanRecord& s : all) {
    if (s.parent >= 0 && s.endNs > 0) {
      childNs[static_cast<std::size_t>(s.parent)] +=
          static_cast<double>(s.endNs - s.startNs);
    }
  }
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < all.size(); ++i) {
    if (all[i].endNs <= 0) continue;
    const double own =
        static_cast<double>(all[i].endNs - all[i].startNs) - childNs[i];
    self[layerOf(all[i].name)] += own / 1e6;
  }
  return self;
}

std::string SpanRecorder::chromeJson() const {
  const std::vector<SpanRecord> all = records();
  const std::int64_t origin = all.empty() ? 0 : all.front().startNs;
  std::string out = "{\"traceEvents\": [\n";
  char buf[512];
  bool first = true;
  for (std::size_t i = 0; i < all.size(); ++i) {
    const SpanRecord& s = all[i];
    if (s.endNs <= 0) continue;
    std::snprintf(buf, sizeof(buf),
                  "%s{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                  "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": %u, "
                  "\"args\": {\"id\": %zu, \"parent\": %d, \"items\": %zu}}",
                  first ? "" : ",\n", s.name.c_str(), layerOf(s.name).c_str(),
                  static_cast<double>(s.startNs - origin) / 1e3,
                  static_cast<double>(s.endNs - s.startNs) / 1e3, s.thread, i,
                  s.parent, s.items);
    out += buf;
    first = false;
  }
  out += "\n]}\n";
  return out;
}

Span::Span(const std::string& name) {
  if (!spans().enabled()) return;
  savedParent_ = tlCurrent;
  index_ = spans().open(name);
  tlCurrent = index_;
}

Span::~Span() {
  if (index_ < 0) return;
  spans().close(index_, items);
  tlCurrent = savedParent_;
}

}  // namespace idesbench
