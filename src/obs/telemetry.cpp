#include "obs/telemetry.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <mutex>
#include <stdexcept>

#include "util/json_reader.h"

namespace ides {

namespace {

bool envSaysOff() {
  const char* env = std::getenv("IDES_TELEMETRY");
  if (env == nullptr) return false;
  const std::string_view v(env);
  return v == "off" || v == "0" || v == "false";
}

std::atomic<bool>& enabledFlag() {
  static std::atomic<bool> flag{!envSaysOff()};
  return flag;
}

std::string formatDouble(double v) {
  char buf[64];
  // %.10g keeps sums exact for the integer-valued case and round-trips
  // typical latencies; exposition format has no precision mandate.
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

/// Label value escaping per the exposition format: backslash, quote, \n.
std::string escapeLabelValue(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (const char c : value) {
    if (c == '\\') {
      out += "\\\\";
    } else if (c == '"') {
      out += "\\\"";
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

/// `{k="v",k2="v2"}` from sorted labels, or "" when unlabelled. Doubles as
/// the series key inside a family.
std::string renderLabels(const MetricLabels& labels) {
  if (labels.empty()) return {};
  std::string out = "{";
  for (std::size_t i = 0; i < labels.size(); ++i) {
    if (i > 0) out += ",";
    out += labels[i].first + "=\"" + escapeLabelValue(labels[i].second) + "\"";
  }
  out += "}";
  return out;
}

/// Same, with an extra `le` label spliced in (histogram bucket lines).
std::string renderLabelsWithLe(const MetricLabels& labels,
                               const std::string& le) {
  std::string out = "{";
  for (const auto& [k, v] : labels) {
    out += k + "=\"" + escapeLabelValue(v) + "\",";
  }
  out += "le=\"" + le + "\"}";
  return out;
}

}  // namespace

bool telemetryEnabled() {
  return enabledFlag().load(std::memory_order_relaxed);
}

void setTelemetryEnabled(bool enabled) {
  enabledFlag().store(enabled, std::memory_order_relaxed);
}

namespace obs_detail {

std::size_t threadShardIndex() {
  static std::atomic<std::size_t> next{0};
  const thread_local std::size_t shard =
      next.fetch_add(1, std::memory_order_relaxed) & (kShards - 1);
  return shard;
}

void addDouble(std::atomic<double>& target, double delta) {
  double current = target.load(std::memory_order_relaxed);
  while (!target.compare_exchange_weak(current, current + delta,
                                       std::memory_order_relaxed)) {
  }
}

}  // namespace obs_detail

// ---- Counter --------------------------------------------------------------

std::uint64_t Counter::value() const {
  std::uint64_t total = 0;
  for (const obs_detail::CounterCell& cell : cells_) {
    total += cell.value.load(std::memory_order_relaxed);
  }
  return total;
}

void Counter::reset() {
  for (obs_detail::CounterCell& cell : cells_) {
    cell.value.store(0, std::memory_order_relaxed);
  }
}

// ---- Histogram ------------------------------------------------------------

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  std::sort(bounds_.begin(), bounds_.end());
  bounds_.erase(std::unique(bounds_.begin(), bounds_.end()), bounds_.end());
  const std::size_t buckets = bounds_.size() + 1;  // +Inf on top
  for (Shard& shard : shards_) {
    shard.buckets = std::make_unique<std::atomic<std::uint64_t>[]>(buckets);
    for (std::size_t i = 0; i < buckets; ++i) shard.buckets[i] = 0;
  }
}

std::size_t Histogram::bucketIndex(double v) const {
  // Upper-bound buckets are inclusive (`le`), matching Prometheus.
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  return static_cast<std::size_t>(it - bounds_.begin());
}

Histogram::Snapshot Histogram::snapshot() const {
  Snapshot snap;
  snap.bucketCounts.assign(bounds_.size() + 1, 0);
  for (const Shard& shard : shards_) {
    for (std::size_t i = 0; i < snap.bucketCounts.size(); ++i) {
      snap.bucketCounts[i] += shard.buckets[i].load(std::memory_order_relaxed);
    }
    snap.count += shard.count.load(std::memory_order_relaxed);
    snap.sum += shard.sum.load(std::memory_order_relaxed);
  }
  return snap;
}

void Histogram::reset() {
  for (Shard& shard : shards_) {
    for (std::size_t i = 0; i < bounds_.size() + 1; ++i) {
      shard.buckets[i].store(0, std::memory_order_relaxed);
    }
    shard.count.store(0, std::memory_order_relaxed);
    shard.sum.store(0.0, std::memory_order_relaxed);
  }
}

// ---- TelemetryRegistry ----------------------------------------------------

struct TelemetryRegistry::Impl {
  enum class Kind { Counter, Gauge, Histogram };

  struct Series {
    MetricLabels labels;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  struct Family {
    Kind kind = Kind::Counter;
    std::string help;
    std::vector<double> bounds;              // histograms only
    std::map<std::string, Series> series;    // keyed by rendered labels
  };

  mutable std::mutex mutex;
  std::map<std::string, Family> families;

  Family& familyFor(std::string_view name, std::string_view help, Kind kind) {
    auto [it, inserted] = families.try_emplace(std::string(name));
    Family& family = it->second;
    if (inserted) {
      family.kind = kind;
      family.help = std::string(help);
    } else if (family.kind != kind) {
      throw std::logic_error("telemetry: metric \"" + std::string(name) +
                             "\" re-registered with a different kind");
    }
    return family;
  }
};

TelemetryRegistry::TelemetryRegistry() : impl_(std::make_unique<Impl>()) {}
TelemetryRegistry::~TelemetryRegistry() = default;

Counter& TelemetryRegistry::counter(std::string_view name,
                                    std::string_view help,
                                    MetricLabels labels) {
  std::sort(labels.begin(), labels.end());
  std::lock_guard<std::mutex> lock(impl_->mutex);
  Impl::Family& family = impl_->familyFor(name, help, Impl::Kind::Counter);
  auto [it, inserted] = family.series.try_emplace(renderLabels(labels));
  if (inserted) {
    it->second.labels = std::move(labels);
    it->second.counter = std::make_unique<Counter>();
  }
  return *it->second.counter;
}

Gauge& TelemetryRegistry::gauge(std::string_view name, std::string_view help,
                                MetricLabels labels) {
  std::sort(labels.begin(), labels.end());
  std::lock_guard<std::mutex> lock(impl_->mutex);
  Impl::Family& family = impl_->familyFor(name, help, Impl::Kind::Gauge);
  auto [it, inserted] = family.series.try_emplace(renderLabels(labels));
  if (inserted) {
    it->second.labels = std::move(labels);
    it->second.gauge = std::make_unique<Gauge>();
  }
  return *it->second.gauge;
}

Histogram& TelemetryRegistry::histogram(std::string_view name,
                                        std::string_view help,
                                        std::vector<double> bounds,
                                        MetricLabels labels) {
  std::sort(labels.begin(), labels.end());
  std::lock_guard<std::mutex> lock(impl_->mutex);
  Impl::Family& family = impl_->familyFor(name, help, Impl::Kind::Histogram);
  if (family.series.empty()) family.bounds = bounds;
  auto [it, inserted] = family.series.try_emplace(renderLabels(labels));
  if (inserted) {
    it->second.labels = std::move(labels);
    // The family's first bounds win: every series in a family shares one
    // bucket layout, as the exposition format requires.
    it->second.histogram = std::make_unique<Histogram>(family.bounds);
  }
  return *it->second.histogram;
}

std::string TelemetryRegistry::prometheusText() const {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  std::string out;
  for (const auto& [name, family] : impl_->families) {
    out += "# HELP " + name + " " + family.help + "\n";
    out += "# TYPE " + name + " ";
    switch (family.kind) {
      case Impl::Kind::Counter: out += "counter"; break;
      case Impl::Kind::Gauge: out += "gauge"; break;
      case Impl::Kind::Histogram: out += "histogram"; break;
    }
    out += "\n";
    for (const auto& [key, series] : family.series) {
      if (family.kind == Impl::Kind::Counter) {
        out += name + key + " " + std::to_string(series.counter->value()) +
               "\n";
      } else if (family.kind == Impl::Kind::Gauge) {
        out += name + key + " " + std::to_string(series.gauge->value()) +
               "\n";
      } else {
        const Histogram::Snapshot snap = series.histogram->snapshot();
        const std::vector<double>& bounds = series.histogram->bounds();
        std::uint64_t cumulative = 0;
        for (std::size_t i = 0; i < bounds.size(); ++i) {
          cumulative += snap.bucketCounts[i];
          out += name + "_bucket" +
                 renderLabelsWithLe(series.labels, formatDouble(bounds[i])) +
                 " " + std::to_string(cumulative) + "\n";
        }
        cumulative += snap.bucketCounts[bounds.size()];
        out += name + "_bucket" + renderLabelsWithLe(series.labels, "+Inf") +
               " " + std::to_string(cumulative) + "\n";
        out += name + "_sum" + key + " " + formatDouble(snap.sum) + "\n";
        out += name + "_count" + key + " " + std::to_string(snap.count) +
               "\n";
      }
    }
  }
  return out;
}

std::string TelemetryRegistry::jsonSnapshot() const {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  std::string out = "{";
  bool firstFamily = true;
  for (const auto& [name, family] : impl_->families) {
    out += firstFamily ? "\n" : ",\n";
    firstFamily = false;
    out += "  " + jsonQuote(name) + ": {\"type\": \"";
    switch (family.kind) {
      case Impl::Kind::Counter: out += "counter"; break;
      case Impl::Kind::Gauge: out += "gauge"; break;
      case Impl::Kind::Histogram: out += "histogram"; break;
    }
    out += "\", \"series\": [";
    bool firstSeries = true;
    for (const auto& [key, series] : family.series) {
      out += firstSeries ? "" : ", ";
      firstSeries = false;
      out += "{\"labels\": {";
      for (std::size_t i = 0; i < series.labels.size(); ++i) {
        if (i > 0) out += ", ";
        out += jsonQuote(series.labels[i].first) + ": " +
               jsonQuote(series.labels[i].second);
      }
      out += "}";
      if (family.kind == Impl::Kind::Counter) {
        out += ", \"value\": " + std::to_string(series.counter->value());
      } else if (family.kind == Impl::Kind::Gauge) {
        out += ", \"value\": " + std::to_string(series.gauge->value());
      } else {
        const Histogram::Snapshot snap = series.histogram->snapshot();
        const std::vector<double>& bounds = series.histogram->bounds();
        out += ", \"count\": " + std::to_string(snap.count) +
               ", \"sum\": " + formatDouble(snap.sum) + ", \"buckets\": [";
        for (std::size_t i = 0; i < snap.bucketCounts.size(); ++i) {
          if (i > 0) out += ", ";
          const std::string le =
              i < bounds.size() ? formatDouble(bounds[i]) : "+Inf";
          out += "{\"le\": \"" + le +
                 "\", \"count\": " + std::to_string(snap.bucketCounts[i]) +
                 "}";
        }
        out += "]";
      }
      out += "}";
    }
    out += "]}";
  }
  out += "\n}";
  return out;
}

std::size_t TelemetryRegistry::familyCount() const {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  return impl_->families.size();
}

void TelemetryRegistry::resetAll() {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  for (auto& [name, family] : impl_->families) {
    for (auto& [key, series] : family.series) {
      if (series.counter) series.counter->reset();
      if (series.gauge) series.gauge->reset();
      if (series.histogram) series.histogram->reset();
    }
  }
}

TelemetryRegistry& telemetry() {
  // Leaked on purpose: instrumented code may run from atexit handlers and
  // detached threads; the registry must outlive every possible caller.
  static TelemetryRegistry* registry = new TelemetryRegistry();
  return *registry;
}

}  // namespace ides
