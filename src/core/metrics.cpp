#include "core/metrics.h"

#include <algorithm>
#include <bit>
#include <iterator>
#include <stdexcept>
#include <utility>
#include <vector>

namespace ides {

namespace {

/// (value, count) runs of the trimmed largest-future-demand stream,
/// descending by value — the compact form of largestFutureDemand that the
/// hot path consumes without materializing one element per item.
using DemandRuns = std::vector<std::pair<std::int64_t, std::int64_t>>;

/// Buffers of the deterministic quotas behind a demand stream.
struct QuotaScratch {
  std::vector<std::size_t> quotas;
  DiscreteDistribution::QuotaRemainders remainders;
};

/// Fills `runs` with the demand stream for `totalSlack`. The deterministic
/// stream is runs of identical values in descending order (largest-
/// remainder quotas per entry), and the greedy trim keeps a prefix of every
/// run: once sum + v overflows, every later item of the same value
/// overflows too. This runs twice per evaluation — thousands of times per
/// optimization — on streams of ~10^3 items; with `quotas` reused across
/// calls it allocates nothing.
void demandRunsInto(const DiscreteDistribution& dist, std::int64_t totalSlack,
                    DemandRuns& runs, QuotaScratch& quotaScratch) {
  runs.clear();
  if (totalSlack <= 0) return;
  const double expected = dist.expectedValue();
  const auto bound = static_cast<std::size_t>(
      static_cast<double>(totalSlack) / std::max(1.0, expected) +
      static_cast<double>(dist.entries().size()) + 8);
  dist.deterministicQuotasInto(bound, quotaScratch.quotas,
                               quotaScratch.remainders);
  const std::vector<std::size_t>& quotas = quotaScratch.quotas;
  const auto& entries = dist.entries();
  std::int64_t sum = 0;
  for (std::size_t i = entries.size(); i > 0; --i) {
    const std::int64_t v = entries[i - 1].value;
    if (v <= 0) continue;
    const auto room = static_cast<std::int64_t>((totalSlack - sum) / v);
    const std::int64_t take =
        std::min(static_cast<std::int64_t>(quotas[i - 1]), room);
    if (take > 0) {
      runs.emplace_back(v, take);
      sum += take * v;
    }
  }
}

/// One edit the packing made to the capacity counts: `copies` containers
/// of capacity `value` added (negative: removed).
struct CountEdit {
  std::int64_t value = 0;
  std::int32_t copies = 0;
};

/// Best-fit-decreasing over run-length-encoded items and capacity counts.
/// Equivalent to placing the items one by one into the fullest container
/// that still takes them: after placing v into the smallest capacity
/// c >= v, the remainder c - v is strictly smaller than every other
/// candidate, so the same container keeps absorbing items of the run until
/// it drops below v. Each copy of capacity c therefore takes floor(c / v)
/// items and leaves c mod v, which no later item of the run fits, so a run
/// consumes whole capacity classes, walking the present capacities upward
/// from v; only the copy it ends in keeps a partly used leftover >= v. The
/// remainders (< v) and the leftover (< c, and the run ends there) land
/// below the walk, so they are written into the same counts as it goes:
/// no copy of the multiset, no sort, no merge. Every edit is logged and the
/// log is undone before returning, so `counts` comes back unchanged.
std::int64_t bestFitUnpackedRuns(const DemandRuns& runs,
                                 CapacityCounts& counts,
                                 std::vector<CountEdit>& log) {
  log.clear();
  const auto edit = [&](std::int64_t value, std::int64_t copies) {
    const auto n = static_cast<std::int32_t>(copies);
    if (n > 0) {
      counts.add(value, n);
    } else {
      counts.remove(value, -n);
    }
    log.push_back({value, n});
  };
  std::int64_t unpacked = 0;
  for (const auto& [item, runLength] : runs) {
    if (item <= 0) continue;
    std::int64_t remaining = runLength;
    for (std::int64_t capacity = counts.firstAtLeast(item);
         capacity >= 0 && remaining > 0;
         capacity = counts.firstAtLeast(capacity + 1)) {
      const std::int64_t copies = counts.count(capacity);
      const std::int64_t perCopy = capacity / item;
      const std::int64_t rest = capacity % item;
      if (remaining >= copies * perCopy) {
        remaining -= copies * perCopy;
        edit(capacity, -copies);
        if (rest > 0) edit(rest, copies);
        continue;
      }
      // The run ends inside this class: `full` copies are used up and one
      // more takes the last `remaining % perCopy` items.
      const std::int64_t full = remaining / perCopy;
      const std::int64_t partial = remaining % perCopy;
      edit(capacity, -(full + (partial > 0 ? 1 : 0)));
      if (rest > 0 && full > 0) edit(rest, full);
      if (partial > 0) edit(capacity - partial * item, 1);
      remaining = 0;
      break;
    }
    unpacked += item * remaining;
  }
  for (auto it = log.rbegin(); it != log.rend(); ++it) {
    if (it->copies > 0) {
      counts.remove(it->value, it->copies);
    } else {
      counts.add(it->value, -it->copies);
    }
  }
  return unpacked;
}

}  // namespace

std::int64_t CapacityCounts::firstAtLeast(std::int64_t value) const {
  const auto v = static_cast<std::size_t>(std::max<std::int64_t>(value, 0));
  if (v >= counts_.size()) return -1;
  std::size_t w = v >> 6;
  std::uint64_t bits = words_[w] & (~std::uint64_t{0} << (v & 63));
  if (bits == 0) {
    // The next non-empty word, found through the summary: one read skips
    // 64 words.
    ++w;
    std::size_t s = w >> 6;
    if (s >= summary_.size()) return -1;
    std::uint64_t present = summary_[s] & (~std::uint64_t{0} << (w & 63));
    while (present == 0) {
      if (++s == summary_.size()) return -1;
      present = summary_[s];
    }
    w = (s << 6) + static_cast<std::size_t>(std::countr_zero(present));
    bits = words_[w];
  }
  return static_cast<std::int64_t>(
      (w << 6) + static_cast<std::size_t>(std::countr_zero(bits)));
}

void CapacityCounts::reset(std::int64_t maxValue) {
  const auto size = static_cast<std::size_t>(maxValue) + 1;
  counts_.assign(size, 0);
  words_.assign((size + 63) / 64, 0);
  summary_.assign((words_.size() + 63) / 64, 0);
}

std::vector<std::int64_t> largestFutureDemand(const DiscreteDistribution& dist,
                                              std::int64_t totalSlack) {
  DemandRuns runs;
  QuotaScratch quotaScratch;
  demandRunsInto(dist, totalSlack, runs, quotaScratch);
  std::vector<std::int64_t> out;
  for (const auto& [value, count] : runs) {
    out.insert(out.end(), static_cast<std::size_t>(count), value);
  }
  return out;  // descending, exactly the trimmed deterministic stream
}

std::int64_t bestFitUnpacked(const std::vector<std::int64_t>& itemsDesc,
                             const std::vector<std::int64_t>& containers) {
  DemandRuns runs;
  for (const std::int64_t item : itemsDesc) {
    if (!runs.empty() && runs.back().first == item) {
      runs.back().second += 1;
    } else {
      runs.emplace_back(item, 1);
    }
  }
  std::int64_t largest = 0;
  for (const std::int64_t c : containers) largest = std::max(largest, c);
  CapacityCounts counts;
  counts.reset(largest);
  for (const std::int64_t c : containers) {
    if (c > 0) counts.add(c);
  }
  std::vector<CountEdit> log;
  return bestFitUnpackedRuns(runs, counts, log);
}

namespace {

/// Per-thread scratch for the C1 computation: evaluated once per candidate
/// solution, the container/demand buffers would otherwise be re-allocated
/// thousands of times per optimization run. `counts` is empty between
/// calls.
struct C1Scratch {
  std::vector<std::int64_t> containers;
  DemandRuns runs;
  QuotaScratch quotas;
  CapacityCounts counts;
  std::vector<CountEdit> log;
};

C1Scratch& c1Scratch() {
  static thread_local C1Scratch scratch;
  return scratch;
}

/// C1 for one resource class from its capacity counts and their total.
/// Only the multiset enters the packing, so any producer that maintains
/// the same multiset (notably IncrementalMetrics) gets the exact same
/// doubles as a fresh extraction. `counts` comes back unchanged.
double c1PercentFromCounts(C1Scratch& scratch, CapacityCounts& counts,
                           std::int64_t total,
                           const DiscreteDistribution& dist) {
  demandRunsInto(dist, total, scratch.runs, scratch.quotas);
  std::int64_t demand = 0;
  for (const auto& [value, count] : scratch.runs) demand += value * count;
  if (demand == 0) {
    // No future item fits even in contiguous slack: the design alternative
    // leaves no usable slack at all.
    return total > 0 ? 0.0 : 100.0;
  }
  const std::int64_t unpacked =
      bestFitUnpackedRuns(scratch.runs, counts, scratch.log);
  return 100.0 * static_cast<double>(unpacked) / static_cast<double>(demand);
}

/// C1 for one resource class: slack containers vs. the deterministic
/// largest-future-application demand. Returns percent unpacked. The
/// containers pass through scratch.counts, which is left empty again.
double c1Percent(C1Scratch& scratch, const DiscreteDistribution& dist) {
  std::int64_t total = 0;
  std::int64_t largest = 0;
  for (const std::int64_t c : scratch.containers) {
    total += c;
    largest = std::max(largest, c);
  }
  CapacityCounts& counts = scratch.counts;
  if (counts.maxValue() < largest) counts.reset(largest);
  for (const std::int64_t c : scratch.containers) {
    if (c > 0) counts.add(c);
  }
  const double percent = c1PercentFromCounts(scratch, counts, total, dist);
  for (const std::int64_t c : scratch.containers) {
    if (c > 0) counts.remove(c);
  }
  return percent;
}

}  // namespace

DesignMetrics computeMetrics(const SlackInfo& slack,
                             const FutureProfile& profile) {
  profile.validate();
  DesignMetrics m;
  C1Scratch& scratch = c1Scratch();

  // ---- C1P: processor slack intervals as containers ----------------------
  scratch.containers.clear();
  for (const IntervalSet& free : slack.nodeFree) {
    for (const Interval& iv : free.intervals()) {
      scratch.containers.push_back(iv.length());
    }
  }
  m.c1p = c1Percent(scratch, profile.wcetDistribution);

  // ---- C1m: per-slot-occurrence free bytes as containers -----------------
  scratch.containers.clear();
  for (const SlackInfo::BusChunk& c : slack.busChunks) {
    scratch.containers.push_back(c.freeTicks * slack.busBytesPerTick);
  }
  m.c1m = c1Percent(scratch, profile.messageSizeDistribution);

  // ---- C2: minimum slack inside any Tmin window ---------------------------
  const std::int64_t windows = slack.horizon / profile.tmin;
  if (windows > 0) {
    Time sumOfMins = 0;
    for (std::size_t n = 0; n < slack.nodeFree.size(); ++n) {
      Time nodeMin = kTimeMax;
      for (std::int64_t w = 0; w < windows; ++w) {
        nodeMin = std::min(
            nodeMin, slack.nodeSlackInWindow(n, w * profile.tmin,
                                             (w + 1) * profile.tmin));
      }
      sumOfMins += nodeMin;
    }
    m.c2p = sumOfMins;

    Time busMin = kTimeMax;
    for (std::int64_t w = 0; w < windows; ++w) {
      busMin = std::min(busMin, slack.busSlackInWindow(
                                    w * profile.tmin, (w + 1) * profile.tmin));
    }
    m.c2mBytes = busMin * slack.busBytesPerTick;
  }
  return m;
}

// ---- IncrementalMetrics ---------------------------------------------------

void IncrementalMetrics::rebuild(const PlatformState& state,
                                 const FutureProfile& profile) {
  bus_ = &state.bus();
  horizon_ = state.horizon();
  tmin_ = profile.tmin;
  windows_ = horizon_ / tmin_;
  bytesPerTick_ = bus_->bytesPerTick();
  roundCount_ = state.roundCount();

  // The empty platform (one free member per node, every occurrence free),
  // then the state's occupancy through the edits.
  const std::size_t nodes = state.nodeCount();
  nodeFree_.assign(nodes, IntervalSet({{0, horizon_}}));
  nodeWin_.assign(nodes * static_cast<std::size_t>(windows_), tmin_);
  c1pCounts_.reset(horizon_);
  c1pTotal_ = 0;
  for (std::size_t n = 0; n < nodes; ++n) addFree(horizon_);

  const std::size_t slots = bus_->slotCount();
  slotUsed_.assign(slots * static_cast<std::size_t>(roundCount_), 0);
  busWin_.assign(static_cast<std::size_t>(windows_), 0);
  Time longestSlot = 0;
  for (std::size_t s = 0; s < slots; ++s) {
    longestSlot = std::max(longestSlot, bus_->slot(s).length);
  }
  c1mCounts_.reset(longestSlot * bytesPerTick_);
  c1mTotal_ = 0;
  for (std::size_t s = 0; s < slots; ++s) {
    const Time len = bus_->slot(s).length;
    c1mCounts_.add(len * bytesPerTick_, static_cast<std::int32_t>(roundCount_));
    c1mTotal_ += len * bytesPerTick_ * roundCount_;
    for (std::int64_t r = 0; r < roundCount_; ++r) {
      const Time start = bus_->slotStart(r, s);
      addToWindows(busWin_.data(), start, start + len, 1);
    }
  }

  for (std::size_t n = 0; n < nodes; ++n) {
    const NodeId id{static_cast<std::int32_t>(n)};
    for (const Interval& iv : state.nodeBusy(id).intervals()) {
      occupyNode(id, iv);
    }
  }
  for (std::size_t s = 0; s < slots; ++s) {
    for (std::int64_t r = 0; r < roundCount_; ++r) {
      const Time used = state.slotUsedTicks(s, r);
      if (used > 0) occupyBus(s, r, used);
    }
  }
}

void IncrementalMetrics::addToWindows(Time* row, Time lo, Time hi,
                                      Time delta) const {
  hi = std::min<Time>(hi, windows_ * tmin_);
  for (std::int64_t w = lo / tmin_; w * tmin_ < hi; ++w) {
    row[w] += delta * (std::min(hi, (w + 1) * tmin_) - std::max(lo, w * tmin_));
  }
}

void IncrementalMetrics::occupyNode(NodeId node, Interval iv) {
  if (iv.empty() || iv.start < 0 || iv.end > horizon_) {
    throw std::logic_error("occupyNode: interval outside horizon");
  }
  const auto n = static_cast<std::size_t>(node.index());
  IntervalSet& free = nodeFree_[n];
  // The one free member that can hold the range: the last one starting at
  // or before it. It splits into what is left on either side.
  const std::vector<Interval>& members = free.intervals();
  const auto next = std::upper_bound(
      members.begin(), members.end(), iv.start,
      [](Time t, const Interval& m) { return t < m.start; });
  if (next == members.begin() || std::prev(next)->end < iv.end) {
    throw std::logic_error("occupyNode: range is not free");
  }
  const Interval gap = *std::prev(next);
  removeFree(gap.length());
  if (iv.start > gap.start) addFree(iv.start - gap.start);
  if (gap.end > iv.end) addFree(gap.end - iv.end);
  free.subtract(iv);
  addToWindows(nodeWin_.data() + n * static_cast<std::size_t>(windows_),
               iv.start, iv.end, -1);
}

void IncrementalMetrics::releaseNode(NodeId node, Interval iv) {
  if (iv.empty() || iv.start < 0 || iv.end > horizon_) {
    throw std::logic_error("releaseNode: interval outside horizon");
  }
  const auto n = static_cast<std::size_t>(node.index());
  IntervalSet& free = nodeFree_[n];
  // The range must fall between two free members; it merges with the ones
  // it touches.
  const std::vector<Interval>& members = free.intervals();
  const auto next = std::upper_bound(
      members.begin(), members.end(), iv.start,
      [](Time t, const Interval& m) { return t < m.start; });
  const bool hasPrev = next != members.begin();
  const bool hasNext = next != members.end();
  if ((hasPrev && std::prev(next)->end > iv.start) ||
      (hasNext && next->start < iv.end)) {
    throw std::logic_error("releaseNode: range is not busy");
  }
  Interval merged = iv;
  if (hasPrev && std::prev(next)->end == iv.start) {
    merged.start = std::prev(next)->start;
    removeFree(std::prev(next)->length());
  }
  if (hasNext && next->start == iv.end) {
    merged.end = next->end;
    removeFree(next->length());
  }
  addFree(merged.length());
  free.add(iv);
  addToWindows(nodeWin_.data() + n * static_cast<std::size_t>(windows_),
               iv.start, iv.end, 1);
}

void IncrementalMetrics::occupyBus(std::size_t slotIndex, std::int64_t round,
                                   Time txTicks) {
  if (round < 0 || round >= roundCount_) {
    throw std::logic_error("occupyBus: round outside horizon");
  }
  if (txTicks <= 0) throw std::logic_error("occupyBus: txTicks <= 0");
  const Time used = slotUsed_[occurrence(slotIndex, round)];
  if (used + txTicks > bus_->slot(slotIndex).length) {
    throw std::logic_error("occupyBus: slot overflow");
  }
  setUsed(slotIndex, round, used + txTicks);
}

void IncrementalMetrics::releaseBus(std::size_t slotIndex, std::int64_t round,
                                    Time txTicks) {
  if (round < 0 || round >= roundCount_) {
    throw std::logic_error("releaseBus: round outside horizon");
  }
  const Time used = slotUsed_[occurrence(slotIndex, round)];
  if (txTicks <= 0 || txTicks > used) {
    throw std::logic_error("releaseBus: more ticks than the occurrence holds");
  }
  setUsed(slotIndex, round, used - txTicks);
}

void IncrementalMetrics::setUsed(std::size_t slotIndex, std::int64_t round,
                                 Time newUsed) {
  Time& used = slotUsed_[occurrence(slotIndex, round)];
  const Time len = bus_->slot(slotIndex).length;
  const std::int64_t oldBytes = (len - used) * bytesPerTick_;
  const std::int64_t newBytes = (len - newUsed) * bytesPerTick_;
  if (oldBytes > 0) c1mCounts_.remove(oldBytes);
  if (newBytes > 0) c1mCounts_.add(newBytes);
  c1mTotal_ += newBytes - oldBytes;
  // The occurrence's free chunk is [slotStart + used, slotStart + len);
  // only the span between the two used marks flips state.
  const Time slotStart = bus_->slotStart(round, slotIndex);
  addToWindows(busWin_.data(), slotStart + std::min(used, newUsed),
               slotStart + std::max(used, newUsed),
               newUsed > used ? -1 : 1);
  used = newUsed;
}

DesignMetrics IncrementalMetrics::metrics(const FutureProfile& profile) {
  profile.validate();
  DesignMetrics m;
  C1Scratch& scratch = c1Scratch();
  m.c1p = c1PercentFromCounts(scratch, c1pCounts_, c1pTotal_,
                              profile.wcetDistribution);
  m.c1m = c1PercentFromCounts(scratch, c1mCounts_, c1mTotal_,
                              profile.messageSizeDistribution);
  if (windows_ > 0) {
    Time sumOfMins = 0;
    for (auto row = nodeWin_.begin(); row != nodeWin_.end();
         row += windows_) {
      sumOfMins += *std::min_element(row, row + windows_);
    }
    m.c2p = sumOfMins;
    m.c2mBytes = *std::min_element(busWin_.begin(), busWin_.end()) *
                 bytesPerTick_;
  }
  return m;
}

void IncrementalMetrics::slackInto(SlackInfo& info) const {
  info.horizon = horizon_;
  info.busBytesPerTick = bytesPerTick_;
  info.nodeFree = nodeFree_;
  info.busChunks.clear();
  for (std::int64_t r = 0; r < roundCount_; ++r) {
    for (std::size_t s = 0; s < bus_->slotCount(); ++s) {
      const Time used = slotUsed_[occurrence(s, r)];
      const Time freeTicks = bus_->slot(s).length - used;
      if (freeTicks <= 0) continue;
      info.busChunks.push_back({s, r, bus_->slotStart(r, s) + used, freeTicks});
    }
  }
}

double objectiveValue(const DesignMetrics& metrics,
                      const FutureProfile& profile,
                      const MetricWeights& weights) {
  const double p2p =
      100.0 *
      static_cast<double>(std::max<Time>(0, profile.tneed - metrics.c2p)) /
      static_cast<double>(profile.tneed);
  const double p2m =
      100.0 *
      static_cast<double>(
          std::max<std::int64_t>(0, profile.bneedBytes - metrics.c2mBytes)) /
      static_cast<double>(profile.bneedBytes);
  return weights.w1p * metrics.c1p + weights.w1m * metrics.c1m +
         weights.w2p * p2p + weights.w2m * p2m;
}

}  // namespace ides
