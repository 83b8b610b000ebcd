#include "core/metrics.h"

#include <algorithm>
#include <bit>
#include <iterator>
#include <numeric>
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

/// Best-fit-decreasing over run-length-encoded items and capacity counts
/// kept in units of `unit`, which divides every item: a container of
/// capacity c holds exactly the items a container of unit * floor(c / unit)
/// holds, so the counts hold floor(c / unit) and the packing runs on
/// value / unit. The unpacked total comes back in the items' own units.
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
std::int64_t bestFitUnpackedRuns(const DemandRuns& runs, std::int64_t unit,
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
  for (const auto& [value, runLength] : runs) {
    if (value <= 0) continue;
    const std::int64_t item = value / unit;
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
    unpacked += value * remaining;
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
  return bestFitUnpackedRuns(runs, 1, counts, log);
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

/// C1 for one resource class from its capacity counts, kept in units of
/// `unit` (a divisor of every value of `dist`), and their total in ticks
/// or bytes. Only the multiset enters the packing, and the demand and the
/// unpacked total stay in ticks or bytes, so any producer that maintains
/// the same multiset (notably IncrementalMetrics, in item units) gets the
/// exact same doubles as a fresh extraction in ticks. `counts` comes back
/// unchanged.
double c1PercentFromCounts(C1Scratch& scratch, CapacityCounts& counts,
                           std::int64_t unit, std::int64_t total,
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
      bestFitUnpackedRuns(scratch.runs, unit, counts, scratch.log);
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
  const double percent = c1PercentFromCounts(scratch, counts, 1, total, dist);
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

namespace {

/// The C1 counting unit of a resource class: the gcd of its item values,
/// at least 1. Every item of the demand stream is a multiple of it.
std::int64_t itemUnit(const DiscreteDistribution& dist) {
  std::int64_t unit = 0;
  for (const DiscreteDistribution::Entry& e : dist.entries()) {
    unit = std::gcd(unit, e.value);
  }
  return std::max<std::int64_t>(unit, 1);
}

}  // namespace

void IncrementalMetrics::rebuild(const PlatformState& state,
                                 const FutureProfile& profile) {
  profile.validate();
  profile_ = profile;
  c1pUnit_ = itemUnit(profile.wcetDistribution);
  c1mUnit_ = itemUnit(profile.messageSizeDistribution);
  bus_ = &state.bus();
  horizon_ = state.horizon();
  tmin_ = profile.tmin;
  windows_ = horizon_ / tmin_;
  bytesPerTick_ = bus_->bytesPerTick();
  roundCount_ = state.roundCount();

  // The empty platform (no record, one free gap per node, every
  // occurrence free), then the state's occupancy through the edits.
  const std::size_t nodes = state.nodeCount();
  nodeRecords_.resize(nodes);
  for (std::vector<NodeRecord>& records : nodeRecords_) records.clear();
  nodeWin_.assign(nodes * static_cast<std::size_t>(windows_), tmin_);
  c1pCounts_.reset(horizon_ / c1pUnit_);
  c1pTotal_ = 0;
  for (std::size_t n = 0; n < nodes; ++n) addFree(horizon_);

  const std::size_t slots = bus_->slotCount();
  const std::size_t occurrences = slots * static_cast<std::size_t>(roundCount_);
  slotUsed_.assign(occurrences, 0);
  untaggedUsed_.assign(occurrences, 0);
  busRecords_.resize(occurrences);
  for (std::vector<BusRecord>& records : busRecords_) records.clear();
  busWin_.assign(static_cast<std::size_t>(windows_), 0);
  Time longestSlot = 0;
  for (std::size_t s = 0; s < slots; ++s) {
    longestSlot = std::max(longestSlot, bus_->slot(s).length);
  }
  c1mCounts_.reset(longestSlot * bytesPerTick_ / c1mUnit_);
  c1mTotal_ = 0;
  for (std::size_t s = 0; s < slots; ++s) {
    const Time len = bus_->slot(s).length;
    const std::int64_t units = len * bytesPerTick_ / c1mUnit_;
    if (units > 0 && roundCount_ > 0) {
      c1mCounts_.add(units, static_cast<std::int32_t>(roundCount_));
    }
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

namespace {

/// Orders node records by start, for the binary searches of the edits.
bool startsBefore(const IncrementalMetrics::NodeRecord& rec, Time start) {
  return rec.start < start;
}

}  // namespace

void IncrementalMetrics::occupyNode(NodeId node, Interval iv,
                                    std::uint32_t tag) {
  if (iv.empty() || iv.start < 0 || iv.end > horizon_) {
    throw std::logic_error("occupyNode: interval outside horizon");
  }
  const auto n = static_cast<std::size_t>(node.index());
  std::vector<NodeRecord>& records = nodeRecords_[n];
  // The gap the range must lie in runs from the end of the last record
  // starting before it to the start of the next one.
  const auto next =
      std::lower_bound(records.begin(), records.end(), iv.start, startsBefore);
  const Time gapStart = next == records.begin() ? 0 : std::prev(next)->end;
  const Time gapEnd = next == records.end() ? horizon_ : next->start;
  if (gapStart > iv.start || gapEnd < iv.end) {
    throw std::logic_error("occupyNode: range is not free");
  }
  removeFree(gapEnd - gapStart);
  addFree(iv.start - gapStart);
  addFree(gapEnd - iv.end);
  records.insert(next, {iv.start, iv.end, tag});
  addToWindows(nodeWin_.data() + n * static_cast<std::size_t>(windows_),
               iv.start, iv.end, -1);
}

void IncrementalMetrics::releaseNode(NodeId node, Interval iv) {
  if (iv.empty() || iv.start < 0 || iv.end > horizon_) {
    throw std::logic_error("releaseNode: interval outside horizon");
  }
  const auto n = static_cast<std::size_t>(node.index());
  std::vector<NodeRecord>& records = nodeRecords_[n];
  const auto rec =
      std::lower_bound(records.begin(), records.end(), iv.start, startsBefore);
  if (rec == records.end() || rec->start != iv.start || rec->end != iv.end) {
    throw std::logic_error("releaseNode: range is not one record");
  }
  // The gaps on both sides merge into the one between the neighbours.
  const Time gapStart = rec == records.begin() ? 0 : std::prev(rec)->end;
  const Time gapEnd =
      std::next(rec) == records.end() ? horizon_ : std::next(rec)->start;
  removeFree(iv.start - gapStart);
  removeFree(gapEnd - iv.end);
  addFree(gapEnd - gapStart);
  records.erase(rec);
  addToWindows(nodeWin_.data() + n * static_cast<std::size_t>(windows_),
               iv.start, iv.end, 1);
}

void IncrementalMetrics::occupyBus(std::size_t slotIndex, std::int64_t round,
                                   Time txTicks, std::uint32_t tag) {
  if (round < 0 || round >= roundCount_) {
    throw std::logic_error("occupyBus: round outside horizon");
  }
  if (txTicks <= 0) throw std::logic_error("occupyBus: txTicks <= 0");
  const std::size_t occ = occurrence(slotIndex, round);
  const Time used = slotUsed_[occ];
  if (used + txTicks > bus_->slot(slotIndex).length) {
    throw std::logic_error("occupyBus: slot overflow");
  }
  if (tag == kUntagged) {
    untaggedUsed_[occ] += txTicks;
  } else {
    busRecords_[occ].push_back({tag, txTicks});
  }
  setUsed(slotIndex, round, used + txTicks);
}

void IncrementalMetrics::releaseBus(std::size_t slotIndex, std::int64_t round,
                                    Time txTicks, std::uint32_t tag) {
  if (round < 0 || round >= roundCount_) {
    throw std::logic_error("releaseBus: round outside horizon");
  }
  if (txTicks <= 0) throw std::logic_error("releaseBus: txTicks <= 0");
  const std::size_t occ = occurrence(slotIndex, round);
  if (tag == kUntagged) {
    if (txTicks > untaggedUsed_[occ]) {
      throw std::logic_error(
          "releaseBus: more ticks than the occurrence holds");
    }
    untaggedUsed_[occ] -= txTicks;
  } else {
    // A job's inputs can share an occurrence: match the ticks too.
    std::vector<BusRecord>& records = busRecords_[occ];
    const auto rec = std::find_if(
        records.begin(), records.end(), [tag, txTicks](const BusRecord& r) {
          return r.tag == tag && r.ticks == txTicks;
        });
    if (rec == records.end()) {
      throw std::logic_error("releaseBus: no such record");
    }
    records.erase(rec);
  }
  setUsed(slotIndex, round, slotUsed_[occ] - txTicks);
}

void IncrementalMetrics::setUsed(std::size_t slotIndex, std::int64_t round,
                                 Time newUsed) {
  Time& used = slotUsed_[occurrence(slotIndex, round)];
  const Time len = bus_->slot(slotIndex).length;
  const std::int64_t oldBytes = (len - used) * bytesPerTick_;
  const std::int64_t newBytes = (len - newUsed) * bytesPerTick_;
  if (oldBytes / c1mUnit_ > 0) c1mCounts_.remove(oldBytes / c1mUnit_);
  if (newBytes / c1mUnit_ > 0) c1mCounts_.add(newBytes / c1mUnit_);
  c1mTotal_ += newBytes - oldBytes;
  // The occurrence's free chunk is [slotStart + used, slotStart + len);
  // only the span between the two used marks flips state.
  const Time slotStart = bus_->slotStart(round, slotIndex);
  addToWindows(busWin_.data(), slotStart + std::min(used, newUsed),
               slotStart + std::max(used, newUsed),
               newUsed > used ? -1 : 1);
  used = newUsed;
}

DesignMetrics IncrementalMetrics::metrics() {
  DesignMetrics m;
  C1Scratch& scratch = c1Scratch();
  m.c1p = c1PercentFromCounts(scratch, c1pCounts_, c1pUnit_, c1pTotal_,
                              profile_.wcetDistribution);
  m.c1m = c1PercentFromCounts(scratch, c1mCounts_, c1mUnit_, c1mTotal_,
                              profile_.messageSizeDistribution);
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
  info.nodeFree.resize(nodeRecords_.size());
  for (std::size_t n = 0; n < nodeRecords_.size(); ++n) {
    IntervalSet& free = info.nodeFree[n];
    free.clear();
    Time cursor = 0;
    for (const NodeRecord& rec : nodeRecords_[n]) {
      free.append({cursor, rec.start});
      cursor = rec.end;
    }
    free.append({cursor, horizon_});
  }
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
