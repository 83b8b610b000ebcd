// Design criteria and metrics (paper slides 12-14).
//
// Criterion 1 — slack *size*: the slack left by the current design should be
// able to swallow the largest future application. We synthesize that
// application from the profile's histograms (the biggest one that would fit
// if all slack were contiguous) and best-fit pack it into the real slack
// fragments. C1P / C1m report the percentage (by demand) that does NOT fit:
// 0% for perfectly contiguous slack, large for fragmented slack.
//
// Criterion 2 — slack *distribution*: a future application with period Tmin
// needs tneed processor ticks and bneed bus bytes inside EVERY window of
// length Tmin. C2P is the sum over processors of the minimum in-window
// slack; C2m the same for the bus (in bytes).
//
// Objective (slide 14):
//   C = w1P*C1P + w1m*C1m
//     + w2P*max(0, tneed - C2P)/tneed*100
//     + w2m*max(0, bneed - C2m)/bneed*100
// The penalty terms are normalized to percent of the need so all four terms
// share a scale; the paper gives the un-normalized form and leaves weights
// unspecified (see DESIGN.md).
#pragma once

#include <cstdint>
#include <vector>

#include "core/future_profile.h"
#include "sched/slack.h"

namespace ides {

struct MetricWeights {
  double w1p = 1.0;
  double w1m = 1.0;
  double w2p = 2.0;
  double w2m = 2.0;
};

struct DesignMetrics {
  double c1p = 0.0;          ///< % of future processor demand left unpacked
  double c1m = 0.0;          ///< % of future bus demand left unpacked
  Time c2p = 0;              ///< sum of per-node min slack in a Tmin window
  std::int64_t c2mBytes = 0; ///< min bus slack in a Tmin window (bytes)
};

/// Compute all four metrics from a slack snapshot.
DesignMetrics computeMetrics(const SlackInfo& slack,
                             const FutureProfile& profile);

/// The paper's objective function C.
double objectiveValue(const DesignMetrics& metrics,
                      const FutureProfile& profile,
                      const MetricWeights& weights);

/// C1 building block, exposed for tests and the ablation benches:
/// best-fit-decreasing packing of `items` into `containers`; returns the
/// total size of items that do not fit. Items must be sorted descending.
/// Runs the same in-place packing as the metrics.
std::int64_t bestFitUnpacked(const std::vector<std::int64_t>& itemsDesc,
                             const std::vector<std::int64_t>& containers);

/// The deterministic "largest future application" demand stream for a given
/// amount of total slack: values drawn from `dist` whose sum does not exceed
/// `totalSlack` (descending). Exposed for tests.
std::vector<std::int64_t> largestFutureDemand(const DiscreteDistribution& dist,
                                              std::int64_t totalSlack);

/// Multiset of C1 container capacities over [0, max] in dense form: an
/// int32 count per capacity, plus a presence bitmap with a summary bit per
/// 64-value word. Adding or removing one container is O(1), and
/// firstAtLeast reads one word per 64 absent values, one summary word per
/// 4096. Memory is 4 bytes per value. IncrementalMetrics counts in item
/// units (10 ticks for the paper's WCETs), so its processor counts take
/// 6.4 KB at the paper's 16 000-tick horizon instead of 64 KB in ticks.
class CapacityCounts {
 public:
  /// Empty multiset over [0, maxValue].
  void reset(std::int64_t maxValue);
  /// -1 until the first reset.
  [[nodiscard]] std::int64_t maxValue() const {
    return static_cast<std::int64_t>(counts_.size()) - 1;
  }

  /// Add `copies` > 0 containers of capacity `value` in [0, maxValue()].
  void add(std::int64_t value, std::int32_t copies = 1) {
    const auto v = static_cast<std::size_t>(value);
    if (counts_[v] == 0) {
      words_[v >> 6] |= std::uint64_t{1} << (v & 63);
      summary_[v >> 12] |= std::uint64_t{1} << ((v >> 6) & 63);
    }
    counts_[v] += copies;
  }
  /// Remove `copies` of `value`, which must hold at least that many; the
  /// last copy clears the value's presence.
  void remove(std::int64_t value, std::int32_t copies = 1) {
    const auto v = static_cast<std::size_t>(value);
    if ((counts_[v] -= copies) != 0) return;
    std::uint64_t& word = words_[v >> 6];
    word &= ~(std::uint64_t{1} << (v & 63));
    if (word == 0) {
      summary_[v >> 12] &= ~(std::uint64_t{1} << ((v >> 6) & 63));
    }
  }
  [[nodiscard]] std::int32_t count(std::int64_t value) const {
    return counts_[static_cast<std::size_t>(value)];
  }

  /// Smallest present capacity >= `value`, or -1 if there is none.
  [[nodiscard]] std::int64_t firstAtLeast(std::int64_t value) const;

 private:
  std::vector<std::int32_t> counts_;
  std::vector<std::uint64_t> words_;    ///< bit v: counts_[v] > 0
  std::vector<std::uint64_t> summary_;  ///< bit w: words_[w] != 0
};

/// A platform occupancy kept record by record, with the free capacity it
/// leaves: what DesignMetrics and SlackInfo are computed from.
///
/// Per node it holds the busy records sorted by start, each tagged with
/// its owner (kUntagged for a baseline interval); records never overlap
/// but may touch, and the free gaps are the spaces between neighbours. Per
/// slot occurrence it holds the untagged used ticks and the tagged message
/// records. On top of those it keeps the C1 capacity counts with their
/// totals, free ticks per (node, Tmin window) and per bus window, and the
/// used ticks of every occurrence. The C1 counts are kept in item units:
/// the gcd of the profile's WCETs for processor gaps, of its message sizes
/// for bus occurrences. Every item is a multiple of its unit, so a
/// container of capacity c holds exactly what one of unit * floor(c / unit)
/// holds and the packing gives the same unpacked total on floor(c / unit);
/// the totals and the demand stay in ticks and bytes. Four edits move it
/// one record at a time, with PlatformState's occupy guards plus the exact
/// inverses: a node edit moves in the C1 counts only the gap between the
/// record's neighbours, which the record splits or merges, and a bus edit
/// only the occurrence's free chunk; both add or subtract their overlap
/// with each window.
/// rebuild() starts from the empty platform and applies a PlatformState's
/// occupancy through the same edits, untagged. EvalContext keeps its
/// reference schedule here and nowhere else: its positioned view reads the
/// records, and its commits edit them.
/// Every maintained quantity is integral and order-independent (a multiset
/// or a sum), so after any sequence of edits metrics() and slackInto() are
/// bit-identical to computeMetrics(extractSlack(state), profile) and
/// extractSlack(state) for the PlatformState the same records describe;
/// the property suites assert exactly that equality.
class IncrementalMetrics {
 public:
  /// Owner tag of a record that belongs to no one: the baseline's.
  static constexpr std::uint32_t kUntagged = 0xffffffffu;

  /// A busy interval [start, end) on one node and its owner.
  struct NodeRecord {
    Time start = 0;
    Time end = 0;
    std::uint32_t tag = kUntagged;
  };
  /// A message's ticks in one slot occurrence and its owner.
  struct BusRecord {
    std::uint32_t tag = 0;
    Time ticks = 0;
  };

  /// Snapshot of `state`'s occupancy under `profile`'s Tmin windows and
  /// item units, as untagged records; the edits start from here. Keeps a
  /// copy of `profile` for metrics() and a pointer to `state`'s TDMA bus,
  /// so the architecture must outlive the snapshot (as it must the state).
  /// Throws std::invalid_argument for an invalid profile.
  void rebuild(const PlatformState& state, const FutureProfile& profile);

  /// Records [iv.start, iv.end) busy on the node under `tag`. Throws
  /// std::logic_error, leaving the snapshot unchanged, when the range is
  /// empty, leaves the horizon or overlaps a record.
  void occupyNode(NodeId node, Interval iv, std::uint32_t tag = kUntagged);
  /// Erases the node's record of exactly [iv.start, iv.end), the inverse of
  /// the occupyNode that made it, whatever its tag. Release is
  /// record-granular: a range that is not one record (part of one, or a
  /// span of touching ones) throws std::logic_error and leaves the
  /// snapshot unchanged.
  void releaseNode(NodeId node, Interval iv);
  /// Consumes `txTicks` of slot `slotIndex` in `round`: untagged ticks, or a
  /// message record under `tag`. Throws std::logic_error, leaving the
  /// snapshot unchanged, for a round outside the horizon, txTicks <= 0 or
  /// an occupancy past the slot length.
  void occupyBus(std::size_t slotIndex, std::int64_t round, Time txTicks,
                 std::uint32_t tag = kUntagged);
  /// The exact inverse of occupyBus: hands back `txTicks` of the
  /// occurrence's untagged ticks, or erases a record of `txTicks` under
  /// `tag`. Throws std::logic_error, leaving the snapshot unchanged, for a
  /// round outside the horizon, txTicks <= 0, more untagged ticks than the
  /// occurrence holds or no such record.
  void releaseBus(std::size_t slotIndex, std::int64_t round, Time txTicks,
                  std::uint32_t tag = kUntagged);

  /// The node's records, sorted by start.
  [[nodiscard]] const std::vector<NodeRecord>& nodeRecords(NodeId node) const {
    return nodeRecords_[static_cast<std::size_t>(node.index())];
  }
  /// Dense index of a slot occurrence, for the two reads below.
  [[nodiscard]] std::size_t occurrence(std::size_t slotIndex,
                                       std::int64_t round) const {
    return slotIndex * static_cast<std::size_t>(roundCount_) +
           static_cast<std::size_t>(round);
  }
  /// Untagged ticks of an occurrence.
  [[nodiscard]] Time untaggedTicks(std::size_t occ) const {
    return untaggedUsed_[occ];
  }
  /// Message records of an occurrence, in the order they were occupied.
  [[nodiscard]] const std::vector<BusRecord>& busRecords(
      std::size_t occ) const {
    return busRecords_[occ];
  }

  /// Metrics of the snapshot occupancy under the profile given to
  /// rebuild(): bit-identical to computeMetrics(extractSlack(state),
  /// profile), which packs in ticks. Non-const: the C1 packing edits the
  /// capacity counts in place and undoes its edits before it returns.
  [[nodiscard]] DesignMetrics metrics();

  /// Writes the snapshot's slack into `info`, reusing its buffers: per
  /// node the complement of its records.
  void slackInto(SlackInfo& info) const;

 private:
  /// Adds `delta` times the overlap of [lo, hi) with each Tmin window to
  /// `row` (one counter per window).
  void addToWindows(Time* row, Time lo, Time hi, Time delta) const;
  /// The occurrence's used ticks become `newUsed`.
  void setUsed(std::size_t slotIndex, std::int64_t round, Time newUsed);
  /// A free node gap of `length` ticks enters (leaves) the C1 counts, as
  /// floor(length / c1pUnit_) units, and their total, in ticks. A gap of
  /// length 0 (two records touching) is no container.
  void addFree(Time length) {
    if (const Time units = length / c1pUnit_; units > 0) c1pCounts_.add(units);
    c1pTotal_ += length;
  }
  void removeFree(Time length) {
    if (const Time units = length / c1pUnit_; units > 0) {
      c1pCounts_.remove(units);
    }
    c1pTotal_ -= length;
  }

  FutureProfile profile_;
  const TdmaBus* bus_ = nullptr;
  Time horizon_ = 0;
  Time tmin_ = 0;
  std::int64_t windows_ = 0;
  std::int64_t bytesPerTick_ = 1;
  std::int64_t roundCount_ = 0;

  std::vector<std::vector<NodeRecord>> nodeRecords_;  ///< per node
  std::vector<Time> nodeWin_;  ///< [node * windows_ + window]
  /// Per occurrence ([slot * roundCount_ + round]): every used tick, the
  /// untagged ones, and the message records.
  std::vector<Time> slotUsed_;
  std::vector<Time> untaggedUsed_;
  std::vector<std::vector<BusRecord>> busRecords_;
  std::vector<Time> busWin_;  ///< per window: bus free ticks

  std::int64_t c1pUnit_ = 1;  ///< gcd of the profile's WCETs (ticks)
  std::int64_t c1mUnit_ = 1;  ///< gcd of the profile's message sizes (bytes)
  /// Node free gap lengths in c1pUnit_, [0, horizon / c1pUnit_].
  CapacityCounts c1pCounts_;
  std::int64_t c1pTotal_ = 0;  ///< ticks
  /// Occurrence free bytes in c1mUnit_, [0, longest slot / c1mUnit_].
  CapacityCounts c1mCounts_;
  std::int64_t c1mTotal_ = 0;  ///< bytes
};

}  // namespace ides
