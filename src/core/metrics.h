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
/// 4096. Memory is 4 bytes per value: 64 KB at the paper's 16 000-tick
/// horizon.
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

/// The free capacity of a platform occupancy, kept current record by
/// record: what DesignMetrics and SlackInfo are computed from.
///
/// It holds per-node free IntervalSets, the C1 capacity counts with their
/// totals, free ticks per (node, Tmin window) and per bus window, and the
/// used ticks of every slot occurrence. Four edits move it one record at a
/// time, with PlatformState's occupy semantics and guards plus the exact
/// inverses: a node edit moves in the C1 counts only the free members it
/// splits, shrinks, grows or merges, and a bus edit only the occurrence's
/// free chunk; both add or subtract their overlap with each window.
/// rebuild() starts from the empty platform and applies a PlatformState's
/// occupancy through the same edits. EvalContext keeps its reference
/// schedule's free capacity here and nowhere else.
/// Every maintained quantity is integral and order-independent (a multiset
/// or a sum), so after any sequence of edits metrics() and slackInto() are
/// bit-identical to computeMetrics(extractSlack(state), profile) and
/// extractSlack(state) for the PlatformState the same records describe;
/// the property suites assert exactly that equality.
class IncrementalMetrics {
 public:
  /// Snapshot of `state`'s free capacity under `profile`'s Tmin windows;
  /// the edits start from here. Keeps a pointer to `state`'s TDMA bus, so
  /// the architecture must outlive the snapshot (as it must the state).
  void rebuild(const PlatformState& state, const FutureProfile& profile);

  /// Marks [iv.start, iv.end) busy on the node. Throws std::logic_error,
  /// leaving the snapshot unchanged, when the range is empty, leaves the
  /// horizon or is not free.
  void occupyNode(NodeId node, Interval iv);
  /// Frees [iv.start, iv.end) on the node, the exact inverse of
  /// occupyNode. Throws std::logic_error, leaving the snapshot unchanged,
  /// when the range is empty, leaves the horizon or is not busy.
  void releaseNode(NodeId node, Interval iv);
  /// Consumes `txTicks` of slot `slotIndex` in `round`. Throws
  /// std::logic_error, leaving the snapshot unchanged, for a round outside
  /// the horizon, txTicks <= 0 or an occupancy past the slot length.
  void occupyBus(std::size_t slotIndex, std::int64_t round, Time txTicks);
  /// Hands `txTicks` of the occurrence back, the exact inverse of
  /// occupyBus. Throws std::logic_error, leaving the snapshot unchanged,
  /// for a round outside the horizon, txTicks <= 0 or more ticks than the
  /// occurrence holds.
  void releaseBus(std::size_t slotIndex, std::int64_t round, Time txTicks);

  /// Metrics of the snapshot occupancy. Non-const: the C1 packing edits
  /// the capacity counts in place and undoes its edits before it returns.
  [[nodiscard]] DesignMetrics metrics(const FutureProfile& profile);

  /// Writes the snapshot's slack into `info`, reusing its buffers.
  void slackInto(SlackInfo& info) const;

 private:
  /// Adds `delta` times the overlap of [lo, hi) with each Tmin window to
  /// `row` (one counter per window).
  void addToWindows(Time* row, Time lo, Time hi, Time delta) const;
  [[nodiscard]] std::size_t occurrence(std::size_t slotIndex,
                                       std::int64_t round) const {
    return slotIndex * static_cast<std::size_t>(roundCount_) +
           static_cast<std::size_t>(round);
  }
  /// The occurrence's used ticks become `newUsed`.
  void setUsed(std::size_t slotIndex, std::int64_t round, Time newUsed);
  void addFree(Time length) {
    c1pCounts_.add(length);
    c1pTotal_ += length;
  }
  void removeFree(Time length) {
    c1pCounts_.remove(length);
    c1pTotal_ -= length;
  }

  const TdmaBus* bus_ = nullptr;
  Time horizon_ = 0;
  Time tmin_ = 0;
  std::int64_t windows_ = 0;
  std::int64_t bytesPerTick_ = 1;
  std::int64_t roundCount_ = 0;

  std::vector<IntervalSet> nodeFree_;  ///< per node
  std::vector<Time> nodeWin_;          ///< [node * windows_ + window]
  std::vector<Time> slotUsed_;         ///< [slot * roundCount_ + round]
  std::vector<Time> busWin_;           ///< per window: bus free ticks

  CapacityCounts c1pCounts_;  ///< node free interval lengths, [0, horizon]
  std::int64_t c1pTotal_ = 0;
  CapacityCounts c1mCounts_;  ///< occurrence free bytes, [0, longest slot]
  std::int64_t c1mTotal_ = 0;
};

}  // namespace ides
