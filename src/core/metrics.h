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

/// Incrementally maintained DesignMetrics over a PlatformState.
///
/// Keeps a snapshot of every occupancy-derived quantity the metrics read —
/// per-node free IntervalSets, the C1 capacity counts with their totals,
/// per-node per-window free ticks with row minima, and per-window bus free
/// ticks — and re-derives only the nodes / slot occurrences the caller
/// names dirty since the last sync (EvalContext names the ones its walk's
/// released and occupied records touched). Within a dirty node, only the
/// free intervals that differ from the snapshot enter or leave the C1
/// counts, one O(1) counter update each.
/// Every maintained quantity is integral and order-independent (a multiset
/// or a sum), so metrics() is bit-identical to
/// computeMetrics(extractSlack(state), profile) by construction; the
/// property suites assert exactly that equality.
class IncrementalMetrics {
 public:
  [[nodiscard]] bool valid() const { return valid_; }
  void invalidate() { valid_ = false; }

  /// Full snapshot rebuild from `state` (first use, or whenever the dirty
  /// set since the last sync is unknown).
  void rebuild(const PlatformState& state, const FutureProfile& profile);

  /// Re-derive the named nodes and slot occurrences (occurrence key:
  /// slotIndex * roundCount + round) from `state`. Duplicates are fine; an
  /// entry whose occupancy is unchanged costs one comparison. Requires
  /// valid().
  void update(const PlatformState& state,
              const std::vector<std::uint32_t>& dirtyNodes,
              const std::vector<std::uint64_t>& dirtyOccurrences);

  /// Metrics of the snapshot occupancy. Requires valid(). Non-const: the
  /// C1 packing edits the capacity counts in place and undoes its edits
  /// before it returns.
  [[nodiscard]] DesignMetrics metrics(const FutureProfile& profile);

 private:
  void refreshNode(const PlatformState& state, std::size_t n);
  void refreshOccurrence(const PlatformState& state, std::size_t slot,
                         std::int64_t round);

  bool valid_ = false;
  Time horizon_ = 0;
  Time tmin_ = 0;
  std::int64_t windows_ = 0;
  std::int64_t bytesPerTick_ = 1;
  std::int64_t roundCount_ = 0;

  std::vector<IntervalSet> nodeFree_;  ///< per node
  std::vector<Time> nodeMin_;          ///< per node: min in-window slack
  std::vector<Time> slotUsed_;         ///< [slot * roundCount_ + round]
  std::vector<Time> busWin_;           ///< per window: bus free ticks
  IntervalSet scratchSet_;             ///< a node's new free set, to diff

  CapacityCounts c1pCounts_;  ///< node free interval lengths, [0, horizon]
  std::int64_t c1pTotal_ = 0;
  CapacityCounts c1mCounts_;  ///< occurrence free bytes, [0, longest slot]
  std::int64_t c1mTotal_ = 0;
};

}  // namespace ides
