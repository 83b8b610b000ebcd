// Slack extraction: the free capacity of a platform state.
//
// The design metrics of the paper operate on slack only: C1 packs the
// hypothetical future application into the free intervals; C2 measures how
// the free time is distributed over Tmin windows. SlackInfo is the common
// snapshot both metrics consume.
#pragma once

#include <cstdint>
#include <vector>

#include "sched/platform_state.h"
#include "util/interval.h"

namespace ides {

struct SlackInfo {
  Time horizon = 0;
  std::int64_t busBytesPerTick = 1;

  /// Free processor intervals per node within [0, horizon).
  std::vector<IntervalSet> nodeFree;

  /// One entry per TDMA slot occurrence with free room, in time order.
  /// `start` is the first free tick of the occurrence (transmissions pack
  /// from the front of the slot), so [start, start+freeTicks) is a
  /// contiguous free bus window usable only by the slot's owner node.
  struct BusChunk {
    std::size_t slotIndex = 0;
    std::int64_t round = 0;
    Time start = 0;
    Time freeTicks = 0;
  };
  std::vector<BusChunk> busChunks;

  [[nodiscard]] Time totalNodeSlack() const;
  [[nodiscard]] Time totalBusFreeTicks() const;
  [[nodiscard]] std::int64_t totalBusFreeBytes() const {
    return totalBusFreeTicks() * busBytesPerTick;
  }

  /// Free processor ticks of one node inside [winStart, winEnd).
  [[nodiscard]] Time nodeSlackInWindow(std::size_t nodeIndex, Time winStart,
                                       Time winEnd) const;
  /// Free bus ticks inside [winStart, winEnd) over all slots.
  [[nodiscard]] Time busSlackInWindow(Time winStart, Time winEnd) const;
};

/// Snapshot the slack of a platform state. The one-shot paths call this;
/// EvalContext keeps its reference's slack current in IncrementalMetrics
/// (core/metrics.h), whose slackInto gives the same snapshot.
SlackInfo extractSlack(const PlatformState& state);

}  // namespace ides
