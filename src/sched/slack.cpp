#include "sched/slack.h"

#include <algorithm>

namespace ides {

Time SlackInfo::totalNodeSlack() const {
  Time total = 0;
  for (const IntervalSet& free : nodeFree) total += free.totalLength();
  return total;
}

Time SlackInfo::totalBusFreeTicks() const {
  Time total = 0;
  for (const BusChunk& c : busChunks) total += c.freeTicks;
  return total;
}

Time SlackInfo::nodeSlackInWindow(std::size_t nodeIndex, Time winStart,
                                  Time winEnd) const {
  return nodeFree[nodeIndex].lengthWithin({winStart, winEnd});
}

Time SlackInfo::busSlackInWindow(Time winStart, Time winEnd) const {
  Time total = 0;
  for (const BusChunk& c : busChunks) {
    const Time s = std::max(c.start, winStart);
    const Time e = std::min(c.start + c.freeTicks, winEnd);
    if (e > s) total += e - s;
  }
  return total;
}

SlackInfo extractSlack(const PlatformState& state) {
  SlackInfo info;
  info.horizon = state.horizon();
  const TdmaBus& bus = state.bus();
  info.busBytesPerTick = bus.bytesPerTick();

  info.nodeFree.reserve(state.nodeCount());
  for (std::size_t n = 0; n < state.nodeCount(); ++n) {
    const NodeId id{static_cast<std::int32_t>(n)};
    info.nodeFree.push_back(state.nodeFree(id));
  }

  for (std::int64_t r = 0; r < state.roundCount(); ++r) {
    for (std::size_t s = 0; s < bus.slotCount(); ++s) {
      const Time freeTicks = state.slotFreeTicks(s, r);
      if (freeTicks <= 0) continue;
      const Time used = state.slotUsedTicks(s, r);
      info.busChunks.push_back(
          {s, r, bus.slotStart(r, s) + used, freeTicks});
    }
  }
  // Rounds iterate outermost, slots in round order, so chunks are already
  // sorted by start time.
  return info;
}

}  // namespace ides
