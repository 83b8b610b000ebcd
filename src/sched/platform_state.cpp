#include "sched/platform_state.h"

#include <algorithm>
#include <stdexcept>

namespace ides {

PlatformState::PlatformState(const Architecture& arch, Time horizon)
    : arch_(&arch), bus_(&arch.bus()), horizon_(horizon) {
  if (horizon_ <= 0 || horizon_ % bus_->roundLength() != 0) {
    throw std::invalid_argument(
        "PlatformState: horizon must be a positive multiple of the round");
  }
  roundCount_ = horizon_ / bus_->roundLength();
  nodeBusy_.resize(arch.nodeCount());
  slotUsed_.assign(bus_->slotCount(),
                   std::vector<Time>(static_cast<std::size_t>(roundCount_),
                                     0));
  slotCursor_.assign(bus_->slotCount(), 0);
}

Time PlatformState::earliestFit(NodeId node, Time after, Time duration) const {
  return nodeBusy_[node.index()].earliestFit(std::max<Time>(after, 0),
                                             duration, horizon_);
}

void PlatformState::occupyNode(NodeId node, Interval iv) {
  if (iv.empty() || iv.start < 0 || iv.end > horizon_) {
    throw std::logic_error("occupyNode: interval outside horizon");
  }
  IntervalSet& busy = nodeBusy_[node.index()];
  if (busy.intersects(iv)) {
    throw std::logic_error("occupyNode: double booking");
  }
  busy.add(iv);
}

Time PlatformState::occupyEarliest(NodeId node, Time after, Time duration) {
  return nodeBusy_[node.index()].insertFirstFit(std::max<Time>(after, 0),
                                                duration, horizon_);
}

std::optional<PlatformState::BusPlacement> PlatformState::findBusSlot(
    std::size_t slotIndex, Time ready, Time txTicks,
    std::int64_t minRound) const {
  if (txTicks <= 0) throw std::invalid_argument("findBusSlot: txTicks <= 0");
  if (txTicks > bus_->slot(slotIndex).length) return std::nullopt;
  if (ready < 0) ready = 0;
  std::int64_t round =
      std::max(minRound, bus_->firstRoundAtOrAfter(slotIndex, ready));
  // Every round below the cursor is full; txTicks >= 1 can never fit there.
  round = std::max(round, slotCursor_[slotIndex]);
  for (; round < roundCount_; ++round) {
    const Time used = slotUsed_[slotIndex][static_cast<std::size_t>(round)];
    if (used + txTicks > bus_->slot(slotIndex).length) continue;
    const Time start = bus_->slotStart(round, slotIndex) + used;
    return BusPlacement{round, start, start + txTicks};
  }
  return std::nullopt;
}

void PlatformState::occupyBus(std::size_t slotIndex, std::int64_t round,
                              Time txTicks) {
  if (round < 0 || round >= roundCount_) {
    throw std::logic_error("occupyBus: round outside horizon");
  }
  Time& used = slotUsed_[slotIndex][static_cast<std::size_t>(round)];
  if (used + txTicks > bus_->slot(slotIndex).length) {
    throw std::logic_error("occupyBus: slot overflow");
  }
  used += txTicks;
  // Advance the first-free-round cursor past every round this occupy just
  // sealed (amortized O(1): each round is crossed once).
  std::int64_t& cursor = slotCursor_[slotIndex];
  if (round == cursor) {
    const Time length = bus_->slot(slotIndex).length;
    while (cursor < roundCount_ &&
           slotUsed_[slotIndex][static_cast<std::size_t>(cursor)] >= length) {
      ++cursor;
    }
  }
}

Time PlatformState::totalNodeSlack() const {
  Time total = 0;
  for (const IntervalSet& busy : nodeBusy_) {
    total += horizon_ - busy.totalLength();
  }
  return total;
}

Time PlatformState::totalBusSlackTicks() const {
  Time total = 0;
  for (std::size_t s = 0; s < slotUsed_.size(); ++s) {
    for (Time used : slotUsed_[s]) {
      total += bus_->slot(s).length - used;
    }
  }
  return total;
}

}  // namespace ides
