// TDMA bus model (TTP-style, Kopetz & Grünsteidl '94).
//
// Bus time is divided into rounds; a round is a fixed sequence of slots, one
// per node. A node may transmit only inside its own slot. The slot sequence
// repeats identically every round, so the position of round r's slot for
// node n is a pure function of (r, n) — this is what makes static cyclic
// message scheduling possible.
//
// Capacity model: the bus moves `bytesPerTick` bytes per tick, so a slot of
// L ticks carries L*bytesPerTick bytes per round. Messages are packed
// back-to-back inside a slot occurrence; a message arrives at the tick its
// last byte has been transmitted.
#pragma once

#include <cstdint>
#include <vector>

#include "util/ids.h"
#include "util/time.h"

namespace ides {

struct TdmaSlot {
  NodeId owner;
  Time length = 0;  // ticks
};

class TdmaBus {
 public:
  TdmaBus() = default;
  /// Slots must be non-empty with positive lengths and distinct owners.
  TdmaBus(std::vector<TdmaSlot> slots, std::int64_t bytesPerTick);

  [[nodiscard]] Time roundLength() const { return roundLength_; }
  [[nodiscard]] std::size_t slotCount() const { return slots_.size(); }
  [[nodiscard]] const TdmaSlot& slot(std::size_t i) const { return slots_[i]; }
  [[nodiscard]] const std::vector<TdmaSlot>& slots() const { return slots_; }
  [[nodiscard]] std::int64_t bytesPerTick() const { return bytesPerTick_; }

  /// Index of the slot owned by `node`. Throws std::out_of_range if the
  /// node has no slot. One table read: the scheduler asks for every bus
  /// input it places.
  [[nodiscard]] std::size_t slotOfNode(NodeId node) const {
    if (!nodeHasSlot(node)) throwNoSlot();
    return static_cast<std::size_t>(slotOf_[node.index()]);
  }

  /// True if the node owns a slot (every mapped node must).
  [[nodiscard]] bool nodeHasSlot(NodeId node) const {
    return node.valid() && node.index() < slotOf_.size() &&
           slotOf_[node.index()] >= 0;
  }

  /// Bytes a single occurrence of slot `i` can carry.
  [[nodiscard]] std::int64_t slotCapacityBytes(std::size_t i) const {
    return slots_[i].length * bytesPerTick_;
  }

  /// Start tick of slot `i` in round `round`.
  [[nodiscard]] Time slotStart(std::int64_t round, std::size_t i) const {
    return round * roundLength_ + slotOffset_[i];
  }
  [[nodiscard]] Time slotEnd(std::int64_t round, std::size_t i) const {
    return slotStart(round, i) + slots_[i].length;
  }

  /// Ticks needed to push `bytes` onto the bus.
  [[nodiscard]] Time transmissionTime(std::int64_t bytes) const {
    return ceilDiv(bytes, bytesPerTick_);
  }

  /// Smallest round r such that slotStart(r, i) >= t (r >= 0).
  [[nodiscard]] std::int64_t firstRoundAtOrAfter(std::size_t i, Time t) const;

 private:
  [[noreturn]] static void throwNoSlot();

  std::vector<TdmaSlot> slots_;
  std::vector<Time> slotOffset_;  // start offset of each slot within a round
  std::vector<std::int32_t> slotOf_;  // by node index: slot, or -1
  Time roundLength_ = 0;
  std::int64_t bytesPerTick_ = 1;
};

}  // namespace ides
