#include "arch/tdma_bus.h"

#include <stdexcept>
#include <unordered_set>

namespace ides {

TdmaBus::TdmaBus(std::vector<TdmaSlot> slots, std::int64_t bytesPerTick)
    : slots_(std::move(slots)), bytesPerTick_(bytesPerTick) {
  if (slots_.empty()) throw std::invalid_argument("TdmaBus: no slots");
  if (bytesPerTick_ <= 0) {
    throw std::invalid_argument("TdmaBus: bytesPerTick must be positive");
  }
  slotOffset_.reserve(slots_.size());
  std::unordered_set<NodeId> owners;
  Time offset = 0;
  for (const TdmaSlot& s : slots_) {
    if (s.length <= 0) {
      throw std::invalid_argument("TdmaBus: slot length must be positive");
    }
    if (!s.owner.valid()) {
      throw std::invalid_argument("TdmaBus: slot owner invalid");
    }
    if (!owners.insert(s.owner).second) {
      throw std::invalid_argument("TdmaBus: duplicate slot owner");
    }
    slotOffset_.push_back(offset);
    offset += s.length;
    const std::size_t owner = s.owner.index();
    if (owner >= slotOf_.size()) slotOf_.resize(owner + 1, -1);
    slotOf_[owner] = static_cast<std::int32_t>(slotOffset_.size() - 1);
  }
  roundLength_ = offset;
}

void TdmaBus::throwNoSlot() {
  throw std::out_of_range("TdmaBus: node has no slot");
}

std::int64_t TdmaBus::firstRoundAtOrAfter(std::size_t i, Time t) const {
  if (t <= slotOffset_[i]) return 0;
  // slotStart(r, i) = r*roundLength + offset[i] >= t
  return ceilDiv(t - slotOffset_[i], roundLength_);
}

}  // namespace ides
