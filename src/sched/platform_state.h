// PlatformState: occupancy of every processor and every TDMA slot occurrence
// over one hyperperiod.
//
// The frozen existing applications are baked into a baseline state once;
// each candidate mapping of the current application is then scheduled on
// top. Historically every evaluation copied the whole baseline; the journal
// (see setJournaling/mark/rollbackTo) turns that into checkpoint + undo:
// every occupy (occupyNode, occupyEarliest, occupyBus) is recorded, and
// rolling back to a mark undoes the records newest-first, each by its exact
// inverse (the node interval is subtracted, the bus ticks are handed back).
// A rewind therefore costs what it undoes, not what the state holds.
// EvalContext keeps ONE journaled state per thread and rewinds it to the
// checkpoint before the first graph a move affects, which is what makes
// incremental re-evaluation cheap.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "arch/architecture.h"
#include "util/interval.h"
#include "util/time.h"

namespace ides {

class PlatformState {
 public:
  /// Horizon must be a positive multiple of the bus round length.
  PlatformState(const Architecture& arch, Time horizon);

  [[nodiscard]] Time horizon() const { return horizon_; }
  [[nodiscard]] const TdmaBus& bus() const { return *bus_; }
  [[nodiscard]] std::size_t nodeCount() const { return nodeBusy_.size(); }

  // ---- processor occupancy ------------------------------------------------

  /// Earliest start s >= after such that [s, s+duration) is free on the node
  /// and s+duration <= horizon. Returns kNoTime if no gap exists. Read-only:
  /// HCP's candidate pre-pass compares nodes with it before committing.
  [[nodiscard]] Time earliestFit(NodeId node, Time after, Time duration) const;

  /// Mark [iv.start, iv.end) busy. The range must be free and within the
  /// horizon (throws std::logic_error otherwise — a scheduler bug). For
  /// callers that bring their own interval: tests and benches.
  void occupyNode(NodeId node, Interval iv);

  /// Occupy the earliestFit(node, after, duration) slot and return its
  /// start, or kNoTime (state unchanged) if nothing fits. Journaled exactly
  /// like occupyNode. The scheduling loops commit every job through this:
  /// the scan's stopping point is where the interval goes, so a commit
  /// costs one binary search on the node's busy set, not three.
  Time occupyEarliest(NodeId node, Time after, Time duration);

  [[nodiscard]] const IntervalSet& nodeBusy(NodeId node) const {
    return nodeBusy_[node.index()];
  }
  [[nodiscard]] IntervalSet nodeFree(NodeId node) const {
    return nodeBusy_[node.index()].complementWithin({0, horizon_});
  }

  // ---- bus occupancy ------------------------------------------------------

  struct BusPlacement {
    std::int64_t round = 0;
    Time start = 0;  ///< first tick of the transmission
    Time end = 0;    ///< arrival tick
  };

  /// First round >= minRound whose slot `slotIndex` starts at or after
  /// `ready` and still has `txTicks` of room. Transmissions are packed
  /// back-to-back, so the placement begins after the ticks already used in
  /// that occurrence. Returns nullopt if nothing fits before the horizon.
  /// A per-slot first-free-round cursor (maintained by occupyBus and
  /// rollbackTo) skips the fully-booked prefix, so the common append —
  /// packing messages behind a saturated base — is O(1) instead of a scan
  /// over every full round.
  [[nodiscard]] std::optional<BusPlacement> findBusSlot(
      std::size_t slotIndex, Time ready, Time txTicks,
      std::int64_t minRound = 0) const;

  /// Consume `txTicks` of slot `slotIndex` in `round`.
  void occupyBus(std::size_t slotIndex, std::int64_t round, Time txTicks);

  [[nodiscard]] std::int64_t roundCount() const { return roundCount_; }
  [[nodiscard]] Time slotUsedTicks(std::size_t slotIndex,
                                   std::int64_t round) const {
    return slotUsed_[slotIndex][static_cast<std::size_t>(round)];
  }
  [[nodiscard]] Time slotFreeTicks(std::size_t slotIndex,
                                   std::int64_t round) const {
    return bus_->slot(slotIndex).length -
           slotUsed_[slotIndex][static_cast<std::size_t>(round)];
  }

  /// Total free processor ticks over all nodes.
  [[nodiscard]] Time totalNodeSlack() const;
  /// Total free bus ticks over all slot occurrences.
  [[nodiscard]] Time totalBusSlackTicks() const;

  // ---- checkpoint / undo journal ------------------------------------------

  /// Journal position; positions taken before a rollback past them are
  /// invalidated.
  using Mark = std::size_t;

  /// Start (or stop) recording occupy operations. Enabling clears any
  /// previous journal, so the current occupancy becomes the floor no
  /// rollback can cross. Off by default: one-shot consumers (frozen-base
  /// construction, stateWith) pay nothing.
  void setJournaling(bool enabled);
  [[nodiscard]] bool journaling() const { return journaling_; }

  /// Current journal position. Only meaningful while journaling.
  [[nodiscard]] Mark mark() const { return journal_.size(); }

  /// Undo every occupy recorded after `m`, newest-first, each by its exact
  /// inverse: records never overlap each other or the floor, so
  /// subtracting a node record's interval removes exactly the ticks its
  /// occupy added, and a bus record gives its ticks back and lowers the
  /// slot cursor. Restores the exact occupancy the state had when mark()
  /// returned `m`, in time linear in the records undone. Throws
  /// std::logic_error if `m` is ahead of the journal or journaling is off.
  void rollbackTo(Mark m);

  struct JournalEntry {
    enum class Kind : std::uint8_t { Node, Bus } kind = Kind::Node;
    std::uint32_t index = 0;  ///< node index or slot index
    Interval iv;              ///< Node: the occupied interval
    std::int64_t round = 0;   ///< Bus: the slot occurrence
    Time txTicks = 0;         ///< Bus: ticks consumed
  };

  /// The journal records themselves, [0, mark()). Read-only dirty-tracking
  /// hook: the records between two marks name exactly the nodes and slot
  /// occurrences whose occupancy changed, which is what the incremental
  /// metrics cache (core/evaluator.h) uses to recompute window minima and
  /// slack containers only where occupancy actually moved.
  [[nodiscard]] const std::vector<JournalEntry>& journal() const {
    return journal_;
  }

 private:

  const Architecture* arch_;  // non-owning; architectures outlive states
  const TdmaBus* bus_;
  Time horizon_;
  std::int64_t roundCount_;
  std::vector<IntervalSet> nodeBusy_;             // per node
  std::vector<std::vector<Time>> slotUsed_;       // [slot][round] ticks
  /// Per slot: the lowest round that still has free ticks. Invariant —
  /// every round below the cursor is completely full, so findBusSlot may
  /// start its scan at the cursor. occupyBus advances it (amortized O(1)),
  /// rollbackTo lowers it when freed ticks reopen an earlier round.
  std::vector<std::int64_t> slotCursor_;
  bool journaling_ = false;
  std::vector<JournalEntry> journal_;
};

}  // namespace ides
