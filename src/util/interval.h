// Half-open time intervals and sorted disjoint interval sets.
//
// The scheduler represents processor busy time as a sorted set of disjoint
// [start, end) intervals; the slack (free) intervals are the complement
// within the hyperperiod. It commits each job with insertFirstFit, whose
// earliest-fit scan stops exactly where the job goes. The design metrics
// (C1, C2) operate directly on these interval sets, so correctness of the
// gap arithmetic here is load-bearing for the whole reproduction.
#pragma once

#include <iosfwd>
#include <vector>

#include "util/time.h"

namespace ides {

/// Half-open interval [start, end). Empty iff start >= end.
struct Interval {
  Time start = 0;
  Time end = 0;

  [[nodiscard]] constexpr Time length() const {
    return end > start ? end - start : 0;
  }
  [[nodiscard]] constexpr bool empty() const { return end <= start; }
  [[nodiscard]] constexpr bool contains(Time t) const {
    return t >= start && t < end;
  }
  /// True if the two intervals share at least one tick.
  [[nodiscard]] constexpr bool overlaps(const Interval& o) const {
    return start < o.end && o.start < end;
  }

  friend constexpr bool operator==(const Interval&, const Interval&) = default;
};

std::ostream& operator<<(std::ostream& os, const Interval& iv);

/// Sorted set of pairwise-disjoint, non-empty, non-touching intervals.
///
/// Maintains the invariant after every mutation; adjacent/overlapping
/// insertions are coalesced. All query results are deterministic.
class IntervalSet {
 public:
  IntervalSet() = default;
  explicit IntervalSet(std::vector<Interval> intervals);

  /// Insert an interval, merging with any overlapping/touching members.
  /// Coalesces into the first absorbed member in place: the vector shifts
  /// only when nothing touches (one insert) or the interval bridges
  /// members (one erase).
  void add(Interval iv);

  /// Appends [iv.start, iv.end) behind every member, extending the last
  /// one when the two touch; an empty interval is ignored. Builds a set
  /// from sorted input in linear time, in the buffer clear() kept:
  /// IncrementalMetrics writes each node's free intervals this way. Throws
  /// std::invalid_argument if iv starts before the last member ends.
  void append(Interval iv);

  /// Removes every member, keeping the buffer.
  void clear() { intervals_.clear(); }

  /// Total covered length.
  [[nodiscard]] Time totalLength() const;

  /// True if [iv.start, iv.end) is fully covered by the set.
  [[nodiscard]] bool covers(Interval iv) const;

  /// True if the interval overlaps any member.
  [[nodiscard]] bool intersects(Interval iv) const;

  /// Earliest start s >= after such that [s, s + duration) overlaps no
  /// member and s + duration <= limit; kNoTime if there is none. Requires
  /// duration > 0 (throws std::invalid_argument otherwise).
  [[nodiscard]] Time earliestFit(Time after, Time duration, Time limit) const;

  /// earliestFit, then insert [s, s + duration) where the scan stopped: the
  /// interval extends the member on its left, the member on its right,
  /// bridges both, or goes in between them. One binary search per insert,
  /// where earliestFit + intersects + add cost three. Returns s, or kNoTime
  /// with the set unchanged. Throws std::logic_error if a neighbour of the
  /// found gap overlaps it (a double booking; the scan never yields one).
  Time insertFirstFit(Time after, Time duration, Time limit);

  /// Complement of this set within [horizon.start, horizon.end).
  [[nodiscard]] IntervalSet complementWithin(Interval horizon) const;

  /// Intersection with a single window (used by the C2 metric).
  [[nodiscard]] IntervalSet intersectWith(Interval window) const;

  /// Covered length inside a window, without materializing the intersection.
  [[nodiscard]] Time lengthWithin(Interval window) const;

  [[nodiscard]] const std::vector<Interval>& intervals() const {
    return intervals_;
  }
  [[nodiscard]] bool empty() const { return intervals_.empty(); }
  [[nodiscard]] std::size_t size() const { return intervals_.size(); }

  /// Largest single member length (0 if empty).
  [[nodiscard]] Time largest() const;

  friend bool operator==(const IntervalSet&, const IntervalSet&) = default;

 private:
  /// The first-fit scan earliestFit and insertFirstFit share: the gap's
  /// start and the index of the first member after the gap.
  struct Gap {
    Time start = 0;
    std::size_t next = 0;
  };
  [[nodiscard]] Gap firstFit(Time after, Time duration) const;

  void checkInvariant() const;

  std::vector<Interval> intervals_;
};

std::ostream& operator<<(std::ostream& os, const IntervalSet& set);

}  // namespace ides
