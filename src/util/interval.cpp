#include "util/interval.h"

#include <algorithm>
#include <cassert>
#include <iterator>
#include <ostream>
#include <stdexcept>

namespace ides {

std::ostream& operator<<(std::ostream& os, const Interval& iv) {
  return os << '[' << iv.start << ',' << iv.end << ')';
}

IntervalSet::IntervalSet(std::vector<Interval> intervals) {
  for (const Interval& iv : intervals) add(iv);
}

void IntervalSet::add(Interval iv) {
  if (iv.empty()) return;
  // Find the first member that ends at or after iv.start (touching counts,
  // so adjacent intervals coalesce into one).
  const auto first = std::lower_bound(
      intervals_.begin(), intervals_.end(), iv,
      [](const Interval& a, const Interval& b) { return a.end < b.start; });
  if (first == intervals_.end() || first->start > iv.end) {
    intervals_.insert(first, iv);  // touches nothing
    checkInvariant();
    return;
  }
  // Coalesce into the first absorbed member in place; only a bridge across
  // further members shifts the vector, once.
  auto last = std::next(first);
  while (last != intervals_.end() && last->start <= iv.end) ++last;
  first->start = std::min(first->start, iv.start);
  first->end = std::max(std::prev(last)->end, iv.end);
  intervals_.erase(std::next(first), last);
  checkInvariant();
}

void IntervalSet::append(Interval iv) {
  if (iv.empty()) return;
  if (!intervals_.empty()) {
    Interval& last = intervals_.back();
    if (iv.start < last.end) {
      throw std::invalid_argument("IntervalSet::append: out of order");
    }
    if (iv.start == last.end) {
      last.end = iv.end;
      return;
    }
  }
  intervals_.push_back(iv);
}

Time IntervalSet::totalLength() const {
  Time total = 0;
  for (const Interval& iv : intervals_) total += iv.length();
  return total;
}

bool IntervalSet::covers(Interval iv) const {
  if (iv.empty()) return true;
  // The covering member, if any, is the last one starting at or before
  // iv.start.
  auto it = std::upper_bound(
      intervals_.begin(), intervals_.end(), iv,
      [](const Interval& a, const Interval& b) { return a.start < b.start; });
  if (it == intervals_.begin()) return false;
  --it;
  return it->start <= iv.start && it->end >= iv.end;
}

bool IntervalSet::intersects(Interval iv) const {
  if (iv.empty()) return false;
  auto it = std::lower_bound(
      intervals_.begin(), intervals_.end(), iv,
      [](const Interval& a, const Interval& b) { return a.end <= b.start; });
  return it != intervals_.end() && it->overlaps(iv);
}

IntervalSet::Gap IntervalSet::firstFit(Time after, Time duration) const {
  if (duration <= 0) {
    throw std::invalid_argument("IntervalSet: first-fit duration <= 0");
  }
  // Skip straight to the first member that can constrain the cursor
  // (end > after); everything before it is history. The evaluation inner
  // loop scans once per job against node sets holding the whole frozen
  // base, so the scan start matters more than the scan itself.
  auto it = std::upper_bound(
      intervals_.begin(), intervals_.end(), after,
      [](Time t, const Interval& iv) { return t < iv.end; });
  Time cursor = after;
  for (; it != intervals_.end(); ++it) {
    if (it->start >= cursor + duration) break;  // the gap before it fits
    cursor = std::max(cursor, it->end);
  }
  return {cursor, static_cast<std::size_t>(it - intervals_.begin())};
}

Time IntervalSet::earliestFit(Time after, Time duration, Time limit) const {
  const Time start = firstFit(after, duration).start;
  return start + duration <= limit ? start : kNoTime;
}

Time IntervalSet::insertFirstFit(Time after, Time duration, Time limit) {
  const Gap gap = firstFit(after, duration);
  const Time end = gap.start + duration;
  if (end > limit) return kNoTime;
  // The scan stopped at the first member starting at or after `end`; the
  // member before it ends at or before the gap start.
  const auto next = intervals_.begin() + static_cast<std::ptrdiff_t>(gap.next);
  const bool hasPrev = next != intervals_.begin();
  const bool hasNext = next != intervals_.end();
  if ((hasPrev && std::prev(next)->end > gap.start) ||
      (hasNext && next->start < end)) {
    throw std::logic_error("insertFirstFit: double booking");
  }
  const bool touchesPrev = hasPrev && std::prev(next)->end == gap.start;
  const bool touchesNext = hasNext && next->start == end;
  if (touchesPrev && touchesNext) {
    std::prev(next)->end = next->end;
    intervals_.erase(next);
  } else if (touchesPrev) {
    std::prev(next)->end = end;
  } else if (touchesNext) {
    next->start = gap.start;
  } else {
    intervals_.insert(next, {gap.start, end});
  }
  checkInvariant();
  return gap.start;
}

IntervalSet IntervalSet::complementWithin(Interval horizon) const {
  IntervalSet out;
  if (horizon.empty()) return out;
  Time cursor = horizon.start;
  for (const Interval& iv : intervals_) {
    if (iv.end <= horizon.start) continue;
    if (iv.start >= horizon.end) break;
    if (iv.start > cursor) {
      out.intervals_.push_back({cursor, std::min(iv.start, horizon.end)});
    }
    cursor = std::max(cursor, iv.end);
    if (cursor >= horizon.end) break;
  }
  if (cursor < horizon.end) {
    out.intervals_.push_back({cursor, horizon.end});
  }
  out.checkInvariant();
  return out;
}

IntervalSet IntervalSet::intersectWith(Interval window) const {
  IntervalSet out;
  if (window.empty()) return out;
  for (const Interval& iv : intervals_) {
    if (iv.end <= window.start) continue;
    if (iv.start >= window.end) break;
    out.intervals_.push_back(
        {std::max(iv.start, window.start), std::min(iv.end, window.end)});
  }
  out.checkInvariant();
  return out;
}

Time IntervalSet::lengthWithin(Interval window) const {
  Time total = 0;
  for (const Interval& iv : intervals_) {
    if (iv.end <= window.start) continue;
    if (iv.start >= window.end) break;
    total += std::min(iv.end, window.end) - std::max(iv.start, window.start);
  }
  return total;
}

Time IntervalSet::largest() const {
  Time best = 0;
  for (const Interval& iv : intervals_) best = std::max(best, iv.length());
  return best;
}

void IntervalSet::checkInvariant() const {
#ifndef NDEBUG
  for (std::size_t i = 0; i < intervals_.size(); ++i) {
    assert(!intervals_[i].empty());
    if (i > 0) assert(intervals_[i - 1].end < intervals_[i].start);
  }
#endif
}

std::ostream& operator<<(std::ostream& os, const IntervalSet& set) {
  os << '{';
  bool first = true;
  for (const Interval& iv : set.intervals()) {
    if (!first) os << ", ";
    os << iv;
    first = false;
  }
  return os << '}';
}

}  // namespace ides
