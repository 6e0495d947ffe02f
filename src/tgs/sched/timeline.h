// A single resource timeline: an ordered set of non-overlapping busy
// intervals. Used for processors (task execution) and network links
// (message transmission).
//
// The central query is earliest_fit(): the earliest start >= ready of a
// duration-long block, either appended after the last interval
// (non-insertion list scheduling) or placed into the first sufficiently
// large idle gap (insertion-based scheduling, paper §3 "ISH/MCP style").
//
// Storage is gap-indexed: intervals live in bounded sorted chunks, each
// summarized by its largest internal idle gap, with a max segment tree
// over the per-chunk summaries. An insertion-mode fit therefore descends
// the tree to the first chunk that can hold the block instead of scanning
// the interval list -- APN link timelines accumulate thousands of message
// reservations and every (node, processor) probe queries them. Occupying
// or releasing an interval touches one chunk (bounded memmove) plus a
// segment-tree path, not the whole list. Queries are exact: the chunked
// store answers every call bit-identically to a flat sorted vector
// (tests/test_timeline.cpp churns both against each other).
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "tgs/util/types.h"

namespace tgs {

/// Occupancy interval [start, end) owned by a task or message id.
struct Interval {
  Time start;
  Time end;
  std::int64_t owner;

  friend bool operator==(const Interval&, const Interval&) = default;
};

class Timeline {
 public:
  /// Earliest t >= ready such that [t, t+dur) fits.
  /// insertion=false: returns max(ready, end-of-last-interval).
  /// insertion=true : first gap (including before the first interval and
  /// after the last) that can hold dur starting no earlier than ready.
  /// dur == 0 fits anywhere >= ready. An insertion fit above `bound` may
  /// return any value above `bound` instead: a caller holding a start it
  /// must beat stops the gap scan there. The definition is aligned to a
  /// cache line so its speed does not swing with unrelated code layout.
  Time earliest_fit(Time ready, Cost dur, bool insertion,
                    Time bound = kTimeInf) const;

  /// Insert an interval; throws std::logic_error if it overlaps. Equal
  /// start times order by end (zero-width intervals first, so interval
  /// ends stay globally non-decreasing); identical (start, end) pairs
  /// keep insertion-before-existing order.
  void occupy(std::int64_t owner, Time start, Cost dur);

  /// Remove the interval with this owner; returns false if absent.
  /// O(n) scan -- prefer the hinted overload when the start is known.
  bool release(std::int64_t owner);

  /// Remove the interval with this owner whose start time is known to the
  /// caller (schedulers track where they placed things): binary-searches
  /// the chunked interval store instead of scanning it, falling back to
  /// the linear scan if no interval with this owner sits at `start_hint`.
  bool release(std::int64_t owner, Time start_hint);

  /// Remove all intervals. The chunk buffers go to a spare pool that the
  /// next occupy() or chunk split takes from, so refilling a cleared
  /// timeline reuses them instead of allocating.
  void clear();

  /// End of the last interval (0 when empty).
  Time end_time() const { return end_time_; }

  /// Largest idle stretch before end_time(), counting the one from time 0
  /// to the first interval, in O(1). When it is below `dur`, an insertion
  /// fit at any ready >= 0 is max(ready, end_time()): no gap holds the
  /// block.
  Time max_gap() const {
    return size_ == 0 ? 0 : std::max(chunks_.front().first_start(), tree_[1]);
  }

  /// An upper bound on the end of every idle gap before end_time(),
  /// counting the one from time 0 to the first interval (0 when there is
  /// none). An occupy() that leaves a gap before it sets it to the new
  /// start, and release() raises it to the new end_time(); only clear()
  /// and refilling an emptied timeline lower it. When ready + dur exceeds
  /// it, an insertion fit is end_time(): every gap ends too early.
  Time last_gap_end() const { return last_gap_end_; }

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  /// Intervals sorted by start time, flattened out of the chunked store.
  std::vector<Interval> intervals() const;

  /// Total busy time.
  Time busy_time() const;

 private:
  friend struct TimelineInspector;  // tests/test_timeline.cpp reads chunks

  // Chunk capacity: split at > kSplit into two halves. Bounds the in-chunk
  // scan of every query and the memmove of every occupy/release.
  static constexpr std::size_t kSplit = 48;

  struct Chunk {
    std::vector<Interval> ivs;  // sorted by start, non-overlapping
    Time max_gap = 0;           // largest idle gap BETWEEN consecutive ivs

    Time first_start() const { return ivs.front().start; }
    Time last_end() const { return ivs.back().end; }
  };

  /// Index of the first chunk whose last interval ends after `t`
  /// (chunks_.size() when none). Interval ends are globally
  /// non-decreasing, so this is a binary search over chunk tails.
  std::size_t chunk_by_end(Time t) const;

  /// Index of the chunk that owns the sorted position of the (start, end)
  /// key (first chunk whose last interval's key is not below it; the last
  /// chunk when the key exceeds every interval's). Intervals are ordered
  /// lexicographically by (start, end) -- with disjointness this keeps
  /// interval ends globally non-decreasing, which chunk_by_end and the
  /// in-chunk end searches rely on. Pass end = kTimeNegInf to locate the
  /// first interval with this start.
  std::size_t chunk_by_start(Time start, Time end) const;

  /// Gap between chunk c and its predecessor (0 for chunk 0: the gap
  /// before the first interval is handled by the query's ready cursor).
  Time gap_before(std::size_t c) const;

  /// Segment-tree leaf value of chunk c: the largest idle gap reachable by
  /// entering this chunk from the previous one.
  Time leaf_key(std::size_t c) const;

  void recompute_chunk(std::size_t c);       // max_gap, leaves c and c+1
  void update_leaf(std::size_t c);           // one O(log C) path
  void rebuild_tree();                       // chunk count changed
  void split_chunk(std::size_t c);           // kSplit overflow
  void erase_interval(std::size_t c, std::size_t pos);

  /// An empty interval buffer: a spare one when the pool has any.
  std::vector<Interval> take_buffer();

  /// First chunk index >= lo whose leaf key can hold `dur`; -1 if none.
  int first_chunk_with_gap(std::size_t lo, Cost dur) const;
  int tree_query(std::size_t node, std::size_t l, std::size_t r,
                 std::size_t lo, Cost dur) const;

  std::vector<Chunk> chunks_;  // non-empty, ordered
  std::vector<std::vector<Interval>> spare_;  // empty buffers, for reuse
  std::vector<Time> tree_;     // max segment tree over leaf_key(c)
  std::size_t tree_base_ = 0;  // leaf offset (power of two >= chunk count)
  std::size_t size_ = 0;       // total interval count
  Time end_time_ = 0;          // end of the last interval
  Time last_gap_end_ = 0;      // no idle gap ends after it
};

}  // namespace tgs
