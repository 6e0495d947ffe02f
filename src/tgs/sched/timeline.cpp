#include "tgs/sched/timeline.h"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace tgs {

namespace {

/// First interval of a sorted chunk ending after `t`. Interval ends are
/// non-decreasing (disjoint intervals sorted by start), so lower_bound on
/// the end applies.
std::vector<Interval>::const_iterator lower_by_end(
    const std::vector<Interval>& ivs, Time t) {
  return std::lower_bound(
      ivs.begin(), ivs.end(), t,
      [](const Interval& iv, Time x) { return iv.end <= x; });
}

Time internal_max_gap(const std::vector<Interval>& ivs) {
  Time mg = 0;
  for (std::size_t i = 1; i < ivs.size(); ++i)
    mg = std::max(mg, ivs[i].start - ivs[i - 1].end);
  return mg;
}

/// Strict ordering of an interval against a (start, end) key; intervals
/// are stored lexicographically by it.
bool key_below(const Interval& iv, Time start, Time end) {
  return iv.start < start || (iv.start == start && iv.end < end);
}

constexpr Time kTimeNegInf = std::numeric_limits<Time>::lowest();

}  // namespace

std::size_t Timeline::chunk_by_end(Time t) const {
  return static_cast<std::size_t>(
      std::partition_point(chunks_.begin(), chunks_.end(),
                           [t](const Chunk& c) { return c.last_end() <= t; }) -
      chunks_.begin());
}

std::size_t Timeline::chunk_by_start(Time start, Time end) const {
  const std::size_t c = static_cast<std::size_t>(
      std::partition_point(chunks_.begin(), chunks_.end(),
                           [start, end](const Chunk& ch) {
                             return key_below(ch.ivs.back(), start, end);
                           }) -
      chunks_.begin());
  // Keys beyond every interval belong to the last chunk (append).
  return std::min(c, chunks_.size() - 1);
}

Time Timeline::gap_before(std::size_t c) const {
  return c == 0 ? 0 : chunks_[c].first_start() - chunks_[c - 1].last_end();
}

Time Timeline::leaf_key(std::size_t c) const {
  return std::max(chunks_[c].max_gap, gap_before(c));
}

void Timeline::rebuild_tree() {
  const std::size_t n = chunks_.size();
  tree_base_ = 1;
  while (tree_base_ < n) tree_base_ <<= 1;
  tree_.assign(tree_base_ * 2, -1);
  for (std::size_t c = 0; c < n; ++c) tree_[tree_base_ + c] = leaf_key(c);
  for (std::size_t i = tree_base_ - 1; i >= 1; --i)
    tree_[i] = std::max(tree_[2 * i], tree_[2 * i + 1]);
}

void Timeline::update_leaf(std::size_t c) {
  std::size_t i = tree_base_ + c;
  tree_[i] = leaf_key(c);
  for (i >>= 1; i >= 1; i >>= 1)
    tree_[i] = std::max(tree_[2 * i], tree_[2 * i + 1]);
}

void Timeline::recompute_chunk(std::size_t c) {
  chunks_[c].max_gap = internal_max_gap(chunks_[c].ivs);
  // The chunk's boundary intervals may have moved: its own entry gap and
  // the successor's both depend on them.
  update_leaf(c);
  if (c + 1 < chunks_.size()) update_leaf(c + 1);
}

std::vector<Interval> Timeline::take_buffer() {
  if (spare_.empty()) return {};
  std::vector<Interval> buf = std::move(spare_.back());
  spare_.pop_back();
  return buf;
}

void Timeline::split_chunk(std::size_t c) {
  Chunk right{take_buffer()};
  std::vector<Interval>& left = chunks_[c].ivs;
  const std::size_t half = left.size() / 2;
  right.ivs.assign(left.begin() + static_cast<std::ptrdiff_t>(half),
                   left.end());
  left.erase(left.begin() + static_cast<std::ptrdiff_t>(half), left.end());
  right.max_gap = internal_max_gap(right.ivs);
  chunks_[c].max_gap = internal_max_gap(left);
  chunks_.insert(chunks_.begin() + static_cast<std::ptrdiff_t>(c) + 1,
                 std::move(right));
  rebuild_tree();
}

void Timeline::erase_interval(std::size_t c, std::size_t pos) {
  Chunk& ch = chunks_[c];
  std::vector<Interval>& ivs = ch.ivs;
  // Erasing merges the two adjacent gaps; unless one of them was the
  // chunk maximum, the new maximum is known without a rescan.
  const Time g1 = pos > 0 ? ivs[pos].start - ivs[pos - 1].end : -1;
  const Time g2 =
      pos + 1 < ivs.size() ? ivs[pos + 1].start - ivs[pos].end : -1;
  const Time merged = pos > 0 && pos + 1 < ivs.size()
                          ? ivs[pos + 1].start - ivs[pos - 1].end
                          : -1;
  ivs.erase(ivs.begin() + static_cast<std::ptrdiff_t>(pos));
  --size_;
  if (ivs.empty()) {
    chunks_.erase(chunks_.begin() + static_cast<std::ptrdiff_t>(c));
    rebuild_tree();
  } else {
    if ((g1 == ch.max_gap || g2 == ch.max_gap) && ch.max_gap > 0)
      ch.max_gap = internal_max_gap(ivs);
    else
      ch.max_gap = std::max(ch.max_gap, merged);
    update_leaf(c);
    if (c + 1 < chunks_.size()) update_leaf(c + 1);
  }
  end_time_ = chunks_.empty() ? 0 : chunks_.back().last_end();
  // The merged gap ends at a later interval's start, so by end_time().
  last_gap_end_ = std::max(last_gap_end_, end_time_);
}

int Timeline::first_chunk_with_gap(std::size_t lo, Cost dur) const {
  if (lo >= chunks_.size()) return -1;
  return tree_query(1, 0, tree_base_, lo, dur);
}

int Timeline::tree_query(std::size_t node, std::size_t l, std::size_t r,
                         std::size_t lo, Cost dur) const {
  if (r <= lo || tree_[node] < dur) return -1;
  if (r - l == 1) return static_cast<int>(l);
  const std::size_t mid = (l + r) / 2;
  const int left = tree_query(2 * node, l, mid, lo, dur);
  if (left >= 0) return left;
  return tree_query(2 * node + 1, mid, r, lo, dur);
}

[[gnu::aligned(64)]] Time Timeline::earliest_fit(Time ready, Cost dur,
                                                bool insertion,
                                                Time bound) const {
  if (size_ == 0) return ready;
  if (!insertion) return std::max(ready, end_time_);
  if (dur == 0) return ready;  // a zero-length block fits anywhere
  if (ready >= end_time_) return ready;
  // No idle stretch before end_time() can hold the block.
  if (max_gap() < dur) return end_time_;
  // Every gap ends before the block could, starting at `ready` or later.
  if (ready + dur > last_gap_end_) return end_time_;

  // In the chunk holding `ready`, intervals ending at or before `ready`
  // cannot constrain the placement. The block fits at `ready` or in a
  // later gap of the chunk; every later gap is one of the chunk's internal
  // gaps, so they are scanned only when the chunk's largest one can hold
  // the block. A gap cursor past `bound` answers with itself: every later
  // fit starts there or later.
  const std::size_t r = chunk_by_end(ready);
  {
    const Chunk& ch = chunks_[r];
    auto it = lower_by_end(ch.ivs, ready);
    if (ready + dur <= it->start) return ready;
    if (ch.max_gap >= dur) {
      for (auto prev = it++; it != ch.ivs.end(); prev = it++)
        if (prev->end > bound || it->start - prev->end >= dur)
          return prev->end;
    }
  }
  // No fit by the end of chunk r; the cursor sits at its last end. Descend
  // the gap tree to the first later chunk whose entry gap or largest
  // internal gap can hold the block -- every skipped chunk provably
  // cannot.
  if (chunks_[r].last_end() > bound) return chunks_[r].last_end();
  const int c = first_chunk_with_gap(r + 1, dur);
  if (c < 0) return end_time_;
  const std::size_t ci = static_cast<std::size_t>(c);
  const Time prev_end = chunks_[ci - 1].last_end();
  if (chunks_[ci].first_start() - prev_end >= dur) return prev_end;
  const std::vector<Interval>& ivs = chunks_[ci].ivs;
  for (std::size_t i = 1; i < ivs.size(); ++i)
    if (ivs[i].start - ivs[i - 1].end >= dur) return ivs[i - 1].end;
  throw std::logic_error("Timeline gap index inconsistent");
}

void Timeline::occupy(std::int64_t owner, Time start, Cost dur) {
  if (chunks_.empty()) {
    chunks_.push_back(Chunk{take_buffer()});
    chunks_.back().ivs.push_back(Interval{start, start + dur, owner});
    size_ = 1;
    end_time_ = start + dur;
    last_gap_end_ = start;
    rebuild_tree();
    return;
  }
  // Append fast path (the dominant pattern: list schedulers extend the
  // frontier): lands strictly after every existing interval, no overlap
  // possible, and the new trailing gap updates the chunk max in O(1).
  // Only an append opens a gap ending later than every other; one that
  // lands in a gap splits it into parts ending no later than it did.
  if (Chunk& last = chunks_.back();
      start >= end_time_ && start > last.ivs.back().start) {
    if (start > end_time_) last_gap_end_ = start;
    last.max_gap = std::max(last.max_gap, start - last.last_end());
    last.ivs.push_back(Interval{start, start + dur, owner});
    ++size_;
    end_time_ = start + dur;
    if (last.ivs.size() > kSplit)
      split_chunk(chunks_.size() - 1);
    else
      update_leaf(chunks_.size() - 1);
    return;
  }
  // Overlap verdict: the first interval ending after `start` (everything
  // before it lies entirely at or before `start`) must not begin before
  // the new end.
  const std::size_t ce = chunk_by_end(start);
  if (ce < chunks_.size() &&
      lower_by_end(chunks_[ce].ivs, start)->start < start + dur)
    throw std::logic_error("Timeline::occupy overlap");
  // Keep the list sorted by (start, end) -- zero-width intervals ahead of
  // a real block at the same start, so interval ends stay globally
  // non-decreasing -- with new intervals ahead of identical keys.
  const Time end = start + dur;
  const std::size_t c = chunk_by_start(start, end);
  std::vector<Interval>& ivs = chunks_[c].ivs;
  const auto pos =
      std::lower_bound(ivs.begin(), ivs.end(), start,
                       [end](const Interval& iv, Time s) {
                         return key_below(iv, s, end);
                       });
  ivs.insert(pos, Interval{start, end, owner});
  ++size_;
  end_time_ = std::max(end_time_, start + dur);
  if (ivs.size() > kSplit)
    split_chunk(c);
  else
    recompute_chunk(c);
}

bool Timeline::release(std::int64_t owner) {
  for (std::size_t c = 0; c < chunks_.size(); ++c) {
    const std::vector<Interval>& ivs = chunks_[c].ivs;
    for (std::size_t i = 0; i < ivs.size(); ++i) {
      if (ivs[i].owner == owner) {
        erase_interval(c, i);
        return true;
      }
    }
  }
  return false;
}

bool Timeline::release(std::int64_t owner, Time start_hint) {
  // All intervals with this start sit in one contiguous run (zero-width
  // intervals may share a start), possibly spanning chunk boundaries;
  // check the run, then fall back to the full scan in case the hint was
  // wrong.
  if (chunks_.empty()) return false;
  const std::size_t first = chunk_by_start(start_hint, kTimeNegInf);
  bool in_run = true;
  for (std::size_t c = first; in_run && c < chunks_.size(); ++c) {
    const std::vector<Interval>& ivs = chunks_[c].ivs;
    std::size_t i = 0;
    if (c == first)
      i = static_cast<std::size_t>(
          std::lower_bound(ivs.begin(), ivs.end(), start_hint,
                           [](const Interval& iv, Time s) {
                             return iv.start < s;
                           }) -
          ivs.begin());
    for (; i < ivs.size(); ++i) {
      if (ivs[i].start != start_hint) {
        in_run = false;
        break;
      }
      if (ivs[i].owner == owner) {
        erase_interval(c, i);
        return true;
      }
    }
  }
  return release(owner);
}

void Timeline::clear() {
  for (Chunk& c : chunks_) {
    c.ivs.clear();
    spare_.push_back(std::move(c.ivs));
  }
  chunks_.clear();
  tree_.clear();
  tree_base_ = 0;
  size_ = 0;
  end_time_ = 0;
  last_gap_end_ = 0;
}

std::vector<Interval> Timeline::intervals() const {
  std::vector<Interval> flat;
  flat.reserve(size_);
  for (const Chunk& c : chunks_)
    flat.insert(flat.end(), c.ivs.begin(), c.ivs.end());
  return flat;
}

Time Timeline::busy_time() const {
  Time total = 0;
  for (const Chunk& c : chunks_)
    for (const Interval& iv : c.ivs) total += iv.end - iv.start;
  return total;
}

}  // namespace tgs
