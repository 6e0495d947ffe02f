// Unit tests for sched/timeline.h: insertion-slot queries, occupancy
// invariants, release, and the gap-indexed chunked store's equivalence to
// a flat sorted interval list under adversarial churn.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "oracles.h"
#include "reference_timeline.h"
#include "tgs/sched/timeline.h"
#include "tgs/util/mem.h"
#include "tgs/util/rng.h"

namespace tgs {
namespace {

using reference::FlatTimeline;

TEST(Timeline, EmptyFitsAnywhere) {
  Timeline tl;
  EXPECT_EQ(tl.earliest_fit(0, 5, false), 0);
  EXPECT_EQ(tl.earliest_fit(7, 5, true), 7);
  EXPECT_TRUE(fits(tl, 100, 50));
  EXPECT_EQ(tl.end_time(), 0);
}

TEST(Timeline, AppendModeIgnoresGaps) {
  Timeline tl;
  tl.occupy(1, 0, 10);
  tl.occupy(2, 50, 10);
  // Non-insertion: after the last interval, even though [10,50) is idle.
  EXPECT_EQ(tl.earliest_fit(0, 5, false), 60);
  EXPECT_EQ(tl.earliest_fit(70, 5, false), 70);
}

TEST(Timeline, InsertionFindsFirstGap) {
  Timeline tl;
  tl.occupy(1, 0, 10);
  tl.occupy(2, 50, 10);
  EXPECT_EQ(tl.earliest_fit(0, 5, true), 10);
  EXPECT_EQ(tl.earliest_fit(0, 40, true), 10);
  EXPECT_EQ(tl.earliest_fit(0, 41, true), 60);  // gap too small
  EXPECT_EQ(tl.earliest_fit(20, 5, true), 20);
  EXPECT_EQ(tl.earliest_fit(48, 5, true), 60);  // would collide with [50,60)
}

TEST(Timeline, InsertionBeforeFirstInterval) {
  Timeline tl;
  tl.occupy(1, 20, 10);
  EXPECT_EQ(tl.earliest_fit(0, 10, true), 0);
  EXPECT_EQ(tl.earliest_fit(0, 21, true), 30);
  EXPECT_EQ(tl.earliest_fit(5, 15, true), 5);   // [5, 20) touches the block
  EXPECT_EQ(tl.earliest_fit(6, 15, true), 30);  // [6, 21) would collide
}

TEST(Timeline, ZeroDurationFits) {
  Timeline tl;
  tl.occupy(1, 0, 10);
  EXPECT_EQ(tl.earliest_fit(3, 0, true), 3);
}

TEST(Timeline, OccupyRejectsOverlap) {
  Timeline tl;
  tl.occupy(1, 10, 10);
  EXPECT_THROW(tl.occupy(2, 15, 1), std::logic_error);
  EXPECT_THROW(tl.occupy(2, 5, 6), std::logic_error);
  EXPECT_NO_THROW(tl.occupy(3, 20, 5));  // touching is fine
  EXPECT_NO_THROW(tl.occupy(4, 5, 5));
}

TEST(Timeline, FitsBoundaryConditions) {
  Timeline tl;
  tl.occupy(1, 10, 10);
  EXPECT_TRUE(fits(tl, 0, 10));
  EXPECT_TRUE(fits(tl, 20, 10));
  EXPECT_FALSE(fits(tl, 19, 2));
  EXPECT_FALSE(fits(tl, 9, 2));
}

TEST(Timeline, ReleaseRemovesInterval) {
  Timeline tl;
  tl.occupy(7, 0, 10);
  tl.occupy(8, 10, 10);
  EXPECT_TRUE(tl.release(7));
  EXPECT_FALSE(tl.release(7));
  EXPECT_TRUE(fits(tl, 0, 10));
  EXPECT_EQ(tl.size(), 1u);
}

TEST(Timeline, IntervalsSortedAfterMixedInserts) {
  Timeline tl;
  tl.occupy(1, 50, 5);
  tl.occupy(2, 0, 5);
  tl.occupy(3, 20, 5);
  const auto& ivs = tl.intervals();
  ASSERT_EQ(ivs.size(), 3u);
  EXPECT_EQ(ivs[0].start, 0);
  EXPECT_EQ(ivs[1].start, 20);
  EXPECT_EQ(ivs[2].start, 50);
  EXPECT_EQ(tl.busy_time(), 15);
  EXPECT_EQ(tl.end_time(), 55);
}

TEST(Timeline, EarliestFitAfterManyIntervals) {
  Timeline tl;
  for (int i = 0; i < 100; ++i) tl.occupy(i, i * 10, 8);  // gaps of 2
  EXPECT_EQ(tl.earliest_fit(0, 2, true), 8);
  EXPECT_EQ(tl.earliest_fit(503, 2, true), 508);
  EXPECT_EQ(tl.earliest_fit(0, 3, true), 998);  // no gap of 3 until the end
}

TEST(Timeline, OccupySinglePassMatchesFitsVerdict) {
  // The one-binary-search occupy must accept and reject exactly what
  // fits() reports, including touching boundaries.
  Timeline tl;
  tl.occupy(1, 10, 10);
  tl.occupy(2, 30, 10);
  EXPECT_THROW(tl.occupy(3, 9, 2), std::logic_error);    // tail overlap
  EXPECT_THROW(tl.occupy(3, 19, 2), std::logic_error);   // head overlap
  EXPECT_THROW(tl.occupy(3, 12, 30), std::logic_error);  // spans both
  EXPECT_NO_THROW(tl.occupy(3, 20, 10));                 // exact gap
  EXPECT_NO_THROW(tl.occupy(4, 0, 10));                  // before first
  EXPECT_NO_THROW(tl.occupy(5, 40, 1));                  // after last
  const auto& ivs = tl.intervals();
  ASSERT_EQ(ivs.size(), 5u);
  for (std::size_t i = 1; i < ivs.size(); ++i)
    EXPECT_LE(ivs[i - 1].end, ivs[i].start);  // sorted and disjoint
}

TEST(Timeline, ReleaseWithHintRemovesTheRightInterval) {
  Timeline tl;
  tl.occupy(7, 0, 10);
  tl.occupy(8, 10, 10);
  tl.occupy(9, 30, 10);
  EXPECT_TRUE(tl.release(8, 10));
  EXPECT_FALSE(tl.release(8, 10));
  ASSERT_EQ(tl.size(), 2u);
  EXPECT_EQ(tl.intervals()[0].owner, 7);
  EXPECT_EQ(tl.intervals()[1].owner, 9);
}

TEST(Timeline, ReleaseWithWrongHintFallsBackToLinearScan) {
  Timeline tl;
  tl.occupy(7, 0, 10);
  tl.occupy(8, 10, 10);
  EXPECT_TRUE(tl.release(7, 999));  // bogus hint still finds the interval
  EXPECT_EQ(tl.size(), 1u);
  EXPECT_EQ(tl.intervals()[0].owner, 8);
  EXPECT_FALSE(tl.release(42, 10));  // hint matches a start, owner does not
  EXPECT_EQ(tl.size(), 1u);
}

TEST(Timeline, ReleaseWithHintThenReoccupySameSlot) {
  // The unplace/replace cycle of migrating schedulers: hinted release
  // frees exactly the interval the caller placed, and the slot is
  // immediately reusable.
  Timeline tl;
  for (int i = 0; i < 50; ++i) tl.occupy(i, i * 10, 10);
  EXPECT_TRUE(tl.release(25, 250));
  EXPECT_TRUE(fits(tl, 250, 10));
  tl.occupy(99, 250, 10);
  EXPECT_EQ(tl.size(), 50u);
  EXPECT_EQ(tl.intervals()[25].owner, 99);
}

TEST(Timeline, ManyIntervalsCrossChunkBoundaries) {
  // Enough intervals to force chunk splits; fits must land in the exact
  // gaps a flat scan would find, including gaps straddling chunk seams.
  Timeline tl;
  for (int i = 0; i < 500; ++i) tl.occupy(i, i * 10, 8);  // gaps of 2
  EXPECT_EQ(tl.earliest_fit(0, 2, true), 8);
  EXPECT_EQ(tl.earliest_fit(1234, 2, true), 1238);
  EXPECT_EQ(tl.earliest_fit(0, 3, true), 4998);  // only after the last
  // Open one interior gap and find it from far to the left.
  EXPECT_TRUE(tl.release(300, 3000));
  EXPECT_EQ(tl.earliest_fit(0, 3, true), 2998);   // [2998, 3010) is idle
  EXPECT_EQ(tl.earliest_fit(0, 12, true), 2998);  // exactly fills it
  EXPECT_EQ(tl.earliest_fit(0, 13, true), 4998);
  EXPECT_EQ(tl.earliest_fit(2999, 3, true), 2999);
  tl.occupy(300, 3000, 8);  // restore
  EXPECT_EQ(tl.earliest_fit(0, 3, true), 4998);
}

// Largest idle stretch of a flat interval list before its last end,
// counting the one from time 0 to the first interval.
Time flat_max_gap(const FlatTimeline& ref) {
  const std::vector<Interval>& ivs = ref.intervals();
  if (ivs.empty()) return 0;
  Time gap = ivs.front().start;
  for (std::size_t i = 1; i < ivs.size(); ++i)
    gap = std::max(gap, ivs[i].start - ivs[i - 1].end);
  return gap;
}

// Latest end of an idle stretch of positive length before a flat interval
// list's last end, counting the one from time 0 (0 when there is none).
Time flat_last_gap_end(const FlatTimeline& ref) {
  const std::vector<Interval>& ivs = ref.intervals();
  Time last = 0;
  for (std::size_t i = 0; i < ivs.size(); ++i) {
    const Time gap_start = i == 0 ? 0 : ivs[i - 1].end;
    if (ivs[i].start > gap_start) last = ivs[i].start;
  }
  return last;
}

}  // namespace

// Classifies an insertion-mode query by the exit of earliest_fit that
// answers it, from the chunk layout the timeline keeps private.
struct TimelineInspector {
  enum class Exit { kOther, kNoGap, kGapsEndEarly, kAtReady, kLaterChunk };

  static Exit classify(const Timeline& tl, Time ready, Cost dur, Time at) {
    if (tl.empty() || dur == 0 || ready >= tl.end_time()) return Exit::kOther;
    if (tl.max_gap() < dur) return Exit::kNoGap;
    if (ready + dur > tl.last_gap_end()) return Exit::kGapsEndEarly;
    if (at == ready) return Exit::kAtReady;
    const Timeline::Chunk& ch = tl.chunks_[tl.chunk_by_end(ready)];
    if (ch.max_gap < dur && at >= ch.last_end() && at < tl.end_time())
      return Exit::kLaterChunk;
    return Exit::kOther;
  }
};

namespace {

TEST(Timeline, GapIndexMatchesFlatReferenceUnderChurn) {
  // Random occupy/release/query churn (the BSA-migration and B&B
  // backtracking pattern) on both stores; every query must agree and the
  // interval sequences must stay identical. Durations include zero-width
  // blocks; starts collide on purpose (dense value range). A second round
  // churns the same timeline after clear(), which keeps its chunk buffers
  // for reuse, against a fresh flat store. After every step last_gap_end()
  // must bound every gap's end; the exit it guards must answer queries
  // after a release from the middle (which raises it to end_time()) and
  // after clear() (which resets it). Each query is repeated with a bound:
  // at or below it the answer is exact, above it any value above it.
  using Exit = TimelineInspector::Exit;
  int exits[5] = {};
  int early_after_middle_release = 0, early_after_clear = 0, bound_cuts = 0;
  for (std::uint64_t seed : {1ull, 7ull, 1998ull}) {
    Rng rng(seed);
    Rng bound_rng(seed + 1);  // bounds leave the churn's draws unchanged
    Timeline tl;
    FlatTimeline ref;
    std::vector<std::pair<std::int64_t, Time>> live;  // owner -> start
    std::int64_t next_owner = 0;
    bool middle_released = false;  // since the round began
    int round = 0;
    // Every insertion query goes through `fit`, which checks it against
    // the flat store and tallies which early exit answered it.
    const auto fit = [&](Time ready, Cost dur) {
      const Time at = tl.earliest_fit(ready, dur, true);
      EXPECT_EQ(at, ref.earliest_fit(ready, dur, true))
          << "ready " << ready << " dur " << dur;
      const Exit exit = TimelineInspector::classify(tl, ready, dur, at);
      ++exits[static_cast<int>(exit)];
      if (exit == Exit::kGapsEndEarly) {
        early_after_middle_release += middle_released;
        early_after_clear += round == 1;
      }
      const Time bound = bound_rng.uniform_int(0, 4000);
      const Time cut = tl.earliest_fit(ready, dur, true, bound);
      if (at <= bound)
        EXPECT_EQ(cut, at) << "ready " << ready << " dur " << dur;
      else
        EXPECT_GT(cut, bound) << "ready " << ready << " dur " << dur;
      bound_cuts += cut != at;
      return at;
    };
    for (; round < 2; ++round) {
      if (round == 1) {
        tl.clear();
        ASSERT_TRUE(tl.empty());
        ASSERT_EQ(tl.end_time(), 0);
        ASSERT_EQ(tl.max_gap(), 0);
        ASSERT_EQ(tl.last_gap_end(), 0);
        ASSERT_EQ(tl.earliest_fit(5, 10, true), 5);
        ref = FlatTimeline();
        live.clear();
        middle_released = false;
      }
      for (int step = 0; step < 4000; ++step) {
        const int op = static_cast<int>(rng.uniform_int(0, 9));
        if (op < 5 || live.empty()) {  // occupy at the earliest fitting slot
          const Time ready = rng.uniform_int(0, 3000);
          const Cost dur = rng.uniform_int(1, 40);
          const Time at = fit(ready, dur);
          tl.occupy(next_owner, at, dur);
          ref.occupy(next_owner, at, dur);
          live.emplace_back(next_owner, at);
          ++next_owner;
        } else if (op < 8) {  // release, hinted or not
          const std::size_t i =
              static_cast<std::size_t>(rng.uniform_int(0, live.size() - 1));
          const auto [owner, start] = live[i];
          live.erase(live.begin() + static_cast<std::ptrdiff_t>(i));
          const bool hinted = rng.bernoulli(0.7);
          middle_released |= start < ref.intervals().back().start;
          ASSERT_TRUE(hinted ? tl.release(owner, start) : tl.release(owner));
          ASSERT_TRUE(ref.release(owner));
        } else {  // probe-only round
          const Time ready = rng.uniform_int(0, 4000);
          const Cost dur = rng.uniform_int(0, 60);
          fit(ready, dur);
          EXPECT_EQ(tl.earliest_fit(ready, dur, false),
                    ref.earliest_fit(ready, dur, false));
          EXPECT_EQ(fits(tl, ready, dur), ref.fits(ready, dur));
        }
        ASSERT_EQ(tl.max_gap(), flat_max_gap(ref)) << "step " << step;
        ASSERT_GE(tl.last_gap_end(), flat_last_gap_end(ref))
            << "step " << step;
        if (step % 256 == 0) {
          ASSERT_EQ(tl.intervals(), ref.intervals());
          ASSERT_EQ(tl.size(), ref.intervals().size());
        }
      }
      EXPECT_EQ(tl.intervals(), ref.intervals());
      EXPECT_EQ(tl.busy_time(), [&] {
        Time t = 0;
        for (const Interval& iv : ref.intervals()) t += iv.end - iv.start;
        return t;
      }());
    }
  }
  // Each O(1) exit answered queries, and every answer matched the flat
  // store: no gap long enough anywhere, every gap ending too early, a fit
  // at `ready` itself, and a chunk too fragmented to hold the block with a
  // fit in a later chunk.
  EXPECT_GT(exits[static_cast<int>(Exit::kNoGap)], 0);
  EXPECT_GT(exits[static_cast<int>(Exit::kGapsEndEarly)], 0);
  EXPECT_GT(early_after_middle_release, 0);
  EXPECT_GT(early_after_clear, 0);
  EXPECT_GT(bound_cuts, 0);
  EXPECT_GT(exits[static_cast<int>(Exit::kAtReady)], 0);
  EXPECT_GT(exits[static_cast<int>(Exit::kLaterChunk)], 0);
}

// clear() keeps the chunk buffers: once every pooled buffer has been
// through a full chunk, refilling a cleared timeline to the same shape
// allocates nothing.
TEST(Timeline, ClearKeepsChunkBuffersForRefill) {
  Timeline tl;
  const auto fill = [&] {
    for (int i = 0; i < 1000; ++i) {
      const Time start = (i * 7919) % 1000 * 10;  // scattered inserts
      tl.occupy(i, tl.earliest_fit(start, 4, true), 4);
    }
  };
  fill();
  const std::vector<Interval> first = tl.intervals();
  tl.clear();
  fill();
  tl.clear();
  AllocMeter meter;
  fill();
  EXPECT_EQ(meter.count(), 0u);
  EXPECT_EQ(tl.intervals(), first);
}

TEST(Timeline, ReleaseEverythingThenReuse) {
  Timeline tl;
  for (int i = 0; i < 200; ++i) tl.occupy(i, i * 5, 5);  // back-to-back
  for (int i = 0; i < 200; i += 2) EXPECT_TRUE(tl.release(i, i * 5));
  EXPECT_EQ(tl.size(), 100u);
  EXPECT_EQ(tl.earliest_fit(0, 5, true), 0);  // even slots are free again
  for (int i = 0; i < 200; i += 2) tl.occupy(1000 + i, i * 5, 5);
  EXPECT_EQ(tl.size(), 200u);
  EXPECT_EQ(tl.earliest_fit(0, 1, true), 1000);
  for (int i = 0; i < 200; ++i)
    EXPECT_TRUE(tl.release(i % 2 == 0 ? 1000 + i : i, i * 5));
  EXPECT_TRUE(tl.empty());
  EXPECT_EQ(tl.end_time(), 0);
  EXPECT_EQ(tl.earliest_fit(3, 10, true), 3);
}

TEST(Timeline, ZeroWidthIntervalsShareAStart) {
  // Zero-width intervals (defensive: TaskGraphBuilder forbids zero weights)
  // may share a start; insertion order at an equal start is newest-first
  // (what the flat store did), and they never block real blocks.
  Timeline tl;
  tl.occupy(1, 10, 5);
  tl.occupy(2, 10, 0);
  tl.occupy(3, 10, 0);
  const auto ivs = tl.intervals();
  ASSERT_EQ(ivs.size(), 3u);
  EXPECT_EQ(ivs[0].owner, 3);  // newest first at the shared start
  EXPECT_EQ(ivs[1].owner, 2);
  EXPECT_EQ(ivs[2].owner, 1);
  EXPECT_THROW(tl.occupy(4, 9, 2), std::logic_error);
  EXPECT_TRUE(tl.release(2, 10));
  EXPECT_TRUE(tl.release(1, 10));
  EXPECT_EQ(tl.earliest_fit(0, 100, true), 10);  // [10,10) doesn't block
}

TEST(Timeline, RealBlockAfterZeroWidthAtSameStart) {
  // A positive-duration block landing on a zero-width interval's start
  // must sort AFTER it (ends stay non-decreasing) and stay visible to
  // every query; this order is what keeps the chunked searches sound.
  Timeline tl;
  tl.occupy(1, 10, 0);
  tl.occupy(2, 10, 5);
  const auto ivs = tl.intervals();
  ASSERT_EQ(ivs.size(), 2u);
  EXPECT_EQ(ivs[0].owner, 1);  // zero-width first
  EXPECT_EQ(ivs[1].owner, 2);
  EXPECT_EQ(tl.earliest_fit(12, 3, true), 15);
  EXPECT_EQ(tl.earliest_fit(0, 3, true), 0);
  EXPECT_FALSE(fits(tl, 12, 3));
  EXPECT_THROW(tl.occupy(3, 12, 1), std::logic_error);
  EXPECT_TRUE(tl.release(2, 10));
  EXPECT_EQ(tl.end_time(), 10);
}

}  // namespace
}  // namespace tgs
