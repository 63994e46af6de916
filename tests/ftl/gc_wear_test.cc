#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <vector>

#include "ftl/ftl.h"
#include "ftl/wear.h"
#include "sim/random.h"

namespace xssd::ftl {
namespace {

flash::Geometry SmallGeometry() {
  flash::Geometry g;
  g.channels = 2;
  g.dies_per_channel = 2;
  g.blocks_per_plane = 8;
  g.pages_per_block = 16;
  g.page_bytes = 4096;
  return g;
}

// ---------------------------------------------------------------------------
// WearTracker unit behavior.

TEST(WearTracker, TracksMinMaxSpreadOverLiveBlocks) {
  WearTracker wear(4);
  EXPECT_EQ(wear.Spread(), 0u);
  wear.OnErase(0);
  wear.OnErase(0);
  wear.OnErase(1);
  EXPECT_EQ(wear.MinCount(), 0u);  // blocks 2, 3 never erased
  EXPECT_EQ(wear.MaxCount(), 2u);
  EXPECT_EQ(wear.Spread(), 2u);
}

TEST(WearTracker, RetiredBlocksLeaveTheSpread) {
  WearTracker wear(3);
  for (int i = 0; i < 9; ++i) wear.OnErase(2);
  EXPECT_EQ(wear.Spread(), 9u);
  wear.Retire(2);  // grown bad: its extreme count no longer matters
  EXPECT_EQ(wear.MaxCount(), 0u);
  EXPECT_EQ(wear.Spread(), 0u);
}

TEST(WearTracker, KeptMinMaxMatchAFullScan) {
  // Min and max are kept current as blocks are erased and retired; after
  // every step they must equal a scan over the live blocks.
  constexpr uint64_t kBlocks = 24;
  sim::Rng rng(7);
  WearTracker wear(kBlocks);
  std::vector<uint32_t> counts(kBlocks, 0);
  std::vector<bool> retired(kBlocks, false);
  for (int step = 0; step < 5000; ++step) {
    uint64_t b = rng.Uniform(kBlocks);
    if (rng.Uniform(400) == 0) {
      wear.Retire(b);
      retired[b] = true;
    } else {
      // Mostly erase the least-worn live blocks, as wear levelling does,
      // so the floor keeps rising.
      if (rng.Uniform(2) == 0) {
        for (uint64_t i = 0; i < kBlocks; ++i) {
          if (!retired[i] && (retired[b] || counts[i] < counts[b])) b = i;
        }
      }
      wear.OnErase(b);
      ++counts[b];
    }
    uint32_t lo = 0, hi = 0;
    bool any = false;
    for (uint64_t i = 0; i < kBlocks; ++i) {
      if (retired[i]) continue;
      lo = any ? std::min(lo, counts[i]) : counts[i];
      hi = any ? std::max(hi, counts[i]) : counts[i];
      any = true;
    }
    ASSERT_EQ(wear.MinCount(), lo) << "step " << step;
    ASSERT_EQ(wear.MaxCount(), hi) << "step " << step;
    ASSERT_EQ(wear.count(b), counts[b]);
  }
}

// ---------------------------------------------------------------------------
// SelectGcVictim unit behavior. Victim scores use a PageMap for valid
// counts; block b's pages start at b * pages_per_block.

PageMap MapWithValidCounts(const flash::Geometry& g,
                           const std::vector<uint32_t>& valid_per_block) {
  PageMap map(g, g.pages());
  uint64_t lpn = 0;
  uint64_t seq = 0;
  for (uint64_t b = 0; b < valid_per_block.size(); ++b) {
    for (uint32_t i = 0; i < valid_per_block[b]; ++i) {
      map.Map(lpn++, b * g.pages_per_block + i, ++seq);
    }
  }
  return map;
}

TEST(SelectGcVictim, EmptySealedListYieldsNoVictim) {
  flash::Geometry g = SmallGeometry();
  PageMap map(g, 16);
  WearTracker wear(g.blocks());
  EXPECT_EQ(SelectGcVictim({}, map, wear, GcTuning{}), kUnmapped);
}

TEST(SelectGcVictim, GreedyPrefersFewestValidPages) {
  flash::Geometry g = SmallGeometry();
  PageMap map = MapWithValidCounts(g, {10, 2, 7});
  WearTracker wear(g.blocks());
  EXPECT_EQ(SelectGcVictim({0, 1, 2}, map, wear, GcTuning{}), 1u);
}

TEST(SelectGcVictim, WearPenaltyDivertsFromWornBlock) {
  flash::Geometry g = SmallGeometry();
  // Block 1 is slightly emptier but much more worn; with alpha = 2 the
  // penalty (2 * 4 erases) outweighs its 3-page advantage.
  PageMap map = MapWithValidCounts(g, {5, 2});
  WearTracker wear(g.blocks());
  for (int i = 0; i < 4; ++i) wear.OnErase(1);
  GcTuning tuning;
  tuning.wear_alpha = 2.0;
  tuning.max_erase_spread = 100;  // stay out of emergency mode
  EXPECT_EQ(SelectGcVictim({0, 1}, map, wear, tuning), 0u);
  // Pure greedy (alpha 0) would still pick block 1.
  tuning.wear_alpha = 0.0;
  EXPECT_EQ(SelectGcVictim({0, 1}, map, wear, tuning), 1u);
}

TEST(SelectGcVictim, EmergencyModePicksLeastWornRegardlessOfValid) {
  flash::Geometry g = SmallGeometry();
  // Block 0: cold — never erased and completely full. Block 1: hot and
  // nearly empty. Once the spread hits the bound, the cold block is the
  // victim even though relocating it costs a full block of programs.
  PageMap map = MapWithValidCounts(g, {16, 1});
  WearTracker wear(g.blocks());
  for (int i = 0; i < 8; ++i) wear.OnErase(1);
  GcTuning tuning;
  tuning.max_erase_spread = 8;
  EXPECT_EQ(SelectGcVictim({0, 1}, map, wear, tuning), 0u);
  // Below the bound (and with the wear penalty muted), greediness rules
  // again: at the default alpha block 1's 8-erase penalty would still
  // outweigh its 15-page advantage.
  tuning.max_erase_spread = 9;
  tuning.wear_alpha = 0.0;
  EXPECT_EQ(SelectGcVictim({0, 1}, map, wear, tuning), 1u);
}

TEST(SelectGcVictim, TiesBreakToOldestSealedBlock) {
  flash::Geometry g = SmallGeometry();
  PageMap map = MapWithValidCounts(g, {3, 3, 3});
  WearTracker wear(g.blocks());
  EXPECT_EQ(SelectGcVictim({2, 0, 1}, map, wear, GcTuning{}), 2u);
}

TEST(SelectGcVictim, BlocksWithProgramsInFlightAreSkipped) {
  flash::Geometry g = SmallGeometry();
  PageMap map = MapWithValidCounts(g, {3, 1, 2});
  WearTracker wear(g.blocks());
  std::vector<uint32_t> inflight(g.blocks(), 0);
  EXPECT_EQ(SelectGcVictim({0, 1, 2}, map, wear, GcTuning{}, &inflight), 1u);
  inflight[1] = 2;  // the cheapest block is still taking programs
  EXPECT_EQ(SelectGcVictim({0, 1, 2}, map, wear, GcTuning{}, &inflight), 2u);
  inflight[0] = inflight[2] = 1;
  EXPECT_EQ(SelectGcVictim({0, 1, 2}, map, wear, GcTuning{}, &inflight),
            kUnmapped);
}

// ---------------------------------------------------------------------------
// End-to-end wear behavior. A hot/cold split is the adversarial workload:
// cold blocks never invalidate, so greedy GC never erases them and the
// erase-count spread grows without bound; the wear-aware selector must
// migrate cold data and keep the spread near the configured bound.

struct ChurnOutcome {
  uint32_t max_spread_seen = 0;
  uint32_t final_spread = 0;
  uint64_t gc_erases = 0;
};

ChurnOutcome RunHotColdChurn(double wear_alpha, uint32_t max_erase_spread,
                             uint64_t seed) {
  sim::Simulator sim;
  flash::Array array(&sim, SmallGeometry(), flash::Timing{},
                     flash::Reliability{}, seed);
  FtlConfig config;
  config.buffer_pages = 16;
  config.flush_watermark = 4;
  config.gc_low_watermark = 4;
  config.gc_wear_alpha = wear_alpha;
  config.gc_max_erase_spread = max_erase_spread;
  Ftl ftl(&sim, &array, config);

  // Cold data: one-shot fill of a range that is never touched again.
  const uint64_t cold_lpns = 160;  // ~10 blocks of immortal data
  for (uint64_t lpn = 0; lpn < cold_lpns; ++lpn) {
    ftl.WriteBuffered(lpn, std::vector<uint8_t>(4096, 0xC0), [](Status) {});
    if (lpn % 16 == 15) sim.Run();
  }
  Status flushed = Status::Internal("pending");
  ftl.Flush([&](Status s) { flushed = s; });
  sim.Run();
  EXPECT_TRUE(flushed.ok());

  // Hot churn: a tiny working set overwritten far past raw capacity,
  // via WriteDirect so every overwrite reaches NAND (buffered writes to a
  // small set would coalesce in the DRAM buffer and starve GC of churn).
  // A separate warm buffered set keeps the conventional stream's write
  // points rolling — a permanently parked write point is a never-sealed,
  // never-erased block that would pin the wear floor outside GC's reach.
  // It must be disjoint from the hot set because a direct write supersedes
  // (and discards) any buffered copy of the same lpn before it can flush.
  sim::Rng rng(seed);
  ChurnOutcome outcome;
  for (int i = 0; i < 9000; ++i) {
    if (i % 8 == 1) {
      uint64_t warm = cold_lpns + 16 + rng.Uniform(32);
      ftl.WriteBuffered(warm,
                        std::vector<uint8_t>(4096, static_cast<uint8_t>(i)),
                        [](Status) {});
    } else {
      uint64_t lpn = cold_lpns + rng.Uniform(16);
      ftl.WriteDirect(IoClass::kDestage, lpn,
                      std::vector<uint8_t>(4096, static_cast<uint8_t>(i)),
                      [](Status) {});
    }
    if (i % 64 == 63) {
      sim.Run();
      outcome.max_spread_seen =
          std::max(outcome.max_spread_seen, ftl.wear().Spread());
    }
  }
  sim.Run();
  outcome.final_spread = ftl.wear().Spread();
  outcome.gc_erases = ftl.stats().gc_erases;
  return outcome;
}

TEST(GcWear, SpreadStaysNearBoundWhileGreedyDiverges) {
  const uint32_t bound = 6;
  ChurnOutcome aware = RunHotColdChurn(2.0, bound, 7);
  // Pure greedy: no wear term, bound effectively disabled.
  ChurnOutcome greedy = RunHotColdChurn(0.0, 0, 7);

  ASSERT_GT(aware.gc_erases, 0u);
  ASSERT_GT(greedy.gc_erases, 0u);
  // Cold blocks pin greedy's minimum at zero forever; the spread ends up
  // far past the bound the wear-aware selector holds.
  EXPECT_GT(greedy.final_spread, bound * 2);
  // Wear-aware: cold migration kicks in at the bound. The pool can
  // overshoot transiently (migration itself costs programs before the
  // young block rejoins), hence the slack of one migration round.
  EXPECT_LE(aware.max_spread_seen, bound + 4);
  EXPECT_LT(aware.max_spread_seen, greedy.max_spread_seen);
}

// GC must make forward progress under a concurrent destage-class stream:
// every write eventually acks OK (no erased-pool starvation turning into
// ResourceExhausted), and destage ops are not priority-inverted behind
// GC's conventional-class traffic when destage has priority.
TEST(GcWear, ForwardProgressUnderConcurrentDestageStream) {
  sim::Simulator sim;
  flash::Array array(&sim, SmallGeometry(), flash::Timing{},
                     flash::Reliability{}, 3);
  FtlConfig config;
  config.buffer_pages = 16;
  config.flush_watermark = 4;
  config.gc_low_watermark = 4;
  Ftl ftl(&sim, &array, config);
  ftl.scheduler().set_policy(SchedulingPolicy::kDestagePriority);

  sim::Rng rng(3);
  int acked = 0;
  int failed = 0;
  const int kWrites = 4000;
  for (int i = 0; i < kWrites; ++i) {
    // Interleave destage-class appends with conventional churn, far past
    // raw capacity so GC storms run concurrently with the stream.
    uint64_t lpn = rng.Uniform(64);
    auto done = [&](Status status) {
      status.ok() ? ++acked : ++failed;
    };
    if (i % 2 == 0) {
      ftl.WriteDirect(IoClass::kDestage, lpn,
                      std::vector<uint8_t>(4096, static_cast<uint8_t>(i)), done);
    } else {
      ftl.WriteBuffered(lpn, std::vector<uint8_t>(4096, static_cast<uint8_t>(i)), done);
    }
    if (i % 32 == 31) sim.Run();
  }
  sim.Run();

  EXPECT_EQ(acked, kWrites);
  EXPECT_EQ(failed, 0);  // GC kept the erased pool alive throughout
  EXPECT_GT(ftl.stats().gc_erases, 0u);
  EXPECT_GT(ftl.free_blocks(), 0u);

  // Destage priority held: per-op queue wait for the destage class stays
  // below the conventional class's (GC relocation traffic rides there).
  const Scheduler& sched = ftl.scheduler();
  ASSERT_GT(sched.issued(IoClass::kDestage), 0u);
  ASSERT_GT(sched.issued(IoClass::kConventional), 0u);
  double destage_wait = static_cast<double>(sched.wait_ns(IoClass::kDestage)) /
                        static_cast<double>(sched.issued(IoClass::kDestage));
  double conv_wait =
      static_cast<double>(sched.wait_ns(IoClass::kConventional)) /
      static_cast<double>(sched.issued(IoClass::kConventional));
  EXPECT_LT(destage_wait, conv_wait);
}

}  // namespace
}  // namespace xssd::ftl
