#include "sim/interval_set.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/random.h"

namespace xssd::sim {
namespace {

TEST(IntervalSet, EmptyHasNoCoverage) {
  IntervalSet set;
  EXPECT_TRUE(set.empty());
  EXPECT_EQ(set.ContiguousEnd(0), 0u);
  EXPECT_FALSE(set.Contains(0));
  EXPECT_FALSE(set.HasGapAfter(0));
}

TEST(IntervalSet, SingleInterval) {
  IntervalSet set;
  set.Insert(10, 20);
  EXPECT_EQ(set.interval_count(), 1u);
  EXPECT_TRUE(set.Contains(10));
  EXPECT_TRUE(set.Contains(19));
  EXPECT_FALSE(set.Contains(20));
  EXPECT_EQ(set.ContiguousEnd(10), 20u);
  EXPECT_EQ(set.ContiguousEnd(0), 0u);  // hole before 10
  EXPECT_TRUE(set.HasGapAfter(0));
}

TEST(IntervalSet, AbuttingIntervalsMerge) {
  IntervalSet set;
  set.Insert(0, 10);
  set.Insert(10, 20);
  EXPECT_EQ(set.interval_count(), 1u);
  EXPECT_EQ(set.ContiguousEnd(0), 20u);
}

TEST(IntervalSet, OverlappingIntervalsMerge) {
  IntervalSet set;
  set.Insert(0, 15);
  set.Insert(10, 25);
  set.Insert(5, 8);
  EXPECT_EQ(set.interval_count(), 1u);
  EXPECT_EQ(set.ContiguousEnd(0), 25u);
}

TEST(IntervalSet, GapDetectedAndFilled) {
  IntervalSet set;
  set.Insert(0, 100);
  set.Insert(200, 300);  // hole [100, 200)
  EXPECT_EQ(set.ContiguousEnd(0), 100u);
  EXPECT_TRUE(set.HasGapAfter(0));
  set.Insert(100, 200);  // fill it
  EXPECT_EQ(set.ContiguousEnd(0), 300u);
  EXPECT_FALSE(set.HasGapAfter(0));
  EXPECT_EQ(set.interval_count(), 1u);
}

TEST(IntervalSet, InsertSwallowsMultipleSuccessors) {
  IntervalSet set;
  set.Insert(10, 20);
  set.Insert(30, 40);
  set.Insert(50, 60);
  set.Insert(0, 100);
  EXPECT_EQ(set.interval_count(), 1u);
  EXPECT_EQ(set.ContiguousEnd(0), 100u);
}

TEST(IntervalSet, EmptyInsertIgnored) {
  IntervalSet set;
  set.Insert(5, 5);
  EXPECT_TRUE(set.empty());
}

TEST(IntervalSet, TrimBelowDropsConsumedData) {
  IntervalSet set;
  set.Insert(0, 100);
  set.Insert(200, 300);
  set.TrimBelow(50);
  EXPECT_FALSE(set.Contains(10));
  EXPECT_TRUE(set.Contains(50));
  EXPECT_EQ(set.ContiguousEnd(50), 100u);
  set.TrimBelow(250);
  EXPECT_EQ(set.ContiguousEnd(250), 300u);
  EXPECT_EQ(set.interval_count(), 1u);
}

TEST(IntervalSet, ClearEmpties) {
  IntervalSet set;
  set.Insert(0, 10);
  set.Clear();
  EXPECT_TRUE(set.empty());
}

// Property: inserting any permutation of a partition of [0, N) yields full
// coverage with a single interval — the CMB "mostly sequential" tolerance.
class IntervalSetPermutationTest : public ::testing::TestWithParam<uint64_t> {
};

TEST_P(IntervalSetPermutationTest, AnyInsertOrderCoversRange) {
  Rng rng(GetParam());
  // Random partition of [0, 4096) into chunks of 1..128 bytes.
  std::vector<std::pair<uint64_t, uint64_t>> chunks;
  uint64_t at = 0;
  while (at < 4096) {
    uint64_t len = std::min<uint64_t>(1 + rng.Uniform(128), 4096 - at);
    chunks.push_back({at, at + len});
    at += len;
  }
  // Shuffle.
  for (size_t i = chunks.size(); i > 1; --i) {
    std::swap(chunks[i - 1], chunks[rng.Uniform(i)]);
  }
  IntervalSet set;
  uint64_t inserted = 0;
  for (auto [begin, end] : chunks) {
    set.Insert(begin, end);
    inserted += end - begin;
    // Invariant: contiguous prefix never exceeds total inserted bytes.
    EXPECT_LE(set.ContiguousEnd(0), inserted);
  }
  EXPECT_EQ(set.ContiguousEnd(0), 4096u);
  EXPECT_EQ(set.interval_count(), 1u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, IntervalSetPermutationTest,
                         ::testing::Range<uint64_t>(0, 20));

// Differential: a seeded mix of in-order runs, overlapping re-inserts,
// out-of-order islands that later inserts fill, and trims from both ends
// must leave the set agreeing with a one-byte-per-offset model on every
// query, and its interval count equal to the model's number of runs.
class IntervalSetModelTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(IntervalSetModelTest, MatchesAByteBitmap) {
  constexpr uint64_t kSpace = 2048;
  Rng rng(GetParam());
  IntervalSet set;
  std::vector<uint8_t> model(kSpace, 0);
  uint64_t cursor = 0;  // next in-order offset
  auto insert = [&](uint64_t begin, uint64_t end) {
    end = std::min(end, kSpace);
    set.Insert(begin, end);
    for (uint64_t i = begin; i < end; ++i) model[i] = 1;
  };
  for (int step = 0; step < 400; ++step) {
    uint64_t pick = rng.Uniform(100);
    if (pick < 45) {  // in-order chunk, abutting or overlapping the last
      uint64_t back = rng.Uniform(4) == 0 ? rng.Uniform(16) : 0;
      uint64_t begin = cursor > back ? cursor - back : 0;
      uint64_t end = begin + 1 + rng.Uniform(64);
      insert(begin, end);
      cursor = std::min(std::max(cursor, end), kSpace - 1);
    } else if (pick < 65) {  // out-of-order island ahead of the cursor
      uint64_t begin = cursor + 1 + rng.Uniform(256);
      if (begin < kSpace) insert(begin, begin + 1 + rng.Uniform(48));
    } else if (pick < 85) {  // anywhere: fills holes, swallows islands
      uint64_t begin = rng.Uniform(kSpace);
      insert(begin, begin + rng.Uniform(300));
    } else if (pick < 95) {  // consumed prefix
      uint64_t below = rng.Uniform(cursor + 1);
      set.TrimBelow(below);
      for (uint64_t i = 0; i < below; ++i) model[i] = 0;
    } else {  // truncated suffix
      uint64_t above = rng.Uniform(kSpace);
      set.TrimAbove(above);
      for (uint64_t i = above; i < kSpace; ++i) model[i] = 0;
      cursor = std::min(cursor, above);
    }

    size_t runs = 0;
    for (uint64_t i = 0; i < kSpace; ++i) {
      if (model[i] && (i == 0 || !model[i - 1])) ++runs;
    }
    ASSERT_EQ(set.interval_count(), runs) << "step " << step;
    ASSERT_EQ(set.empty(), runs == 0) << "step " << step;
    for (uint64_t from = 0; from < kSpace; from += 1 + rng.Uniform(24)) {
      ASSERT_EQ(set.Contains(from), model[from] != 0)
          << "step " << step << " offset " << from;
      uint64_t end = from;
      while (end < kSpace && model[end]) ++end;
      ASSERT_EQ(set.ContiguousEnd(from), end)
          << "step " << step << " from " << from;
      bool later = std::find(model.begin() + static_cast<ptrdiff_t>(end),
                             model.end(), 1) != model.end();
      ASSERT_EQ(set.HasGapAfter(from), later)
          << "step " << step << " from " << from;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IntervalSetModelTest,
                         ::testing::Range<uint64_t>(1, 9));

}  // namespace
}  // namespace xssd::sim
