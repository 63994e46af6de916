#include <gtest/gtest.h>

#include <cmath>

#include "sim/histogram.h"
#include "sim/random.h"
#include "sim/stats.h"

namespace xssd::sim {
namespace {

TEST(LatencyRecorder, EmptyYieldsZeros) {
  LatencyRecorder recorder;
  EXPECT_TRUE(recorder.empty());
  EXPECT_EQ(recorder.Min(), 0);
  EXPECT_EQ(recorder.Mean(), 0);
  EXPECT_EQ(recorder.Percentile(50), 0);
}

TEST(LatencyRecorder, MinMaxMean) {
  LatencyRecorder recorder;
  for (double v : {5.0, 1.0, 3.0}) recorder.Add(v);
  EXPECT_EQ(recorder.Min(), 1.0);
  EXPECT_EQ(recorder.Max(), 5.0);
  EXPECT_DOUBLE_EQ(recorder.Mean(), 3.0);
  EXPECT_EQ(recorder.count(), 3u);
}

TEST(LatencyRecorder, PercentilesOfKnownDistribution) {
  LatencyRecorder recorder;
  for (int i = 1; i <= 100; ++i) recorder.Add(i);
  EXPECT_NEAR(recorder.Percentile(0), 1.0, 1e-9);
  EXPECT_NEAR(recorder.Percentile(100), 100.0, 1e-9);
  EXPECT_NEAR(recorder.Percentile(50), 50.5, 1.0);
  EXPECT_NEAR(recorder.Percentile(99), 99.0, 1.1);
}

TEST(LatencyRecorder, ExactInterpolatedPercentiles) {
  LatencyRecorder recorder;
  for (int i = 1; i <= 99; ++i) recorder.Add(static_cast<double>(i));
  // Interpolated nearest-rank: rank = p/100 * (n - 1).
  EXPECT_DOUBLE_EQ(recorder.Percentile(50), 50.0);
  EXPECT_DOUBLE_EQ(recorder.Percentile(25), 25.5);
}

TEST(Log2Histogram, PercentilesStayWithinTheDocumentedBound) {
  LatencyRecorder exact;
  Log2Histogram hist;
  Rng rng(42);
  for (int i = 0; i < 20000; ++i) {
    double sample = 1.0 + static_cast<double>(rng.Uniform(1 << 22));
    exact.Add(sample);
    hist.Add(sample);
  }
  // ≤ ~3.2% relative error per sample; percentile interpolation across a
  // dense sample set stays within ~2× that.
  for (double p : {1.0, 25.0, 50.0, 75.0, 90.0, 99.0, 99.9}) {
    double want = exact.Percentile(p);
    EXPECT_NEAR(hist.Percentile(p), want, want * 0.065) << "p" << p;
  }
}

TEST(Log2Histogram, SmallIntegerSamplesAreExact) {
  // Values below 32 get unit-width buckets, so a tiny discrete domain
  // loses nothing at the extremes.
  Log2Histogram hist;
  for (double s : {3, 3, 3, 5, 5, 9, 9, 9, 9, 31}) hist.Add(s);
  EXPECT_EQ(hist.Percentile(0), 3.0);
  EXPECT_EQ(hist.Percentile(100), 31.0);
  EXPECT_NEAR(hist.Percentile(50), 7.0, 2.01);
}

TEST(LatencyRecorder, AddAfterPercentileStillCorrect) {
  LatencyRecorder recorder;
  recorder.Add(10);
  EXPECT_EQ(recorder.Percentile(50), 10);
  recorder.Add(20);  // must re-sort internally
  EXPECT_EQ(recorder.Max(), 20);
  EXPECT_NEAR(recorder.Percentile(100), 20, 1e-9);
}

// Naive percentile over an unsorted copy, using the recorder's
// interpolation formula — the reference for the cache-invalidation test.
double NaivePercentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  double rank = p / 100.0 * static_cast<double>(samples.size() - 1);
  size_t lo = static_cast<size_t>(rank);
  size_t hi = std::min(lo + 1, samples.size() - 1);
  double frac = rank - static_cast<double>(lo);
  return samples[lo] * (1.0 - frac) + samples[hi] * frac;
}

// Regression for the stale sort cache: the old boolean `sorted_` flag was
// never cleared by Add()/Clear(), so any Percentile() after a Percentile()
// and a mutation consulted a stale order. Interleave mutations and queries
// randomly and compare every answer against the naive reference.
TEST(LatencyRecorder, RandomInterleavedMutationAndQuery) {
  Rng rng(77);
  LatencyRecorder recorder;
  std::vector<double> reference;
  for (int step = 0; step < 5000; ++step) {
    uint64_t action = rng.Uniform(10);
    if (action < 6) {
      double v = rng.NextDouble() * 1000.0;
      recorder.Add(v);
      reference.push_back(v);
    } else if (action < 9) {
      double p = static_cast<double>(rng.Uniform(101));
      ASSERT_NEAR(recorder.Percentile(p), NaivePercentile(reference, p),
                  1e-9)
          << "step " << step << " p" << p;
    } else if (rng.Uniform(20) == 0) {
      recorder.Clear();
      reference.clear();
    }
  }
}

// The precise failure mode of the old flag: query (caches the sort), add an
// element smaller than the minimum, query again.
TEST(LatencyRecorder, SortCacheInvalidatedByAdd) {
  LatencyRecorder recorder;
  recorder.Add(50);
  recorder.Add(60);
  EXPECT_DOUBLE_EQ(recorder.Percentile(0), 50.0);
  recorder.Add(10);  // must invalidate the cached order
  EXPECT_DOUBLE_EQ(recorder.Percentile(0), 10.0);
  EXPECT_DOUBLE_EQ(recorder.Percentile(100), 60.0);
  recorder.Clear();
  recorder.Add(7);
  EXPECT_DOUBLE_EQ(recorder.Percentile(50), 7.0);
}

TEST(LatencyRecorder, CandlestickOrdering) {
  LatencyRecorder recorder;
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) recorder.Add(rng.NextDouble());
  auto candle = recorder.Candlestick();
  EXPECT_LE(candle.min, candle.p25);
  EXPECT_LE(candle.p25, candle.p50);
  EXPECT_LE(candle.p50, candle.p75);
  EXPECT_LE(candle.p75, candle.max);
}

TEST(Counter, RatePerSec) {
  Counter counter;
  counter.Add(500);
  EXPECT_DOUBLE_EQ(counter.RatePerSec(Ms(500)), 1000.0);
  EXPECT_EQ(counter.RatePerSec(0), 0.0);
}

TEST(Rng, DeterministicFromSeed) {
  Rng a(42), b(42), c(43);
  EXPECT_EQ(a.Next(), b.Next());
  EXPECT_EQ(a.Next(), b.Next());
  Rng a2(42);
  EXPECT_NE(a2.Next(), c.Next());
}

TEST(Rng, UniformWithinBound) {
  Rng rng(1);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.Uniform(17), 17u);
  }
}

TEST(Rng, UniformRangeInclusive) {
  Rng rng(2);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 10000; ++i) {
    uint64_t v = rng.UniformRange(5, 8);
    EXPECT_GE(v, 5u);
    EXPECT_LE(v, 8u);
    saw_lo |= v == 5;
    saw_hi |= v == 8;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(9);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    double v = rng.NextDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
    sum += v;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(11);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.Bernoulli(0.3);
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.03);
}

TEST(Rng, ExponentialMean) {
  Rng rng(13);
  double sum = 0;
  for (int i = 0; i < 20000; ++i) sum += rng.Exponential(5.0);
  EXPECT_NEAR(sum / 20000, 5.0, 0.3);
}

}  // namespace
}  // namespace xssd::sim
