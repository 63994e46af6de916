// RoundNs and TransferTime round without libm; these tests pin that the
// result equals std::llround over the edge classes where a shortcut could
// go wrong: exact halves and their neighbours, integers, the large
// magnitudes where doubles stop holding fractions, every transfer size of
// a wide range at the model's link rates, and random values.

#include "sim/time.h"

#include <cmath>
#include <cstdint>

#include <gtest/gtest.h>

#include "sim/random.h"

namespace xssd::sim {
namespace {

SimTime Reference(double ns) { return static_cast<SimTime>(std::llround(ns)); }

TEST(RoundNs, HalvesIntegersAndTheirNeighboursMatchLlround) {
  for (uint64_t k = 0; k < 200000; ++k) {
    const double kd = static_cast<double>(k);
    for (double x : {kd, kd + 0.5}) {
      for (double y : {std::nextafter(x, 0.0), x, std::nextafter(x, 1e300)}) {
        ASSERT_EQ(RoundNs(y), Reference(y)) << "x=" << y;
      }
    }
  }
}

TEST(RoundNs, LargeMagnitudesMatchLlround) {
  // From 2^40 to 2^61: below 2^52 a double still holds halves, above it
  // every double is an integer; check each power of two, its neighbours
  // and the halves next to it.
  for (int e = 40; e <= 61; ++e) {
    const double p = std::ldexp(1.0, e);
    for (double x : {p, p - 0.5, p + 0.5, p - 1.0, p + 1.0, p + 1.5}) {
      for (double y : {std::nextafter(x, 0.0), x, std::nextafter(x, 1e300)}) {
        ASSERT_EQ(RoundNs(y), Reference(y)) << "x=" << y << " e=" << e;
      }
    }
  }
}

TEST(RoundNs, RandomValuesMatchLlround) {
  Rng rng(2027);
  for (int i = 0; i < 1000000; ++i) {
    // A random mantissa at a random scale up to 2^62.
    const double x = std::ldexp(rng.NextDouble(), static_cast<int>(
                                                      rng.Uniform(63)));
    ASSERT_EQ(RoundNs(x), Reference(x)) << "x=" << x;
  }
}

TEST(TransferTime, MatchesLlroundAtModelLinkRates) {
  // Flash channel and PCIe gen 1-4 lanes, PCIe gen 3/4 links, host memory,
  // the FTL buffer and NTB link, PM, CMB SRAM and CMB DRAM at its default
  // available fraction.
  const double rates[] = {250e6, 500e6,  985e6, 1969e6, 985e6 * 4, 985e6 * 8,
                          1969e6 * 4, 12e9, 2e9,   8e9,    4e9,       2e9 * 0.3};
  for (double rate : rates) {
    for (uint64_t bytes = 1; bytes <= 200000; ++bytes) {
      SimTime expect = Reference(static_cast<double>(bytes) * 1e9 / rate);
      if (expect == 0) expect = 1;
      ASSERT_EQ(TransferTime(bytes, rate), expect)
          << bytes << " B at " << rate << " B/s";
    }
  }
  EXPECT_EQ(TransferTime(0, 1e9), 0u);
  EXPECT_EQ(TransferTime(1, 1e12), 1u);  // 0.001 ns rounds up to 1 ns
}

}  // namespace
}  // namespace xssd::sim
