// Rng::FillLowBytes against one Next() per byte: the dispatcher and every
// lane path it can pick. Also the jump that starts each lane.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/random.h"
#include "sim/random_paths.h"

namespace xssd::sim {
namespace {

using FillPath = void (*)(Rng&, uint8_t*, size_t);

constexpr uint64_t kSeeds[] = {0, 1, 42, UINT64_MAX};

std::vector<size_t> Lengths() {
  const size_t b = RngPaths::kBlockBytes;
  std::vector<size_t> lengths = {0, 1, b - 1, b, b + 1, 3 * b + 17};
  Rng pick(2027);
  for (int i = 0; i < 6; ++i) lengths.push_back(pick.Uniform(5 * b));
  return lengths;
}

// `fill` must write what the scalar loop writes and leave the state where
// it does, so the next 64 draws agree too.
void ExpectMatchesScalar(FillPath fill) {
  for (uint64_t seed : kSeeds) {
    for (size_t n : Lengths()) {
      SCOPED_TRACE(testing::Message() << "seed " << seed << ", n " << n);
      Rng want_rng(seed);
      Rng got_rng(seed);
      std::vector<uint8_t> want(n);
      std::vector<uint8_t> got(n, 0xA5);
      RngPaths::Scalar(want_rng, want.data(), n);
      fill(got_rng, got.data(), n);
      const auto wrong = std::mismatch(got.begin(), got.end(), want.begin());
      EXPECT_EQ(wrong.first - got.begin(), static_cast<ptrdiff_t>(n))
          << "first wrong byte";
      for (int i = 0; i < 64; ++i) {
        EXPECT_EQ(got_rng.Next(), want_rng.Next()) << "draw " << i;
      }
    }
  }
}

TEST(RngFill, ScalarIsOneNextPerByte) {
  Rng draws(7);
  Rng filled(7);
  std::vector<uint8_t> bytes(100);
  RngPaths::Scalar(filled, bytes.data(), bytes.size());
  for (uint8_t byte : bytes) {
    EXPECT_EQ(byte, static_cast<uint8_t>(draws.Next()));
  }
  EXPECT_EQ(filled.Next(), draws.Next());
}

TEST(RngFill, FillLowBytesMatchesScalar) {
  ExpectMatchesScalar(
      [](Rng& rng, uint8_t* out, size_t n) { rng.FillLowBytes(out, n); });
}

TEST(RngFill, Avx2LanesMatchScalar) {
  if (!RngPaths::Avx2Available()) GTEST_SKIP() << "no AVX2";
  ExpectMatchesScalar(&RngPaths::LanesAvx2);
}

TEST(RngFill, Avx512LanesMatchScalar) {
  if (!RngPaths::Avx512Available()) GTEST_SKIP() << "no AVX-512F";
  ExpectMatchesScalar(&RngPaths::LanesAvx512);
}

TEST(RngFill, JumpEqualsLaneBytesSingleSteps) {
  for (uint64_t seed : kSeeds) {
    Rng stepped(seed);
    for (int hop = 0; hop < 3; ++hop) {
      SCOPED_TRACE(testing::Message() << "seed " << seed << ", hop " << hop);
      Rng jumped = stepped;
      RngPaths::Jump(jumped);
      for (size_t i = 0; i < RngPaths::kLaneBytes; ++i) stepped.Next();
      EXPECT_TRUE(std::equal(RngPaths::State(jumped),
                             RngPaths::State(jumped) + 4,
                             RngPaths::State(stepped)));
      // Hop to an unrelated state further down the stream.
      for (int i = 0; i < 1000 + hop; ++i) stepped.Next();
    }
  }
}

}  // namespace
}  // namespace xssd::sim
