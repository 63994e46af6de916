#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/crc32.h"
#include "common/crc32_paths.h"
#include "common/status.h"
#include "common/units.h"

namespace xssd {
namespace {

TEST(Status, DefaultIsOk) {
  Status status;
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(status.ToString(), "OK");
}

TEST(Status, FactoriesCarryCodeAndMessage) {
  Status status = Status::NotFound("missing row");
  EXPECT_FALSE(status.ok());
  EXPECT_TRUE(status.IsNotFound());
  EXPECT_EQ(status.code(), StatusCode::kNotFound);
  EXPECT_EQ(status.message(), "missing row");
  EXPECT_EQ(status.ToString(), "NotFound: missing row");
}

TEST(Status, PredicatesMatchCodes) {
  EXPECT_TRUE(Status::Corruption("x").IsCorruption());
  EXPECT_TRUE(Status::ResourceExhausted("x").IsResourceExhausted());
  EXPECT_TRUE(Status::Unavailable("x").IsUnavailable());
  EXPECT_TRUE(Status::OutOfRange("x").IsOutOfRange());
  EXPECT_TRUE(Status::IoError("x").IsIoError());
  EXPECT_FALSE(Status::IoError("x").IsNotFound());
}

TEST(Status, EqualityIsByCode) {
  EXPECT_EQ(Status::NotFound("a"), Status::NotFound("b"));
  EXPECT_FALSE(Status::NotFound("a") == Status::Corruption("a"));
}

Status Inner(bool fail) {
  if (fail) return Status::Aborted("inner");
  return Status::OK();
}
Status Outer(bool fail) {
  XSSD_RETURN_IF_ERROR(Inner(fail));
  return Status::OK();
}

TEST(Status, ReturnIfErrorPropagates) {
  EXPECT_TRUE(Outer(false).ok());
  EXPECT_EQ(Outer(true).code(), StatusCode::kAborted);
}

TEST(Result, HoldsValue) {
  Result<int> result(42);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(*result, 42);
  EXPECT_EQ(result.value_or(7), 42);
}

TEST(Result, HoldsError) {
  Result<int> result(Status::NotFound("nope"));
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsNotFound());
  EXPECT_EQ(result.value_or(7), 7);
}

TEST(Result, MoveOutValue) {
  Result<std::string> result(std::string("hello"));
  std::string s = std::move(result).value();
  EXPECT_EQ(s, "hello");
}

TEST(Crc32c, KnownVectors) {
  // CRC-32C("123456789") = 0xE3069283 (well-known check value).
  EXPECT_EQ(Crc32c("123456789", 9), 0xE3069283u);
  // Empty input.
  EXPECT_EQ(Crc32c("", 0), 0u);
}

TEST(Crc32c, SeedChaining) {
  const char data[] = "hello world";
  uint32_t whole = Crc32c(data, 11);
  uint32_t part = Crc32c(data, 5);
  uint32_t chained = Crc32c(data + 5, 6, part);
  EXPECT_EQ(whole, chained);
}

TEST(Crc32c, DetectsBitFlip) {
  std::vector<uint8_t> data(100, 0xAA);
  uint32_t clean = Crc32c(data.data(), data.size());
  data[50] ^= 0x01;
  EXPECT_NE(clean, Crc32c(data.data(), data.size()));
}

// Both implementations behind Crc32c, reached directly.
using CrcPath = uint32_t (*)(const void*, size_t, uint32_t);

// RFC 3720 (iSCSI) appendix B.4 CRC-32C test vectors.
void ExpectRfc3720Vectors(CrcPath crc) {
  std::vector<uint8_t> data(32, 0x00);
  EXPECT_EQ(crc(data.data(), data.size(), 0), 0x8A9136AAu);
  std::fill(data.begin(), data.end(), 0xFF);
  EXPECT_EQ(crc(data.data(), data.size(), 0), 0x62A8AB43u);
  for (size_t i = 0; i < data.size(); ++i) data[i] = static_cast<uint8_t>(i);
  EXPECT_EQ(crc(data.data(), data.size(), 0), 0x46DD794Eu);
}

std::vector<uint8_t> PatternBytes(size_t len) {
  std::vector<uint8_t> data(len);
  uint32_t x = 0x12345678u;
  for (auto& b : data) {
    x = x * 1664525u + 1013904223u;
    b = static_cast<uint8_t>(x >> 24);
  }
  return data;
}

TEST(Crc32cPaths, TableMatchesRfc3720Vectors) {
  ExpectRfc3720Vectors(&crc32c_paths::Table);
}

TEST(Crc32cPaths, HardwareMatchesRfc3720Vectors) {
  if (!crc32c_paths::HardwareAvailable()) GTEST_SKIP() << "no SSE4.2";
  ExpectRfc3720Vectors(&crc32c_paths::Hardware);
}

TEST(Crc32cPaths, HardwareMatchesTableOnShortUnalignedInputs) {
  if (!crc32c_paths::HardwareAvailable()) GTEST_SKIP() << "no SSE4.2";
  std::vector<uint8_t> data = PatternBytes(64 + 8);
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t len = 0; len <= 64; ++len) {
      const uint8_t* p = data.data() + offset;
      EXPECT_EQ(crc32c_paths::Hardware(p, len, 0),
                crc32c_paths::Table(p, len, 0))
          << "offset " << offset << " len " << len;
    }
  }
}

TEST(Crc32cPaths, HardwareMatchesTableOnAPage) {
  if (!crc32c_paths::HardwareAvailable()) GTEST_SKIP() << "no SSE4.2";
  std::vector<uint8_t> page = PatternBytes(16 * 1024);
  EXPECT_EQ(crc32c_paths::Hardware(page.data(), page.size(), 0),
            crc32c_paths::Table(page.data(), page.size(), 0));
}

TEST(Crc32cPaths, HardwareMatchesTableUnderSeedChaining) {
  if (!crc32c_paths::HardwareAvailable()) GTEST_SKIP() << "no SSE4.2";
  std::vector<uint8_t> data = PatternBytes(1000);
  const uint8_t* p = data.data();
  const size_t n = data.size();
  const uint32_t whole = crc32c_paths::Table(p, n, 0);
  // Split points that leave both pieces unaligned and of odd length.
  for (size_t split : {0, 1, 7, 13, 29, 500, 999, 1000}) {
    uint32_t head = crc32c_paths::Hardware(p, split, 0);
    EXPECT_EQ(head, crc32c_paths::Table(p, split, 0)) << "split " << split;
    EXPECT_EQ(crc32c_paths::Hardware(p + split, n - split, head), whole)
        << "split " << split;
  }
  // A non-zero starting seed flows through both paths alike.
  EXPECT_EQ(crc32c_paths::Hardware(p, 37, 0xDEADBEEFu),
            crc32c_paths::Table(p, 37, 0xDEADBEEFu));
}

TEST(Units, Helpers) {
  EXPECT_EQ(KiB(2), 2048u);
  EXPECT_EQ(MiB(1), 1048576u);
  EXPECT_EQ(GiB(1), 1073741824u);
}

}  // namespace
}  // namespace xssd
