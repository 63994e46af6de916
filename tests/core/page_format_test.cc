#include "core/page_format.h"

#include <gtest/gtest.h>

#include <cstring>

namespace xssd::core {
namespace {

// A built page image as a vector the tests can corrupt.
std::vector<uint8_t> Build(const DestagePageHeader& header,
                           const std::vector<uint8_t>& data,
                           uint32_t page_bytes) {
  return BuildDestagePage(header, page_bytes,
                          [&](uint8_t* out) {
                            std::memcpy(out, data.data(), data.size());
                          })
      .ToVector();
}

TEST(PageFormat, BuildParseRoundTrip) {
  std::vector<uint8_t> data(1000);
  for (size_t i = 0; i < data.size(); ++i) data[i] = static_cast<uint8_t>(i);
  DestagePageHeader header;
  header.sequence = 42;
  header.stream_offset = 123456;
  header.data_len = static_cast<uint32_t>(data.size());
  header.epoch = 3;

  std::vector<uint8_t> page = Build(header, data, 16384);
  EXPECT_EQ(page.size(), 16384u);

  Result<ParsedDestagePage> parsed = ParseDestagePage(page);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->header.sequence, 42u);
  EXPECT_EQ(parsed->header.stream_offset, 123456u);
  EXPECT_EQ(parsed->header.epoch, 3u);
  EXPECT_EQ(parsed->data, data);
}

TEST(PageFormat, FillerIsZero) {
  std::vector<uint8_t> data(10, 0xFF);
  DestagePageHeader header;
  header.data_len = 10;
  std::vector<uint8_t> page = Build(header, data, 4096);
  for (size_t i = DestagePageHeader::kSize + 10; i < page.size(); ++i) {
    EXPECT_EQ(page[i], 0) << "at " << i;
  }
}

TEST(PageFormat, UnwrittenPageIsNotFound) {
  std::vector<uint8_t> erased(4096, 0xFF);
  EXPECT_TRUE(ParseDestagePage(erased).status().IsNotFound());
  std::vector<uint8_t> zeros(4096, 0x00);
  EXPECT_TRUE(ParseDestagePage(zeros).status().IsNotFound());
}

TEST(PageFormat, CorruptionDetectedInData) {
  std::vector<uint8_t> data(100, 0xAB);
  DestagePageHeader header;
  header.data_len = 100;
  auto page = Build(header, data, 4096);
  page[DestagePageHeader::kSize + 50] ^= 0x01;
  EXPECT_TRUE(ParseDestagePage(page).status().IsCorruption());
}

TEST(PageFormat, CorruptionDetectedInHeader) {
  std::vector<uint8_t> data(100, 0xAB);
  DestagePageHeader header;
  header.data_len = 100;
  header.sequence = 7;
  auto page = Build(header, data, 4096);
  page[8] ^= 0x01;  // sequence field
  EXPECT_TRUE(ParseDestagePage(page).status().IsCorruption());
}

TEST(PageFormat, TruncatedPageRejected) {
  std::vector<uint8_t> tiny(8, 0);
  EXPECT_FALSE(ParseDestagePage(tiny).ok());
}

TEST(PageFormat, InsaneLengthRejected) {
  std::vector<uint8_t> data(10, 1);
  DestagePageHeader header;
  header.data_len = 10;
  auto page = Build(header, data, 4096);
  // Corrupt the length to exceed the page; CRC check would also catch it,
  // but the bounds check must fire first (no OOB read).
  uint32_t huge = 1 << 30;
  std::memcpy(page.data() + 24, &huge, 4);
  EXPECT_TRUE(ParseDestagePage(page).status().IsCorruption());
}

TEST(PageFormat, CapacityAccountsForHeader) {
  EXPECT_EQ(DestagePayloadCapacity(16384), 16384u - 32);
}

}  // namespace
}  // namespace xssd::core
