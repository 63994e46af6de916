#include "pcie/tlp.h"

#include <gtest/gtest.h>

namespace xssd::pcie {
namespace {

TEST(Tlp, TlpCountChunking) {
  EXPECT_EQ(TlpCountFor(0, 64), 0u);
  EXPECT_EQ(TlpCountFor(1, 64), 1u);
  EXPECT_EQ(TlpCountFor(64, 64), 1u);
  EXPECT_EQ(TlpCountFor(65, 64), 2u);
  EXPECT_EQ(TlpCountFor(256, 8), 32u);
}

TEST(Tlp, WireBytesIncludePerPacketOverhead) {
  EXPECT_EQ(WireBytesFor(64, 64), 64 + kTlpOverheadBytes);
  EXPECT_EQ(WireBytesFor(128, 64), 128 + 2 * kTlpOverheadBytes);
  // Uncached stores pay overhead every 8 bytes.
  EXPECT_EQ(WireBytesFor(64, 8), 64 + 8 * kTlpOverheadBytes);
}

}  // namespace
}  // namespace xssd::pcie
