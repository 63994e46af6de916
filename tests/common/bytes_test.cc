#include "common/bytes.h"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

namespace xssd {
namespace {

TEST(Bytes, AdoptingAVectorKeepsItsDataPointer) {
  std::vector<uint8_t> vec(4096, 0x5A);
  const uint8_t* buffer = vec.data();
  Bytes bytes(std::move(vec));
  EXPECT_EQ(bytes.data(), buffer);
  EXPECT_EQ(bytes.size(), 4096u);
  EXPECT_EQ(bytes[4095], 0x5A);
}

TEST(Bytes, SliceSharesTheSlab) {
  const uint8_t raw[] = {0, 1, 2, 3, 4, 5, 6, 7};
  Bytes whole = Bytes::Copy(raw, sizeof(raw));
  Bytes slice = whole.Slice(2, 4);
  EXPECT_EQ(slice.data(), whole.data() + 2);
  EXPECT_EQ(slice.size(), 4u);
  EXPECT_EQ(slice[0], 2);
  Bytes nested = slice.Slice(1, 2);
  EXPECT_EQ(nested.data(), whole.data() + 3);
  EXPECT_EQ(nested[1], 4);
}

TEST(Bytes, SlabIsFreedWithItsLastHandle) {
  const uint64_t before = Bytes::live_slabs();
  {
    Bytes copied = Bytes::Copy(reinterpret_cast<const uint8_t*>("abcd"), 4);
    Bytes adopted(std::vector<uint8_t>(16, 1));
    EXPECT_EQ(Bytes::live_slabs(), before + 2);
    Bytes slice = copied.Slice(1, 2);
    Bytes moved = std::move(adopted);
    copied = Bytes();  // the slice still holds the slab
    EXPECT_EQ(Bytes::live_slabs(), before + 2);
    EXPECT_EQ(slice[0], 'b');
    slice = Bytes();
    EXPECT_EQ(Bytes::live_slabs(), before + 1);
  }
  EXPECT_EQ(Bytes::live_slabs(), before);
}

TEST(Bytes, BuildHoldsExactlyWhatFillWrote) {
  Bytes built = Bytes::Build(300, [](uint8_t* out) {
    for (size_t i = 0; i < 300; ++i) out[i] = static_cast<uint8_t>(i * 7);
  });
  ASSERT_EQ(built.size(), 300u);
  for (size_t i = 0; i < 300; ++i) {
    EXPECT_EQ(built[i], static_cast<uint8_t>(i * 7)) << i;
  }
  EXPECT_TRUE(Bytes::Build(0, [](uint8_t*) { FAIL(); }).empty());
}

TEST(Bytes, FitPadsCutsOrShares) {
  Bytes three(std::vector<uint8_t>{1, 2, 3});
  Bytes same = three.Fit(3);
  EXPECT_EQ(same.data(), three.data());
  Bytes cut = three.Fit(2);
  EXPECT_EQ(cut.data(), three.data());
  EXPECT_EQ(cut.size(), 2u);
  Bytes padded = three.Fit(6);
  EXPECT_EQ(padded, Bytes(std::vector<uint8_t>{1, 2, 3, 0, 0, 0}));
  EXPECT_EQ(Bytes().Fit(2), Bytes(std::vector<uint8_t>{0, 0}));
}

}  // namespace
}  // namespace xssd
