// Lapped tail reads: once the destage ring has overwritten the slot that
// held the reader's next page, the bytes are gone from the conventional
// side. The read must fail at once with a typed OutOfRange naming the
// first lost stream offset — not spin on the slot, not return the newer
// lap's bytes, and not move the cursor.

#include <gtest/gtest.h>

#include <vector>

#include "core/page_format.h"
#include "host/node.h"
#include "host/xcalls.h"

namespace xssd::host {
namespace {

core::VillarsConfig WrapConfig() {
  core::VillarsConfig config;
  config.geometry.channels = 2;
  config.geometry.dies_per_channel = 2;
  config.geometry.blocks_per_plane = 16;
  config.geometry.pages_per_block = 32;
  // Tiny conventional-side ring: ten destage pages lap an 8-slot ring, so
  // slot 0 permanently holds a second-lap sequence.
  config.destage.ring_lba_count = 8;
  return config;
}

TEST(XLogClientTailRead, LappedReadFailsAtOnceWithOutOfRange) {
  sim::Simulator sim;
  StorageNode node(&sim, WrapConfig(), pcie::FabricConfig{}, "lapped");
  ASSERT_TRUE(node.Init().ok());
  const uint64_t capacity = core::DestagePayloadCapacity(
      node.device().config().geometry.page_bytes);
  std::vector<uint8_t> wal(10 * capacity, 0xAB);
  ASSERT_EQ(x_pwrite(sim, node.client(), wal.data(), wal.size()),
            static_cast<ssize_t>(wal.size()));
  ASSERT_EQ(x_fsync(sim, node.client()), 0);
  sim.RunFor(sim::Ms(5));  // let destaging finish lapping the ring
  ASSERT_EQ(node.device().destage().destaged(), wal.size());

  // Two attempts: the cursor stays put, so the second fails the same way.
  for (uint64_t attempt = 1; attempt <= 2; ++attempt) {
    bool fired = false;
    Status status = Status::OK();
    std::vector<uint8_t> bytes(1, 0);
    node.client().ReadTail(&node.driver(), 100,
                           [&](Status s, std::vector<uint8_t> data) {
                             status = s;
                             bytes = std::move(data);
                             fired = true;
                           });
    // One register poll and one page read: well inside 1 ms.
    sim.RunFor(sim::Ms(1));
    ASSERT_TRUE(fired) << "lapped tail read still pending";
    EXPECT_TRUE(status.IsOutOfRange()) << status.ToString();
    EXPECT_NE(status.message().find("stream offset 0"), std::string::npos)
        << status.ToString();
    EXPECT_TRUE(bytes.empty());
    EXPECT_EQ(node.client().read_cursor(), 0u);
    EXPECT_EQ(node.client().read_deadline_failures(), attempt);
    EXPECT_EQ(node.client().slot_rereads(), 0u);
  }
}

}  // namespace
}  // namespace xssd::host
