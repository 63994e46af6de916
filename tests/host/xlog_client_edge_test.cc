// Edge-case tests for XLogClient's crash handling: the sync_stall_timeout
// escape hatch (fsync must fail Unavailable against a halted device, and
// must NOT false-positive against a live one) and Reconnect() after a
// graceful power-fail vs a hard crash. These are the client-side halves
// of the crash contract the conformance fuzzer exercises end to end.

#include <gtest/gtest.h>

#include <vector>

#include "host/node.h"
#include "host/xcalls.h"
#include "host/xlog_client.h"

namespace xssd::host {
namespace {

core::VillarsConfig SmallConfig() {
  core::VillarsConfig config;
  config.geometry.channels = 2;
  config.geometry.dies_per_channel = 2;
  config.geometry.blocks_per_plane = 16;
  config.geometry.pages_per_block = 32;
  config.destage.ring_lba_count = 128;
  return config;
}

XLogClientOptions WithStallTimeout(sim::SimTime timeout) {
  XLogClientOptions options;
  options.sync_stall_timeout = timeout;
  return options;
}

class XLogClientEdgeTest : public ::testing::Test {
 protected:
  XLogClientEdgeTest()
      : node_(&sim_, SmallConfig(), pcie::FabricConfig{}, "edge",
              WithStallTimeout(sim::Ms(1))) {
    EXPECT_TRUE(node_.Init().ok());
  }

  sim::Simulator sim_;
  StorageNode node_;
};

TEST_F(XLogClientEdgeTest, SyncFailsUnavailableAgainstHaltedDevice) {
  // Halt the device first, then append: the bytes are stored but the
  // credit can never advance, so the sync stalls until the timeout path
  // reads the status register and sees kHalted.
  node_.device().CrashHard();
  std::vector<uint8_t> data(4096, 0xAB);
  Status append_status = Status::Internal("pending");
  node_.client().Append(data.data(), data.size(),
                        [&](Status s) { append_status = s; });
  Status sync_status = Status::Internal("pending");
  node_.client().Sync([&](Status s) { sync_status = s; });
  sim_.RunFor(sim::Ms(20));

  EXPECT_TRUE(append_status.ok());  // store posted; durability is sync's job
  EXPECT_EQ(sync_status.code(), StatusCode::kUnavailable)
      << sync_status.ToString();
  EXPECT_EQ(node_.client().sync_failures(), 1u);
}

TEST_F(XLogClientEdgeTest, SyncTimeoutWhileCrashClausePendingMidSync) {
  // The crash lands while the sync is already polling: same outcome, the
  // stall window expires against a halted device.
  std::vector<uint8_t> data(8192, 0x5C);
  ASSERT_EQ(x_pwrite(sim_, node_.client(), data.data(), data.size()),
            static_cast<ssize_t>(data.size()));
  ASSERT_EQ(x_fsync(sim_, node_.client()), 0);  // baseline: device is fine

  // More bytes, then halt before they can be credited.
  node_.client().Append(data.data(), data.size(), [](Status) {});
  node_.device().CrashHard();
  Status sync_status = Status::Internal("pending");
  node_.client().Sync([&](Status s) { sync_status = s; });
  sim_.RunFor(sim::Ms(20));

  EXPECT_EQ(sync_status.code(), StatusCode::kUnavailable)
      << sync_status.ToString();
}

TEST_F(XLogClientEdgeTest, SyncDoesNotFalselyFailOnLiveDevice) {
  // A short stall window against a live (merely busy) device must grant
  // another polling round, not report Unavailable: the status register
  // says alive, so the client keeps waiting and the sync completes.
  std::vector<uint8_t> data(64 * 1024, 0xE1);
  ASSERT_EQ(x_pwrite(sim_, node_.client(), data.data(), data.size()),
            static_cast<ssize_t>(data.size()));
  EXPECT_EQ(x_fsync(sim_, node_.client()), 0);
  EXPECT_EQ(node_.client().sync_failures(), 0u);
  EXPECT_GE(node_.device().cmb().local_credit(), data.size());
}

TEST_F(XLogClientEdgeTest, ReconnectAfterGracefulPowerFail) {
  std::vector<uint8_t> data(8192, 0x77);
  ASSERT_EQ(x_pwrite(sim_, node_.client(), data.data(), data.size()),
            static_cast<ssize_t>(data.size()));
  ASSERT_EQ(x_fsync(sim_, node_.client()), 0);

  bool drained = false;
  node_.device().PowerFail([&]() { drained = true; });
  sim_.RunFor(sim::Ms(50));
  ASSERT_TRUE(drained);  // supercap flush destaged the acknowledged bytes
  node_.device().Reboot();

  ASSERT_TRUE(node_.client().Reconnect().ok());
  EXPECT_EQ(node_.client().reconnects(), 1u);
  // Fresh epoch: the client restarts at the rebooted device's tail and
  // full service (append + fsync + tail read) works again.
  std::vector<uint8_t> fresh(512, 0x12);
  EXPECT_EQ(x_pwrite(sim_, node_.client(), fresh.data(), fresh.size()),
            static_cast<ssize_t>(fresh.size()));
  EXPECT_EQ(x_fsync(sim_, node_.client()), 0);
  EXPECT_EQ(node_.client().sync_failures(), 0u);
}

TEST_F(XLogClientEdgeTest, ReconnectAfterHardCrash) {
  std::vector<uint8_t> data(4096, 0x3D);
  ASSERT_EQ(x_pwrite(sim_, node_.client(), data.data(), data.size()),
            static_cast<ssize_t>(data.size()));

  node_.device().CrashHard();
  Status sync_status = Status::Internal("pending");
  node_.client().Sync([&](Status s) { sync_status = s; });
  sim_.RunFor(sim::Ms(20));
  ASSERT_EQ(sync_status.code(), StatusCode::kUnavailable);

  node_.device().Reboot();
  ASSERT_TRUE(node_.client().Reconnect().ok());
  // The failed sync stays on the books; service is restored regardless.
  EXPECT_EQ(node_.client().sync_failures(), 1u);
  std::vector<uint8_t> fresh(2048, 0x9A);
  EXPECT_EQ(x_pwrite(sim_, node_.client(), fresh.data(), fresh.size()),
            static_cast<ssize_t>(fresh.size()));
  EXPECT_EQ(x_fsync(sim_, node_.client()), 0);
}

TEST_F(XLogClientEdgeTest, ReconnectWithoutEpochChangeKeepsCursors) {
  // A promotion-time Reconnect targets the same log in the same epoch: the
  // client must adopt the device tail without discarding its read cursor
  // or acked history, so tail consumption resumes where it left off.
  std::vector<uint8_t> data(8192, 0x2E);
  ASSERT_EQ(x_pwrite(sim_, node_.client(), data.data(), data.size()),
            static_cast<ssize_t>(data.size()));
  ASSERT_EQ(x_fsync(sim_, node_.client()), 0);
  std::vector<uint8_t> head(1024);
  ASSERT_EQ(x_pread(sim_, node_.client(), node_.driver(), head.data(),
                    head.size()),
            static_cast<ssize_t>(head.size()));

  uint64_t written_before = node_.client().written();
  ASSERT_TRUE(node_.client().Reconnect().ok());
  EXPECT_EQ(node_.client().reconnects(), 1u);
  EXPECT_EQ(node_.client().written(), written_before);

  // The next tail read continues from byte 1024 — no replay, no reset.
  std::vector<uint8_t> next(1024);
  ASSERT_EQ(x_pread(sim_, node_.client(), node_.driver(), next.data(),
                    next.size()),
            static_cast<ssize_t>(next.size()));
  EXPECT_EQ(next, std::vector<uint8_t>(1024, 0x2E));

  // A reboot bumps the epoch: the same call now resets the read path.
  node_.device().Reboot();
  ASSERT_TRUE(node_.client().Reconnect().ok());
  EXPECT_EQ(node_.client().reconnects(), 2u);
  EXPECT_EQ(node_.client().written(), 0u);
}

}  // namespace
}  // namespace xssd::host
