#include <gtest/gtest.h>

#include <cstring>

#include "host/node.h"
#include "host/sync.h"
#include "nvme/command.h"

namespace xssd::nvme {
namespace {

TEST(NvmeCommand, SqeEncodeDecodeRoundTrip) {
  Command cmd;
  cmd.opcode = static_cast<uint8_t>(IoOpcode::kWrite);
  cmd.cid = 0x1234;
  cmd.nsid = 1;
  cmd.prp1 = 0xDEADBEEF00;
  cmd.set_slba(0x1'0000'0042);
  cmd.set_nlb(4);
  cmd.cdw13 = 99;

  uint8_t image[kSqeBytes];
  EncodeCommand(cmd, image);
  Command decoded = DecodeCommand(image);
  EXPECT_EQ(decoded.opcode, cmd.opcode);
  EXPECT_EQ(decoded.cid, cmd.cid);
  EXPECT_EQ(decoded.prp1, cmd.prp1);
  EXPECT_EQ(decoded.slba(), 0x1'0000'0042u);
  EXPECT_EQ(decoded.nlb0() + 1, 4u);
  EXPECT_EQ(decoded.cdw13, 99u);
}

TEST(NvmeCommand, CqeEncodeDecodeRoundTrip) {
  Completion cpl;
  cpl.result = 77;
  cpl.sq_id = 1;
  cpl.sq_head = 42;
  cpl.cid = 0xBEEF;
  cpl.status = CmdStatus::kLbaOutOfRange;
  cpl.phase = true;

  uint8_t image[kCqeBytes];
  EncodeCompletion(cpl, image);
  Completion decoded = DecodeCompletion(image);
  EXPECT_EQ(decoded.result, 77u);
  EXPECT_EQ(decoded.sq_head, 42);
  EXPECT_EQ(decoded.cid, 0xBEEF);
  EXPECT_EQ(decoded.status, CmdStatus::kLbaOutOfRange);
  EXPECT_TRUE(decoded.phase);
  EXPECT_FALSE(decoded.ok());
}

core::VillarsConfig SmallConfig() {
  core::VillarsConfig config;
  config.geometry.channels = 2;
  config.geometry.dies_per_channel = 2;
  config.geometry.blocks_per_plane = 16;
  config.geometry.pages_per_block = 32;
  config.destage.ring_lba_count = 64;
  return config;
}

class NvmeStackTest : public ::testing::Test {
 protected:
  NvmeStackTest()
      : node_(&sim_, SmallConfig(), pcie::FabricConfig{}, "nvme-test"),
        runner_(&sim_) {
    EXPECT_TRUE(node_.Init().ok());
  }

  sim::Simulator sim_;
  host::StorageNode node_;
  host::SyncRunner runner_;
};

TEST_F(NvmeStackTest, WriteFlushReadThroughQueues) {
  uint32_t block = node_.driver().block_bytes();
  std::vector<uint8_t> data(block, 0x3D);
  Status status = runner_.Await([&](std::function<void(Status)> done) {
    node_.driver().Write(500, data.data(), 1, std::move(done));
  });
  ASSERT_TRUE(status.ok());
  ASSERT_TRUE(runner_
                  .Await([&](std::function<void(Status)> done) {
                    node_.driver().Flush(std::move(done));
                  })
                  .ok());
  auto read = runner_.AwaitValue<std::vector<uint8_t>>(
      [&](std::function<void(Status, std::vector<uint8_t>)> done) {
        node_.driver().Read(500, 1, std::move(done));
      });
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, data);
}

TEST_F(NvmeStackTest, MultiBlockTransfer) {
  uint32_t block = node_.driver().block_bytes();
  std::vector<uint8_t> data(block * 4);
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<uint8_t>(i * 7);
  }
  ASSERT_TRUE(runner_
                  .Await([&](std::function<void(Status)> done) {
                    node_.driver().Write(600, data.data(), 4,
                                         std::move(done));
                  })
                  .ok());
  auto read = runner_.AwaitValue<std::vector<uint8_t>>(
      [&](std::function<void(Status, std::vector<uint8_t>)> done) {
        node_.driver().Read(600, 4, std::move(done));
      });
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, data);
}

TEST_F(NvmeStackTest, LbaOutOfRangeRejected) {
  std::vector<uint8_t> data(node_.driver().block_bytes(), 0);
  // One past the end, and an slba whose `slba + blocks` wraps to 0.
  for (uint64_t bad_lba : {node_.driver().namespace_blocks(), UINT64_MAX}) {
    SCOPED_TRACE(bad_lba);
    Status status = runner_.Await([&](std::function<void(Status)> done) {
      node_.driver().Write(bad_lba, data.data(), 1, std::move(done));
    });
    EXPECT_FALSE(status.ok());
    auto read = runner_.AwaitValue<std::vector<uint8_t>>(
        [&](std::function<void(Status, std::vector<uint8_t>)> done) {
          node_.driver().Read(bad_lba, 1, std::move(done));
        });
    EXPECT_FALSE(read.ok());
  }
}

TEST_F(NvmeStackTest, IdentifyReportsNamespaceSize) {
  Command cmd;
  cmd.opcode = static_cast<uint8_t>(AdminOpcode::kIdentify);
  Completion result;
  bool got = false;
  node_.driver().Admin(cmd, [&](Completion cpl) {
    result = cpl;
    got = true;
  });
  sim_.RunWhile([&]() { return got; });
  EXPECT_TRUE(result.ok());
  EXPECT_EQ(result.result, node_.driver().namespace_blocks());
}

TEST_F(NvmeStackTest, ManyOutstandingCommandsAllComplete) {
  uint32_t block = node_.driver().block_bytes();
  std::vector<uint8_t> data(block, 0x99);
  int completions = 0;
  for (int i = 0; i < 100; ++i) {
    node_.driver().Write(700 + i, data.data(), 1,
                         [&](Status status) {
                           EXPECT_TRUE(status.ok());
                           ++completions;
                         });
  }
  sim_.Run();
  EXPECT_EQ(completions, 100);
  EXPECT_EQ(node_.driver().inflight(), 0u);
}

TEST_F(NvmeStackTest, ReadsObserveMostRecentWrite) {
  uint32_t block = node_.driver().block_bytes();
  std::vector<uint8_t> v1(block, 1), v2(block, 2);
  ASSERT_TRUE(runner_
                  .Await([&](std::function<void(Status)> done) {
                    node_.driver().Write(800, v1.data(), 1, std::move(done));
                  })
                  .ok());
  ASSERT_TRUE(runner_
                  .Await([&](std::function<void(Status)> done) {
                    node_.driver().Write(800, v2.data(), 1, std::move(done));
                  })
                  .ok());
  auto read = runner_.AwaitValue<std::vector<uint8_t>>(
      [&](std::function<void(Status, std::vector<uint8_t>)> done) {
        node_.driver().Read(800, 1, std::move(done));
      });
  ASSERT_TRUE(read.ok());
  EXPECT_EQ((*read)[0], 2);
}

TEST_F(NvmeStackTest, UnknownVendorOpcodeHandledByDevice) {
  Command cmd;
  cmd.opcode = 0xFE;  // vendor range, not implemented by Villars
  Completion result;
  bool got = false;
  node_.driver().Admin(cmd, [&](Completion cpl) {
    result = cpl;
    got = true;
  });
  sim_.RunWhile([&]() { return got; });
  EXPECT_EQ(result.status, CmdStatus::kInvalidOpcode);
}

}  // namespace
}  // namespace xssd::nvme
