#include "core/validate.h"

#include <gtest/gtest.h>

namespace xssd::core {
namespace {

TEST(Validate, DefaultConfigIsValid) {
  EXPECT_TRUE(ValidateConfig(VillarsConfig{}).ok());
}

TEST(Validate, ZeroGeometryRejected) {
  VillarsConfig config;
  config.geometry.channels = 0;
  EXPECT_FALSE(ValidateConfig(config).ok());
}

TEST(Validate, PageSmallerThanHeaderRejected) {
  VillarsConfig config;
  config.geometry.page_bytes = 16;
  EXPECT_FALSE(ValidateConfig(config).ok());
}

TEST(Validate, QueueLargerThanRingRejected) {
  VillarsConfig config;
  config.cmb.ring_bytes = 4096;
  config.cmb.queue_bytes = 8192;
  EXPECT_FALSE(ValidateConfig(config).ok());
}

TEST(Validate, ZeroQueueRejected) {
  VillarsConfig config;
  config.cmb.queue_bytes = 0;
  EXPECT_FALSE(ValidateConfig(config).ok());
}

TEST(Validate, DestageRingBeyondAddressSpaceRejected) {
  VillarsConfig config;
  config.destage.ring_start_lba = 1ull << 40;
  EXPECT_TRUE(ValidateConfig(config).IsOutOfRange());
}

TEST(Validate, RingSmallerThanOnePagePayloadRejected) {
  VillarsConfig config;
  config.cmb.ring_bytes = 8 * 1024;  // < 16 KiB page payload
  config.cmb.queue_bytes = 4 * 1024;
  EXPECT_FALSE(ValidateConfig(config).ok());
}

TEST(Validate, BadOverprovisionRejected) {
  VillarsConfig config;
  config.ftl.overprovision = 0.95;
  EXPECT_FALSE(ValidateConfig(config).ok());
}

TEST(Validate, BadDramFractionRejected) {
  VillarsConfig config;
  config.cmb.dram_available_fraction = 0;
  EXPECT_FALSE(ValidateConfig(config).ok());
  config.cmb.dram_available_fraction = 1.5;
  EXPECT_FALSE(ValidateConfig(config).ok());
}

TEST(Validate, ZeroSupercapBudgetRejected) {
  VillarsConfig config;
  config.power.supercap_page_budget = 0;
  EXPECT_FALSE(ValidateConfig(config).ok());
}

// A device always has partition 0, so the emptiest partition a config can
// express is an extra one with no queue, no ring and no destage blocks.
TEST(ValidatePartitioned, EmptyPartitionsRejected) {
  VillarsConfig config;
  PartitionConfig empty;
  empty.cmb.queue_bytes = 0;
  empty.cmb.ring_bytes = 0;
  empty.destage.ring_lba_count = 0;
  config.extra_partitions = {empty};
  EXPECT_FALSE(ValidateConfig(config).ok());
}

TEST(ValidatePartitioned, DisjointTenantsAccepted) {
  VillarsConfig config;
  PartitionConfig b;
  config.destage.ring_start_lba = 0;
  config.destage.ring_lba_count = 100;
  b.destage.ring_start_lba = 100;
  b.destage.ring_lba_count = 100;
  config.extra_partitions = {b};
  EXPECT_TRUE(ValidateConfig(config).ok());
}

TEST(ValidatePartitioned, OverlappingDestageRingsRejected) {
  VillarsConfig config;
  PartitionConfig b;
  config.destage.ring_start_lba = 0;
  config.destage.ring_lba_count = 100;
  b.destage.ring_start_lba = 50;  // overlaps partition 0
  b.destage.ring_lba_count = 100;
  config.extra_partitions = {b};
  EXPECT_FALSE(ValidateConfig(config).ok());
}

TEST(ValidatePartitioned, PerPartitionChecksApply) {
  VillarsConfig config;
  PartitionConfig a;
  a.cmb.queue_bytes = 0;
  a.destage.ring_start_lba = config.destage.ring_lba_count;  // disjoint
  config.extra_partitions = {a};
  Status status = ValidateConfig(config);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("partition 1"), std::string::npos)
      << status.message();
}

}  // namespace
}  // namespace xssd::core
