// StorageNode construction: a config the device cannot be built from is
// reported by Init rather than aborting the constructor, and building a
// paper-sized node takes memory only for what it touches.

#include "host/node.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/validate.h"

namespace xssd::host {
namespace {

TEST(StorageNode, InitReturnsTheValidationErrorOfARefusedConfig) {
  const std::vector<std::function<void(core::VillarsConfig&)>> breaks = {
      [](core::VillarsConfig& c) { c.geometry.channels = 0; },
      [](core::VillarsConfig& c) { c.geometry.pages_per_block = 0; },
      [](core::VillarsConfig& c) { c.cmb.queue_bytes = 0; },
      [](core::VillarsConfig& c) { c.cmb.ring_bytes = 0; },
      [](core::VillarsConfig& c) { c.destage.ring_lba_count = 0; },
  };
  for (size_t i = 0; i < breaks.size(); ++i) {
    SCOPED_TRACE(i);
    core::VillarsConfig config;
    breaks[i](config);
    const Status refused = core::ValidateConfig(config);
    ASSERT_FALSE(refused.ok());
    sim::Simulator sim;
    StorageNode node(&sim, config, pcie::FabricConfig{}, "bad");
    EXPECT_EQ(node.Init().ToString(), refused.ToString());
  }
}

/// Resident set size of this process in bytes.
uint64_t ResidentBytes() {
  std::FILE* statm = std::fopen("/proc/self/statm", "r");
  if (statm == nullptr) return 0;
  unsigned long size_pages = 0;
  unsigned long resident_pages = 0;
  int fields = std::fscanf(statm, "%lu %lu", &size_pages, &resident_pages);
  std::fclose(statm);
  if (fields != 2) return 0;
  return static_cast<uint64_t>(resident_pages) * sysconf(_SC_PAGESIZE);
}

// The paper device (fig09's and the repository benchmark's: 8 × 8 dies,
// 1 Mi pages, SRAM CMB) keeps per-page tables and map entries for a whole
// device, but a run touches few of them. Building four at once must not
// write those tables: four make the growth visible even when earlier tests
// left free heap behind for the first one to reuse.
TEST(StorageNode, BuildingPaperNodesStaysLazy) {
  core::VillarsConfig config;
  config.cmb.backing = core::BackingKind::kSram;
  config.destage.ring_lba_count = 2048;
  ASSERT_TRUE(core::ValidateConfig(config).ok());

  const uint64_t before = ResidentBytes();
  ASSERT_GT(before, 0u) << "/proc/self/statm unreadable";
  sim::Simulator sim;
  std::vector<std::unique_ptr<StorageNode>> nodes;
  for (int i = 0; i < 4; ++i) {
    nodes.push_back(std::make_unique<StorageNode>(
        &sim, config, pcie::FabricConfig{}, "n" + std::to_string(i)));
    ASSERT_TRUE(nodes.back()->Init().ok());
  }
  const uint64_t after = ResidentBytes();
  const uint64_t grown = after > before ? after - before : 0;
  EXPECT_LT(grown, uint64_t{16} << 20) << "grew " << (grown >> 10) << " KiB";
}

}  // namespace
}  // namespace xssd::host
