#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "host/node.h"
#include "host/xcalls.h"
#include "obs/json.h"
#include "obs/metrics.h"

namespace xssd::obs {
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

/// One full instrumented run: a StorageNode pushes a log stream through the
/// CMB fast path, syncs, then idles long enough for destage + flash traffic
/// to complete. Returns the registry's JSON snapshot.
std::string SnapshotOfRun(const std::string& prefix = "") {
  sim::Simulator sim;
  MetricsRegistry registry;
  host::StorageNode node(&sim, SmallConfig(), pcie::FabricConfig{}, "det");
  EXPECT_TRUE(node.Init().ok());
  node.EnableMetrics(&registry, prefix);

  std::vector<uint8_t> entry(4096, 0xAB);
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(host::x_pwrite(sim, node.client(), entry.data(), entry.size()),
              static_cast<ssize_t>(entry.size()));
  }
  EXPECT_EQ(host::x_fsync(sim, node.client()), 0);
  sim.RunFor(sim::Ms(10));

  return JsonExporter(&registry).ToString();
}

TEST(SnapshotDeterminism, IdenticalRunsProduceIdenticalSnapshots) {
  std::string first = SnapshotOfRun();
  std::string second = SnapshotOfRun();
  EXPECT_EQ(first, second);
}

TEST(SnapshotDeterminism, SnapshotIsValidJsonAndCoversDeviceNamespaces) {
  std::string snapshot = SnapshotOfRun();
  Result<JsonValue> parsed = ParseJson(snapshot);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  // The instrumented hot paths must all have reported in.
  for (const char* key :
       {"\"cmb.append_bytes\"", "\"cmb.persisted_bytes\"",
        "\"destage.pages_written\"", "\"destage.stream_bytes\"",
        "\"flash.programs\"", "\"ftl.host_writes\"", "\"nvme.commands\"",
        "\"pcie.host_write_bytes\""}) {
    EXPECT_NE(snapshot.find(key), std::string::npos)
        << "missing " << key << " in:\n"
        << snapshot;
  }
}

TEST(SnapshotDeterminism, WorkloadActuallyMovedBytes) {
  sim::Simulator sim;
  MetricsRegistry registry;
  host::StorageNode node(&sim, SmallConfig(), pcie::FabricConfig{}, "det");
  ASSERT_TRUE(node.Init().ok());
  node.EnableMetrics(&registry);

  std::vector<uint8_t> entry(4096, 0xCD);
  for (int i = 0; i < 64; ++i) {
    host::x_pwrite(sim, node.client(), entry.data(), entry.size());
  }
  host::x_fsync(sim, node.client());
  sim.RunFor(sim::Ms(10));

  const Counter* append = registry.FindCounter("cmb.append_bytes");
  ASSERT_NE(append, nullptr);
  EXPECT_EQ(append->value(), 64u * 4096);
  const Counter* pages = registry.FindCounter("destage.pages_written");
  ASSERT_NE(pages, nullptr);
  EXPECT_GT(pages->value(), 0u);
  const Counter* programs = registry.FindCounter("flash.programs");
  ASSERT_NE(programs, nullptr);
  EXPECT_GT(programs->value(), 0u);
}

TEST(SnapshotDeterminism, PrefixSeparatesNodes) {
  std::string snapshot = SnapshotOfRun("pri.");
  Result<JsonValue> parsed = ParseJson(snapshot);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_NE(snapshot.find("\"pri.cmb.append_bytes\""), std::string::npos);
  // No unprefixed device names leak in.
  EXPECT_EQ(snapshot.find("\"cmb.append_bytes\""), std::string::npos);
}

}  // namespace
}  // namespace xssd::obs
