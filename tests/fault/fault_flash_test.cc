// Injected flash faults and the layers that absorb them: the array grows
// bad blocks, the FTL retires them and retries, the destage path re-issues.

#include <gtest/gtest.h>

#include "core/page_format.h"
#include "fault/fault_injector.h"
#include "flash/array.h"
#include "ftl/ftl.h"
#include "host/node.h"
#include "host/sync.h"
#include "host/xcalls.h"

namespace xssd {
namespace {

flash::Geometry SmallGeometry() {
  flash::Geometry geometry;
  geometry.channels = 2;
  geometry.dies_per_channel = 2;
  geometry.blocks_per_plane = 16;
  geometry.pages_per_block = 32;
  return geometry;
}

fault::FaultPlan OneFault(fault::FaultKind kind, sim::SimTime at = 0,
                          sim::SimTime duration = fault::FaultSpec::kForever) {
  fault::FaultPlan plan;
  plan.name = "one";
  fault::FaultSpec spec;
  spec.kind = kind;
  spec.at = at;
  spec.duration = duration;
  plan.faults.push_back(spec);
  return plan;
}

TEST(FaultFlashTest, InjectedProgramFailGrowsBadBlock) {
  sim::Simulator sim;
  flash::Array array(&sim, SmallGeometry(), flash::Timing{},
                     flash::Reliability{}, 1);
  fault::FaultInjector injector(
      &sim, OneFault(fault::FaultKind::kFlashProgramFail, 0, sim::Us(1)), 1);
  array.set_fault_injector(&injector);

  flash::Address addr{0, 0, 0, 0, 0};
  Status result = Status::OK();
  std::vector<uint8_t> page(SmallGeometry().page_bytes, 0x5A);
  array.Program(addr, page, {}, [&](Status status) { result = status; });
  sim.Run();

  EXPECT_EQ(result.code(), StatusCode::kIoError);
  EXPECT_TRUE(array.IsBadBlock(addr));
  EXPECT_EQ(array.stats().program_failures, 1u);
  EXPECT_EQ(injector.totals().flash_program_fails, 1u);

  // Outside the window the array behaves normally again (fresh block).
  sim.RunFor(sim::Ms(1));
  flash::Address good{0, 0, 0, 1, 0};
  result = Status::IoError("unset");
  array.Program(good, page, {}, [&](Status status) { result = status; });
  sim.Run();
  EXPECT_TRUE(result.ok());
}

TEST(FaultFlashTest, InjectedEraseFailRetiresBlock) {
  sim::Simulator sim;
  flash::Array array(&sim, SmallGeometry(), flash::Timing{},
                     flash::Reliability{}, 1);
  fault::FaultInjector injector(
      &sim, OneFault(fault::FaultKind::kFlashEraseFail), 1);
  array.set_fault_injector(&injector);

  flash::Address addr{0, 0, 0, 0, 0};
  Status result = Status::OK();
  array.Erase(addr, [&](Status status) { result = status; });
  sim.Run();

  EXPECT_EQ(result.code(), StatusCode::kIoError);
  EXPECT_TRUE(array.IsBadBlock(addr));
  EXPECT_EQ(array.stats().erase_failures, 1u);

  // A bad block refuses further work without consuming die time.
  Status second = Status::OK();
  array.Erase(addr, [&](Status status) { second = status; });
  sim.Run();
  EXPECT_FALSE(second.ok());
  EXPECT_GE(array.stats().bad_block_rejects, 1u);
}

TEST(FaultFlashTest, InjectedUncorrectableReadReturnsCorruption) {
  sim::Simulator sim;
  flash::Array array(&sim, SmallGeometry(), flash::Timing{},
                     flash::Reliability{}, 1);
  flash::Address addr{0, 0, 0, 0, 0};
  std::vector<uint8_t> page(SmallGeometry().page_bytes, 0x77);
  Status programmed = Status::IoError("unset");
  array.Program(addr, page, {}, [&](Status status) { programmed = status; });
  sim.Run();
  ASSERT_TRUE(programmed.ok());

  fault::FaultInjector injector(
      &sim, OneFault(fault::FaultKind::kFlashReadUncorrectable), 1);
  array.set_fault_injector(&injector);

  Status read_status = Status::OK();
  array.Read(addr, [&](Status status, std::vector<uint8_t>) {
    read_status = status;
  });
  sim.Run();
  EXPECT_EQ(read_status.code(), StatusCode::kCorruption);
  EXPECT_EQ(array.stats().uncorrectable_reads, 1u);

  // Detach: the same page reads back clean — the medium was never damaged.
  array.set_fault_injector(nullptr);
  std::vector<uint8_t> out;
  array.Read(addr, [&](Status status, std::vector<uint8_t> data) {
    read_status = status;
    out = std::move(data);
  });
  sim.Run();
  EXPECT_TRUE(read_status.ok());
  EXPECT_EQ(out, page);
}

TEST(FaultFlashTest, FtlRetiresInjectedBadBlockAndRetries) {
  sim::Simulator sim;
  flash::Array array(&sim, SmallGeometry(), flash::Timing{},
                     flash::Reliability{}, 1);
  ftl::Ftl ftl(&sim, &array, ftl::FtlConfig{});
  // Fail every program for a short burst, then recover; the FTL must chew
  // through retired blocks until a program lands.
  fault::FaultInjector injector(
      &sim, OneFault(fault::FaultKind::kFlashProgramFail, 0, sim::Ms(2)), 1);
  array.set_fault_injector(&injector);

  Status result = Status::IoError("unset");
  std::vector<uint8_t> data(ftl.page_bytes(), 0x3C);
  ftl.WriteDirect(ftl::IoClass::kDestage, 0, data,
                  [&](Status status) { result = status; });
  sim.Run();

  EXPECT_TRUE(result.ok()) << result.ToString();
  EXPECT_GE(ftl.stats().bad_block_retires, 1u);
  EXPECT_GE(injector.totals().flash_program_fails, 1u);
}

TEST(FaultFlashTest, DestageRetriesThroughProgramFailBurst) {
  // End-to-end: a program-fail burst hits while the destage module moves
  // the ring to flash. The FTL retires blocks, the destage module re-issues
  // on top, and every appended byte still lands on the conventional side.
  sim::Simulator sim;
  core::VillarsConfig config;
  config.geometry = SmallGeometry();
  config.destage.ring_lba_count = 64;
  host::StorageNode node(&sim, config, pcie::FabricConfig{}, "ffail");
  ASSERT_TRUE(node.Init().ok());

  fault::FaultInjector injector(
      &sim,
      OneFault(fault::FaultKind::kFlashProgramFail, sim::Us(20), sim::Us(400)),
      1);
  node.ArmFaults(&injector);
  obs::MetricsRegistry registry;
  injector.SetMetrics(&registry);
  node.EnableMetrics(&registry);

  std::vector<uint8_t> wal(40000);
  for (size_t i = 0; i < wal.size(); ++i) wal[i] = static_cast<uint8_t>(i * 7);
  ASSERT_EQ(host::x_pwrite(sim, node.client(), wal.data(), wal.size()),
            static_cast<ssize_t>(wal.size()));
  ASSERT_EQ(host::x_fsync(sim, node.client()), 0);
  sim.RunFor(sim::Ms(20));  // let destaging finish through the retries

  EXPECT_GE(injector.totals().flash_program_fails, 1u);
  EXPECT_GE(node.device().destage().destaged(), wal.size());

  // The destaged bytes read back exactly.
  std::vector<uint8_t> tail(wal.size());
  ASSERT_EQ(host::x_pread(sim, node.client(), node.driver(), tail.data(),
                          tail.size()),
            static_cast<ssize_t>(tail.size()));
  EXPECT_EQ(tail, wal);
  EXPECT_EQ(registry.GetCounter("fault.flash.program_fails")->value(),
            injector.totals().flash_program_fails);
}

// A device with room for the blocks a long program-fail window retires:
// every failed attempt grows a bad block.
core::VillarsConfig RetireHeavyConfig() {
  core::VillarsConfig config;
  config.geometry = SmallGeometry();
  config.geometry.blocks_per_plane = 64;
  config.destage.ring_lba_count = 64;
  return config;
}

TEST(FaultFlashTest, DestageReissueOutlastsFtlRetryCap) {
  // The window outlasts the FTL's 8 program attempts for the first page
  // write, so the FTL gives up and the destage module re-issues; it closes
  // before the re-issues run out, so the page still lands in its slot.
  sim::Simulator sim;
  host::StorageNode node(&sim, RetireHeavyConfig(), pcie::FabricConfig{},
                         "reissue");
  ASSERT_TRUE(node.Init().ok());
  fault::FaultInjector injector(
      &sim, OneFault(fault::FaultKind::kFlashProgramFail, 0, sim::Ms(3)), 1);
  node.ArmFaults(&injector);
  obs::MetricsRegistry registry;
  node.EnableMetrics(&registry);

  // Exactly one destage page of stream bytes.
  const uint32_t page_bytes = node.device().config().geometry.page_bytes;
  std::vector<uint8_t> wal(core::DestagePayloadCapacity(page_bytes));
  for (size_t i = 0; i < wal.size(); ++i) wal[i] = static_cast<uint8_t>(i * 13);
  ASSERT_EQ(host::x_pwrite(sim, node.client(), wal.data(), wal.size()),
            static_cast<ssize_t>(wal.size()));
  ASSERT_EQ(host::x_fsync(sim, node.client()), 0);
  sim.RunFor(sim::Ms(20));

  EXPECT_GE(node.device().ftl().stats().bad_block_retires,
            node.device().config().ftl.max_program_retries);
  uint64_t retries = registry.GetCounter("destage.write_retries")->value();
  EXPECT_GE(retries, 1u);
  EXPECT_EQ(registry.GetCounter("destage.write_failures")->value(), retries);
  EXPECT_EQ(node.device().destage().destaged(), wal.size());

  // The re-issue reused sequence 0's ring slot.
  const core::DestageConfig& destage = node.device().config().destage;
  Status read_status = Status::IoError("unset");
  std::vector<uint8_t> slot;
  node.driver().Read(destage.ring_start_lba, 1,
                     [&](Status status, std::vector<uint8_t> data) {
                       read_status = status;
                       slot = std::move(data);
                     });
  sim.RunFor(sim::Ms(1));
  ASSERT_TRUE(read_status.ok()) << read_status.ToString();
  Result<core::ParsedDestagePage> parsed = core::ParseDestagePage(slot);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->header.sequence, 0u);
  EXPECT_EQ(parsed->header.stream_offset, 0u);

  std::vector<uint8_t> tail(wal.size());
  ASSERT_EQ(host::x_pread(sim, node.client(), node.driver(), tail.data(),
                          tail.size()),
            static_cast<ssize_t>(tail.size()));
  EXPECT_EQ(tail, wal);
}

TEST(FaultFlashTest, DestageLosesExtentOnceReissuesAreSpent) {
  // A window that outlasts every re-issue: the extent is lost, counted, and
  // the destaged counter stops at the hole instead of crossing it.
  sim::Simulator sim;
  host::StorageNode node(&sim, RetireHeavyConfig(), pcie::FabricConfig{},
                         "lost");
  ASSERT_TRUE(node.Init().ok());
  fault::FaultInjector injector(
      &sim,
      OneFault(fault::FaultKind::kFlashProgramFail, sim::Ms(5), sim::Ms(100)),
      1);
  node.ArmFaults(&injector);
  obs::MetricsRegistry registry;
  node.EnableMetrics(&registry);

  const uint32_t page_bytes = node.device().config().geometry.page_bytes;
  const size_t capacity = core::DestagePayloadCapacity(page_bytes);
  std::vector<uint8_t> first(capacity, 0x5A);
  ASSERT_EQ(host::x_pwrite(sim, node.client(), first.data(), first.size()),
            static_cast<ssize_t>(first.size()));
  ASSERT_EQ(host::x_fsync(sim, node.client()), 0);
  sim.RunUntil(sim::Ms(5));
  ASSERT_EQ(node.device().destage().destaged(), capacity);

  // Inside the window: the next page never reaches flash. The fast side
  // still acknowledges it — its durability is the PM ring's.
  std::vector<uint8_t> second(capacity, 0xA5);
  ASSERT_EQ(host::x_pwrite(sim, node.client(), second.data(), second.size()),
            static_cast<ssize_t>(second.size()));
  ASSERT_EQ(host::x_fsync(sim, node.client()), 0);
  sim.RunUntil(sim::Ms(60));

  const core::DestageConfig& destage = node.device().config().destage;
  EXPECT_EQ(registry.GetCounter("destage.write_retries")->value(),
            destage.max_write_retries);
  EXPECT_EQ(registry.GetCounter("destage.write_failures")->value(),
            destage.max_write_retries + 1u);
  EXPECT_EQ(node.device().destage().destaged(), capacity);
  EXPECT_FALSE(node.device().halted());

  // The bytes before the hole still read back.
  std::vector<uint8_t> tail(capacity);
  ASSERT_EQ(host::x_pread(sim, node.client(), node.driver(), tail.data(),
                          tail.size()),
            static_cast<ssize_t>(tail.size()));
  EXPECT_EQ(tail, first);
}

TEST(FaultFlashTest, FailedWritebackFailsFlushAndKeepsPageDirty) {
  // A writeback that fails for good must not let an NVMe Flush report
  // success, nor leave the page clean (evictable, then read back from an
  // older flash copy).
  sim::Simulator sim;
  flash::Array array(&sim, SmallGeometry(), flash::Timing{},
                     flash::Reliability{}, 1);
  ftl::Ftl ftl(&sim, &array, ftl::FtlConfig{});
  fault::FaultInjector injector(
      &sim, OneFault(fault::FaultKind::kFlashProgramFail, 0, sim::Ms(10)), 1);
  array.set_fault_injector(&injector);

  const uint64_t lpn = 3;
  std::vector<uint8_t> newest(ftl.page_bytes(), 0x22);
  ftl.WriteBuffered(lpn, std::vector<uint8_t>(ftl.page_bytes(), 0x11),
                    [](Status) {});
  ftl.WriteBuffered(lpn, newest, [](Status) {});
  bool first_done = false;
  Status first = Status::OK();
  ftl.Flush([&](Status status) {
    first = status;
    first_done = true;
  });
  sim.RunUntil(sim::Ms(10));
  ASSERT_TRUE(first_done);
  EXPECT_TRUE(first.IsIoError()) << first.ToString();
  EXPECT_EQ(ftl.page_map().SeqOf(lpn), 0u);

  // The window has closed: the next Flush retries the still-dirty page.
  Status second = Status::IoError("unset");
  ftl.Flush([&](Status status) { second = status; });
  sim.Run();
  EXPECT_TRUE(second.ok()) << second.ToString();
  EXPECT_EQ(ftl.page_map().SeqOf(lpn), 2u);
  std::vector<uint8_t> read_back;
  ftl.ReadPage(ftl::IoClass::kConventional, lpn,
               [&](Status status, std::vector<uint8_t> data) {
                 EXPECT_TRUE(status.ok());
                 read_back = std::move(data);
               });
  sim.Run();
  EXPECT_EQ(read_back, newest);
}

}  // namespace
}  // namespace xssd
