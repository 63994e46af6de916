#include "obs/flightrec.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "sim/time.h"

namespace xssd::obs {
namespace {

std::string TempPath(const char* stem) {
  return ::testing::TempDir() + stem;
}

TEST(FlightRecorder, RecordsInOrderWithMonotonicSeq) {
  FlightRecorder fr;
  fr.Record(sim::Us(1), "fault", "program fail injected");
  fr.Record(sim::Us(2), "ftl.gc", "gc collect block 7, valid=3");
  fr.Record(sim::Us(3), "ha", "member 1 promoting at term 2");

  std::vector<FlightRecorder::Entry> entries = fr.Snapshot();
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_EQ(entries[0].seq, 0u);
  EXPECT_EQ(entries[1].seq, 1u);
  EXPECT_EQ(entries[2].seq, 2u);
  EXPECT_EQ(entries[0].category, "fault");
  EXPECT_EQ(entries[2].message, "member 1 promoting at term 2");
  EXPECT_EQ(fr.appended(), 3u);
  EXPECT_EQ(fr.evicted(), 0u);
}

TEST(FlightRecorder, BoundedRingEvictsOldestFirst) {
  FlightRecorderOptions options;
  options.capacity = 4;
  FlightRecorder fr(options);
  for (int i = 0; i < 10; ++i) {
    fr.Record(sim::Us(i), "t", "event " + std::to_string(i));
  }
  EXPECT_EQ(fr.size(), 4u);
  EXPECT_EQ(fr.appended(), 10u);
  EXPECT_EQ(fr.evicted(), 6u);
  std::vector<FlightRecorder::Entry> entries = fr.Snapshot();
  ASSERT_EQ(entries.size(), 4u);
  // Oldest-first snapshot of the survivors: events 6..9.
  EXPECT_EQ(entries.front().message, "event 6");
  EXPECT_EQ(entries.front().seq, 6u);
  EXPECT_EQ(entries.back().message, "event 9");
  EXPECT_EQ(entries.back().seq, 9u);
}

TEST(FlightRecorder, DumpCarriesReasonCountsAndEntries) {
  FlightRecorderOptions options;
  options.capacity = 2;
  FlightRecorder fr(options);
  fr.Record(sim::Us(5), "fault", "crash clause fired at site gc (hard)");
  fr.Record(sim::Us(6), "device", "pri hard crash");
  fr.Record(sim::Us(7), "device", "pri reboot into epoch 2");

  std::ostringstream out;
  fr.Dump(out, "test dump");
  std::string text = out.str();
  EXPECT_NE(text.find("reason: test dump"), std::string::npos);
  EXPECT_NE(text.find("3 recorded"), std::string::npos);
  EXPECT_NE(text.find("1 evicted"), std::string::npos);
  // Only the retained tail appears; the evicted entry does not.
  EXPECT_EQ(text.find("crash clause fired"), std::string::npos);
  EXPECT_NE(text.find("pri hard crash"), std::string::npos);
  EXPECT_NE(text.find("pri reboot into epoch 2"), std::string::npos);
}

std::string ReadAll(const std::string& path) {
  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

TEST(FlightRecorder, DumpToFileWritesTheRing) {
  FlightRecorder fr;
  fr.Record(sim::Ms(1), "watchdog", "rule cliff: ftl.write_amp > 1.5");
  std::string path = TempPath("flightrec_dump.txt");
  ASSERT_TRUE(fr.DumpToFile(path, "unit test").ok());
  EXPECT_NE(ReadAll(path).find("rule cliff"), std::string::npos);
  EXPECT_NE(ReadAll(path).find("unit test"), std::string::npos);
  std::remove(path.c_str());
}

TEST(FlightRecorder, AutoDumpGoesToTheConfiguredPath) {
  std::string path = TempPath("flightrec_auto.txt");
  {
    std::ofstream stale(path);
    stale << "left over from an earlier run\n";
  }
  FlightRecorder fr;
  ASSERT_TRUE(fr.StartDumpFile(path).ok());
  fr.Record(sim::Us(3), "fault", "uncorrectable flash read injected");
  fr.AutoDump("injected crash at ftl.gc.relocate");
  EXPECT_EQ(fr.auto_dumps(), 1u);

  std::string text = ReadAll(path);
  EXPECT_EQ(text.find("left over"), std::string::npos);
  EXPECT_NE(text.find("injected crash at ftl.gc.relocate"),
            std::string::npos);
  EXPECT_NE(text.find("uncorrectable flash read injected"),
            std::string::npos);
  std::remove(path.c_str());
}

// A storm of identical escalations writes one dump, the first (closest to
// the root cause); a new reason still dumps, and later dumps append
// rather than overwrite.
TEST(FlightRecorder, OnlyTheFirstDumpPerReasonIsWritten) {
  std::string path = TempPath("flightrec_per_reason.txt");
  FlightRecorder fr;
  MetricsRegistry registry;
  fr.SetMetrics(&registry);
  ASSERT_TRUE(fr.StartDumpFile(path).ok());
  fr.Record(sim::Us(1), "ftl", "first escalation");
  fr.AutoDump("Corruption escalation on host read");
  EXPECT_EQ(registry.FindCounter("obs.flightrec.suppressed_dumps"), nullptr);
  for (int i = 0; i < 5; ++i) {
    fr.Record(sim::Us(2 + i), "ftl", "later escalation");
    fr.AutoDump("Corruption escalation on host read");
  }
  fr.AutoDump("injected crash at cmb.persist");
  ASSERT_TRUE(fr.DumpToFile(path, "bench exit").ok());

  EXPECT_EQ(fr.auto_dumps(), 7u);
  EXPECT_EQ(fr.suppressed_dumps(), 5u);
  EXPECT_EQ(registry.FindCounter("obs.flightrec.suppressed_dumps")->value(),
            5u);
  std::string text = ReadAll(path);
  for (const char* reason : {"reason: Corruption escalation on host read",
                             "reason: injected crash at cmb.persist",
                             "reason: bench exit"}) {
    EXPECT_NE(text.find(reason), std::string::npos) << reason;
    EXPECT_EQ(text.find(reason), text.rfind(reason)) << reason;
  }
  // The written escalation dump is the first one: it predates the repeats.
  EXPECT_LT(text.find("first escalation"), text.find("later escalation"));
  EXPECT_LT(text.find("reason: Corruption"), text.find("later escalation"));
  std::remove(path.c_str());
}

TEST(FlightRecorder, SelfMetricsAreObsNamespaced) {
  FlightRecorderOptions options;
  options.capacity = 2;
  FlightRecorder fr(options);
  MetricsRegistry registry;
  fr.SetMetrics(&registry);
  for (int i = 0; i < 5; ++i) fr.Record(sim::Us(i), "t", "e");
  EXPECT_EQ(registry.FindCounter("obs.flightrec.appends")->value(), 5u);
  EXPECT_EQ(registry.FindCounter("obs.flightrec.evicted")->value(), 3u);
}

}  // namespace
}  // namespace xssd::obs
