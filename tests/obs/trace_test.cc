#include "obs/trace.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <iterator>
#include <set>
#include <string>
#include <vector>

#include "obs/json.h"
#include "sim/simulator.h"
#include "sim/time.h"

namespace xssd::obs {
namespace {

// Validity is judged by ParseJson, the one JSON parser in obs/; the suite
// keeps the name of the checker it replaced.
TEST(IsValidJson, AcceptsAndRejectsTheObviousCases) {
  EXPECT_TRUE(ParseJson("{}").ok());
  EXPECT_TRUE(ParseJson("[1, 2.5, -3e2, \"s\", true, false, null]").ok());
  EXPECT_TRUE(ParseJson("{\"a\": {\"b\": [\"\\u00e9\", \"\\n\"]}}").ok());
  for (const char* text : {"{", "{\"a\": 1,}", "[1 2]", "01", "\"unterminated",
                           "{} trailing"}) {
    Result<JsonValue> parsed = ParseJson(text);
    EXPECT_FALSE(parsed.ok()) << "accepted: " << text;
    EXPECT_NE(parsed.status().ToString().find("invalid JSON"),
              std::string::npos);
  }
}

TEST(ChromeTraceWriter, EmptyTraceIsValidJson) {
  ChromeTraceWriter writer;
  std::string text = writer.ToString();
  Result<JsonValue> parsed = ParseJson(text);
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_NE(text.find("\"traceEvents\""), std::string::npos);
}

TEST(ChromeTraceWriter, RecordsSimulatorEventsAsValidJson) {
  sim::Simulator sim;
  ChromeTraceWriter writer;
  writer.BeginProcess("run-a");
  sim.set_trace_sink(&writer);

  int fired = 0;
  for (int i = 0; i < 20; ++i) {
    sim.Schedule(sim::Us(i), [&] { ++fired; });
  }
  sim.Run();
  sim.set_trace_sink(nullptr);

  EXPECT_EQ(fired, 20);
  // Default options: one complete ('X') event per fired simulator event.
  EXPECT_EQ(writer.event_count(), 20u);
  EXPECT_EQ(writer.dropped(), 0u);

  std::string text = writer.ToString();
  Result<JsonValue> parsed = ParseJson(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_NE(text.find("\"run-a\""), std::string::npos);
}

TEST(ChromeTraceWriter, ProcessGroupsSeparateRuns) {
  ChromeTraceWriter writer;
  uint32_t pid_a = writer.BeginProcess("first-run");
  uint32_t pid_b = writer.BeginProcess("second-run");
  EXPECT_NE(pid_a, pid_b);
  std::string text = writer.ToString();
  Result<JsonValue> parsed = ParseJson(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_NE(text.find("\"first-run\""), std::string::npos);
  EXPECT_NE(text.find("\"second-run\""), std::string::npos);
}

TEST(ChromeTraceWriter, InstantAndCounterSamplesAreRecorded) {
  ChromeTraceWriter writer;
  writer.BeginProcess("markers");
  writer.OnInstant("gc.start", sim::Us(5));
  writer.OnCounterSample("queue_depth", sim::Us(6), 3.5);
  std::string text = writer.ToString();
  Result<JsonValue> parsed = ParseJson(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_NE(text.find("\"gc.start\""), std::string::npos);
  EXPECT_NE(text.find("\"queue_depth\""), std::string::npos);
}

TEST(ChromeTraceWriter, NamesNeedingEscapesStayWellFormed) {
  ChromeTraceWriter writer;
  writer.BeginProcess("quote\"back\\slash\nnewline");
  writer.OnInstant("tab\there", 0);
  std::string text = writer.ToString();
  Result<JsonValue> parsed = ParseJson(text);
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
}

TEST(ChromeTraceWriter, CapsBufferAndCountsDrops) {
  ChromeTraceOptions options;
  options.max_events = 8;
  ChromeTraceWriter writer(options);
  writer.BeginProcess("capped");

  sim::Simulator sim;
  sim.set_trace_sink(&writer);
  for (int i = 0; i < 100; ++i) {
    sim.Schedule(sim::Us(i), [] {});
  }
  sim.Run();
  sim.set_trace_sink(nullptr);

  EXPECT_LE(writer.event_count(), 8u);
  EXPECT_GT(writer.dropped(), 0u);
  // A truncated recording still renders a loadable document.
  std::string text = writer.ToString();
  Result<JsonValue> parsed = ParseJson(text);
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
}

/// Pulls the `"id": N` values of every flow event with the given phase
/// ('s' or 'f') and category out of a rendered trace document.
std::vector<uint64_t> FlowIds(const std::string& text, char phase,
                              const std::string& cat) {
  std::vector<uint64_t> ids;
  std::string phase_marker = std::string("\"ph\": \"") + phase + "\"";
  std::string cat_marker = "\"cat\": \"" + cat + "\"";
  size_t pos = 0;
  while ((pos = text.find('\n', pos)) != std::string::npos) {
    size_t end = text.find('\n', pos + 1);
    std::string line = text.substr(
        pos + 1, end == std::string::npos ? std::string::npos : end - pos - 1);
    pos += 1;
    if (line.find(phase_marker) == std::string::npos) continue;
    if (line.find(cat_marker) == std::string::npos) continue;
    size_t id_at = line.find("\"id\": ");
    if (id_at == std::string::npos) continue;
    ids.push_back(std::strtoull(line.c_str() + id_at + 6, nullptr, 10));
  }
  return ids;
}

TEST(ChromeTraceWriter, FlowIdsStayUniqueAcrossProcessGroups) {
  // Two back-to-back simulator runs share one writer. Each fresh simulator
  // restarts its event `seq` at 0, so keying arrows by seq would splice
  // run B's arrows onto run A's events; writer-global flow ids must keep
  // every schedule→fire pair distinct.
  ChromeTraceOptions options;
  options.emit_flow = true;
  ChromeTraceWriter writer(options);
  for (const char* run : {"run-a", "run-b"}) {
    writer.BeginProcess(run);
    sim::Simulator sim;
    sim.set_trace_sink(&writer);
    for (int i = 0; i < 10; ++i) {
      sim.Schedule(sim::Us(i), [] {});
    }
    sim.Run();
    sim.set_trace_sink(nullptr);
  }

  std::string text = writer.ToString();
  Result<JsonValue> parsed = ParseJson(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();

  std::vector<uint64_t> starts = FlowIds(text, 's', "sim");
  std::vector<uint64_t> finishes = FlowIds(text, 'f', "sim");
  ASSERT_EQ(starts.size(), 20u);
  ASSERT_EQ(finishes.size(), 20u);
  std::set<uint64_t> unique_starts(starts.begin(), starts.end());
  EXPECT_EQ(unique_starts.size(), starts.size());
  // Every arrow terminates at the start it was minted for.
  std::set<uint64_t> unique_finishes(finishes.begin(), finishes.end());
  EXPECT_EQ(unique_finishes, unique_starts);
}

TEST(ChromeTraceWriter, SpanFlowsUseTheirOwnBindingDomain) {
  ChromeTraceOptions options;
  options.emit_flow = true;
  ChromeTraceWriter writer(options);
  writer.BeginProcess("spans");
  sim::Simulator sim;
  sim.set_trace_sink(&writer);
  sim.Schedule(sim::Us(1), [] {});
  sim.Run();
  sim.set_trace_sink(nullptr);
  // Span id 1 deliberately collides with the first dispatch flow id; the
  // "span" category keeps the two arrow id spaces apart.
  writer.EmitSpan("dev/append", sim::Us(2), sim::Us(9), 1);

  std::string text = writer.ToString();
  Result<JsonValue> parsed = ParseJson(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(FlowIds(text, 's', "span"), std::vector<uint64_t>{1});
  EXPECT_EQ(FlowIds(text, 'f', "span"), std::vector<uint64_t>{1});
  EXPECT_EQ(FlowIds(text, 's', "sim"), std::vector<uint64_t>{1});
  EXPECT_NE(text.find("\"args\": {\"span\": 1}"), std::string::npos);
  EXPECT_NE(text.find("\"dev/append\""), std::string::npos);
}

TEST(ChromeTraceWriter, WriteFileRoundTrips) {
  ChromeTraceWriter writer;
  writer.BeginProcess("file-run");
  writer.OnInstant("marker", sim::Us(1));
  std::string path = ::testing::TempDir() + "/xssd_trace_test.json";
  ASSERT_TRUE(writer.WriteFile(path).ok());

  std::ifstream in(path);
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  Result<JsonValue> parsed = ParseJson(text);
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_NE(text.find("\"file-run\""), std::string::npos);
}

}  // namespace
}  // namespace xssd::obs
