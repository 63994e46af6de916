// Edge-case tests for the JSON layer: escaping of hostile metric names,
// non-finite numbers, and ParseJson's handling of malformed documents.
// The happy paths live in metrics_test.cc / snapshot_determinism_test.cc;
// these exist because exporter output feeds external tools (CI parsers,
// perfetto) where one bad byte poisons the whole artifact.

#include <cmath>
#include <string>

#include <gtest/gtest.h>

#include "obs/json.h"
#include "obs/metrics.h"

namespace xssd::obs {
namespace {

TEST(JsonEscape, QuotesBackslashesAndControls) {
  EXPECT_EQ(JsonEscape("plain"), "plain");
  EXPECT_EQ(JsonEscape("say \"hi\""), "say \\\"hi\\\"");
  EXPECT_EQ(JsonEscape("a\\b"), "a\\\\b");
  EXPECT_EQ(JsonEscape("line\nbreak"), "line\\nbreak");
  EXPECT_EQ(JsonEscape("tab\there"), "tab\\there");
  // Control bytes below 0x20 must never appear raw in a JSON string.
  std::string escaped = JsonEscape(std::string("\x01\x1f", 2));
  EXPECT_EQ(escaped.find('\x01'), std::string::npos);
  EXPECT_EQ(escaped.find('\x1f'), std::string::npos);
}

TEST(JsonNumber, NonFiniteDegradesToZero) {
  EXPECT_EQ(JsonNumber(std::nan("")), "0");
  EXPECT_EQ(JsonNumber(INFINITY), "0");
  EXPECT_EQ(JsonNumber(-INFINITY), "0");
}

TEST(JsonNumber, IntegralAndFractionalForms) {
  EXPECT_EQ(JsonNumber(0), "0");
  EXPECT_EQ(JsonNumber(42), "42");
  EXPECT_EQ(JsonNumber(-3), "-3");
  // Fractional values must round-trip through a strtod of the text.
  std::string text = JsonNumber(0.1);
  EXPECT_EQ(std::stod(text), 0.1);
}

TEST(JsonExporter, EdgeCaseMetricNamesRoundTripThroughParser) {
  // The registry CHECK-rejects characters that would need escaping, so the
  // exporter's input alphabet is [A-Za-z0-9._-]; drive the full set plus
  // the escape machinery directly through JsonEscape below.
  MetricsRegistry registry;
  registry.GetCounter("UPPER.lower_0-9")->Add(1);
  registry.GetCounter("a.b.c.d.e.f")->Add(2);
  registry.GetGauge("-leading-dash")->Set(3);
  std::string out = JsonExporter(&registry).ToString();
  Result<JsonValue> doc = ParseJson(out);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString() << "\n" << out;
  const JsonValue* counters = doc->Find("counters");
  ASSERT_NE(counters, nullptr);
  const JsonValue* name = counters->Find("UPPER.lower_0-9");
  ASSERT_NE(name, nullptr);
  EXPECT_EQ(name->number, 1);
}

TEST(JsonEscape, HostileStringsSurviveAValidDocument) {
  // Trace/process names (unlike metric names) are arbitrary strings; a
  // quote or control byte in one must still yield a parseable document.
  for (const char* hostile : {"say \"hi\"", "back\\slash", "new\nline"}) {
    std::string doc = "{\"name\": \"" + JsonEscape(hostile) + "\"}";
    Result<JsonValue> parsed = ParseJson(doc);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    const JsonValue* name = parsed->Find("name");
    ASSERT_NE(name, nullptr);
    EXPECT_EQ(name->string, hostile);
  }
}

TEST(JsonExporter, NonFiniteGaugeExportsValidJson) {
  MetricsRegistry registry;
  registry.GetGauge("ratio")->Set(std::nan(""));
  registry.GetGauge("rate")->Set(INFINITY);
  std::string out = JsonExporter(&registry).ToString();
  Result<JsonValue> parsed = ParseJson(out);
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString() << "\n" << out;
}

TEST(ParseJson, RejectsMalformedDocuments) {
  const char* bad[] = {
      "",                     // empty input
      "{",                    // unterminated object
      "[1, 2",                // unterminated array
      "[1,]",                 // trailing comma
      "{\"a\":}",             // missing value
      "{\"a\" 1}",            // missing colon
      "{a: 1}",               // unquoted key
      "\"unterminated",       // unterminated string
      "tru",                  // truncated literal
      "NaN",                  // not a JSON number
      "1 2",                  // trailing garbage
      "{} {}",                // two documents
      "{\"a\": 0x10}",        // hex is not JSON
      "[\"\x01\"]",           // raw control byte inside a string
      "01",                   // leading zero
      "[1 2]",                // missing comma
      "{\"a\": 1,}",          // trailing comma in an object
  };
  for (const char* text : bad) {
    Result<JsonValue> parsed = ParseJson(text);
    EXPECT_FALSE(parsed.ok()) << "accepted: " << text;
    EXPECT_NE(parsed.status().ToString().find("invalid JSON at byte"),
              std::string::npos);
  }
}

TEST(ParseJson, BoundsNestingDepth) {
  std::string deep;
  for (int i = 0; i < 10000; ++i) deep += '[';
  deep += "1";
  for (int i = 0; i < 10000; ++i) deep += ']';
  EXPECT_FALSE(ParseJson(deep).ok());
}

TEST(ParseJson, DecodesEscapedKeysAndValues) {
  Result<JsonValue> doc = ParseJson("{\"a\\\"b\": \"x\\\\y\", \"n\": -2.5}");
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  const JsonValue* value = doc->Find("a\"b");
  ASSERT_NE(value, nullptr);
  EXPECT_EQ(value->string, "x\\y");
  const JsonValue* number = doc->Find("n");
  ASSERT_NE(number, nullptr);
  EXPECT_EQ(number->number, -2.5);

  doc = ParseJson("[{}, -3e2, true, false, null, [\"\\u00e9\", \"\\n\"]]");
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  ASSERT_EQ(doc->items.size(), 6u);
  EXPECT_TRUE(doc->items[0].is_object());
  EXPECT_EQ(doc->items[1].number, -300);
  EXPECT_TRUE(doc->items[4].is_null());
  EXPECT_EQ(doc->items[5].items[0].string, "\xc3\xa9");
  EXPECT_EQ(doc->items[5].items[1].string, "\n");
}

}  // namespace
}  // namespace xssd::obs
