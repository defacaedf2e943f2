#include "harness/json_report.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "harness/flags.h"
#include "harness/report.h"
#include "sim/stats.h"
#include "sim/tracer.h"

namespace kvcsd::harness {
namespace {

Flags MakeFlags(std::vector<std::string> args) {
  args.insert(args.begin(), "bench_test");
  std::vector<char*> argv;
  argv.reserve(args.size());
  for (std::string& a : args) argv.push_back(a.data());
  return Flags(static_cast<int>(argv.size()), argv.data());
}

TEST(JsonValueTest, ObjectPreservesInsertionOrderAndOverwrites) {
  JsonValue obj = JsonValue::Object();
  obj.Set("zeta", JsonValue::Uint(1));
  obj.Set("alpha", JsonValue::Uint(2));
  obj.Set("zeta", JsonValue::Uint(3));  // overwrite keeps position
  EXPECT_EQ(obj.ToString(), "{\"zeta\":3,\"alpha\":2}");
}

TEST(JsonValueTest, EscapesStrings) {
  JsonValue obj = JsonValue::Object();
  obj.Set("k", JsonValue::Str("a\"b\\c\nd"));
  EXPECT_EQ(obj.ToString(), "{\"k\":\"a\\\"b\\\\c\\nd\"}");
}

TEST(ParseJsonTest, RoundTripsBuiltDocument) {
  JsonValue doc = JsonValue::Object();
  doc.Set("str", JsonValue::Str("hello \"world\""));
  doc.Set("uint", JsonValue::Uint(18446744073709551615ull));
  doc.Set("num", JsonValue::Num(1234.5678));
  doc.Set("yes", JsonValue::Bool(true));
  doc.Set("no", JsonValue::Bool(false));
  doc.Set("nil", JsonValue());
  JsonValue arr = JsonValue::Array();
  arr.Push(JsonValue::Uint(1));
  arr.Push(JsonValue::Str("two"));
  doc.Set("arr", std::move(arr));

  const std::string text = doc.ToString();
  auto parsed = ParseJson(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  // Re-serializing the parse result reproduces the input byte for byte.
  EXPECT_EQ(parsed->ToString(), text);
}

TEST(ParseJsonTest, RejectsMalformedInput) {
  EXPECT_FALSE(ParseJson("").ok());
  EXPECT_FALSE(ParseJson("{").ok());
  EXPECT_FALSE(ParseJson("{\"a\":}").ok());
  EXPECT_FALSE(ParseJson("[1,]").ok());
  EXPECT_FALSE(ParseJson("{\"a\":1} trailing").ok());
}

TEST(ParseJsonTest, ParsesTracerOutput) {
  sim::Tracer tracer;
  tracer.Enable();
  tracer.CompleteSpan(tracer.Track("dev"), "dispatch", 1000, 2500,
                      {{"keyspace", "ks0"}});
  tracer.FlowBegin(tracer.Track("client"), "cmd", 7, 3000);
  auto parsed = ParseJson(tracer.ToJson());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const JsonValue* events = parsed->Find("traceEvents");
  ASSERT_NE(events, nullptr);
  // 2 metadata thread_name events + process_name + 2 real events.
  EXPECT_EQ(events->elements().size(), 5u);
}

TEST(JsonReporterTest, SchemaRoundTrip) {
  Flags flags = MakeFlags(
      {"--keys=4096", "--json=/tmp/out.json", "--trace=/tmp/trace.json",
       "--telemetry=/tmp/telemetry.json", "--health=/tmp/health.json",
       "--flight_dump=/tmp/run.flight", "--flight_slo_us=5", "--flight_busy"});
  JsonReporter report("unit_test", flags);
  report.AddMetric("csd.put.keys_per_sec", 12345.5);
  report.AddMetric("csd.put.ticks", std::uint64_t{777});

  sim::Stats stats;
  stats.counter("zns.klog.appends").Add(42);
  stats.histogram("device.cmd.put_ns").Record(100);
  stats.histogram("device.cmd.put_ns").Record(900);
  report.AddStats(stats);

  Table table("t", {"a", "b"});
  table.AddRow({"1", "2"});
  report.AddTable(table);

  auto parsed = ParseJson(report.ToJson());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();

  EXPECT_EQ(parsed->Find("schema_version")->uint_value(),
            static_cast<std::uint64_t>(JsonReporter::kSchemaVersion));
  EXPECT_EQ(parsed->Find("bench")->string_value(), "unit_test");
  EXPECT_NE(parsed->Find("wall_clock_unix"), nullptr);

  // args carries the workload flags but not the observability ones.
  const JsonValue* args = parsed->Find("args");
  ASSERT_NE(args, nullptr);
  ASSERT_NE(args->Find("keys"), nullptr);
  EXPECT_EQ(args->Find("keys")->string_value(), "4096");
  EXPECT_EQ(args->Find("json"), nullptr);
  EXPECT_EQ(args->Find("trace"), nullptr);
  EXPECT_EQ(args->Find("telemetry"), nullptr);
  EXPECT_EQ(args->Find("health"), nullptr);
  EXPECT_EQ(args->Find("flight_dump"), nullptr);
  EXPECT_EQ(args->Find("flight_slo_us"), nullptr);
  EXPECT_EQ(args->Find("flight_busy"), nullptr);

  const JsonValue* metrics = parsed->Find("metrics");
  ASSERT_NE(metrics, nullptr);
  EXPECT_DOUBLE_EQ(metrics->Find("csd.put.keys_per_sec")->number_value(),
                   12345.5);
  EXPECT_EQ(metrics->Find("csd.put.ticks")->uint_value(), 777u);

  EXPECT_EQ(parsed->Find("counters")->Find("zns.klog.appends")->uint_value(),
            42u);
  const JsonValue* hist =
      parsed->Find("histograms")->Find("device.cmd.put_ns");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->Find("count")->uint_value(), 2u);
  EXPECT_EQ(hist->Find("min")->uint_value(), 100u);
  EXPECT_EQ(hist->Find("max")->uint_value(), 900u);
  ASSERT_NE(hist->Find("p99"), nullptr);
  ASSERT_NE(hist->Find("p999"), nullptr);

  const JsonValue* tables = parsed->Find("tables");
  ASSERT_NE(tables, nullptr);
  ASSERT_EQ(tables->elements().size(), 1u);
  EXPECT_EQ(tables->elements()[0].Find("title")->string_value(), "t");

  EXPECT_EQ(report.json_path(), "/tmp/out.json");
}

// Two identically-fed reporters must serialize byte-identically once the
// wall clock is excluded — this is what lets CI diff reports exactly.
TEST(JsonReporterTest, DeterministicModuloWallClock) {
  auto build = [] {
    Flags flags = MakeFlags({"--keys=100", "--seed=7"});
    JsonReporter report("determinism", flags);
    report.AddMetric("a.keys_per_sec", 0.1 + 0.2);  // non-trivial double
    report.AddMetric("b.ticks", std::uint64_t{9000000000000000000ull});
    sim::Stats stats;
    stats.histogram("h_ns").Record(3);
    report.AddStats(stats);
    return report.ToJson(/*include_wall_clock=*/false);
  };
  const std::string first = build();
  EXPECT_EQ(first, build());
  EXPECT_EQ(first.find("wall_clock_unix"), std::string::npos);

  // With the stamp included, the only difference is that one field.
  Flags flags = MakeFlags({"--keys=100", "--seed=7"});
  JsonReporter stamped("determinism", flags);
  EXPECT_NE(stamped.ToJson(true).find("wall_clock_unix"),
            std::string::npos);
}

TEST(JsonReporterTest, WriteIfRequestedNeedsPath) {
  Flags flags = MakeFlags({"--keys=1"});
  JsonReporter report("no_path", flags);
  EXPECT_FALSE(report.WriteIfRequested());
}

}  // namespace
}  // namespace kvcsd::harness
