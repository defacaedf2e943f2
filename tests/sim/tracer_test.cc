#include "sim/tracer.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "sim/simulation.h"

namespace kvcsd::sim {
namespace {

TEST(TracerTest, DisabledByDefaultAndRecordsNothing) {
  Tracer t;
  EXPECT_FALSE(t.enabled());
  t.CompleteSpan(t.Track("a"), "span", 0, 10);
  t.FlowBegin(t.Track("a"), "cmd", 1, 5);
  EXPECT_EQ(t.size(), 0u);
  EXPECT_EQ(t.dropped(), 0u);
}

TEST(TracerTest, TrackInterningIsIdempotent) {
  Tracer t;
  const std::uint32_t a = t.Track("compaction");
  const std::uint32_t b = t.Track("nvme");
  EXPECT_NE(a, b);
  EXPECT_EQ(t.Track("compaction"), a);
  EXPECT_EQ(t.Track("nvme"), b);
}

TEST(TracerTest, RecordsSpansWithArgs) {
  Tracer t;
  t.Enable();
  t.CompleteSpan(t.Track("dev"), "dispatch", 100, 350,
                 {{"keyspace", "ks0"}});
  EXPECT_EQ(t.size(), 1u);

  const std::string json = t.ToJson();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"dispatch\""), std::string::npos);
  EXPECT_NE(json.find("\"ks0\""), std::string::npos);
  // 250 ns span = 0.250 us in trace_event units.
  EXPECT_NE(json.find("\"dur\":0.250"), std::string::npos);
}

TEST(TracerTest, DropsBeyondMaxEvents) {
  Tracer t;
  t.Enable(/*max_events=*/2);
  const std::uint32_t track = t.Track("x");
  for (int i = 0; i < 5; ++i) {
    t.CompleteSpan(track, "s", i, i + 1);
  }
  EXPECT_EQ(t.size(), 2u);
  EXPECT_EQ(t.dropped(), 3u);
  t.Clear();
  EXPECT_EQ(t.size(), 0u);
  EXPECT_EQ(t.dropped(), 0u);
}

TEST(TracerTest, FlowEventsCarryCategoryIdAndBinding) {
  Tracer t;
  t.Enable();
  t.FlowBegin(t.Track("client"), "cmd", 42, 100);
  t.FlowEnd(t.Track("device"), "cmd", 42, 200);
  EXPECT_EQ(t.size(), 2u);

  const std::string json = t.ToJson();
  EXPECT_NE(json.find("\"ph\":\"s\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"f\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"flow\""), std::string::npos);
  EXPECT_NE(json.find("\"id\":42"), std::string::npos);
  // The terminating event must bind to the enclosing slice ("bp":"e"), or
  // viewers attach the arrow to the next slice on the track instead.
  EXPECT_NE(json.find("\"bp\":\"e\""), std::string::npos);
  // Exactly one event (the 'f') carries the binding.
  EXPECT_EQ(json.find("\"bp\":\"e\""), json.rfind("\"bp\":\"e\""));
}

TEST(TracerTest, FlowEventsIgnoredWhenDisabled) {
  Tracer t;
  t.FlowBegin(t.Track("a"), "cmd", 1, 10);
  t.FlowEnd(t.Track("b"), "cmd", 1, 20);
  EXPECT_EQ(t.size(), 0u);
}

TEST(TraceSpanTest, NoOpWhenTracerDisabled) {
  Simulation sim;
  {
    TraceSpan span(&sim, "track", "name");
    span.Arg("k", "v");
  }
  EXPECT_EQ(sim.tracer().size(), 0u);
}

TEST(TraceSpanTest, RecordsSimulatedInterval) {
  Simulation sim;
  sim.tracer().Enable();
  sim.Spawn([](Simulation* s) -> Task<void> {
    TraceSpan span(s, "work", "step");
    span.Arg("id", std::uint64_t{7});
    co_await s->Delay(123);
  }(&sim));
  sim.Run();

  ASSERT_EQ(sim.tracer().size(), 1u);
  const std::string json = sim.tracer().ToJson();
  EXPECT_NE(json.find("\"step\""), std::string::npos);
  EXPECT_NE(json.find("\"id\":\"7\""), std::string::npos);
  EXPECT_NE(json.find("\"dur\":0.123"), std::string::npos);
}

// A span must survive its inputs: Args are copied eagerly, so freeing the
// source strings before the span closes is safe (the compactor does this
// when a keyspace is dropped mid-compaction).
TEST(TraceSpanTest, ArgsCopiedEagerly) {
  Simulation sim;
  sim.tracer().Enable();
  {
    auto name = std::make_unique<std::string>("ephemeral");
    TraceSpan span(&sim, "t", "s");
    span.Arg("keyspace", *name);
    name.reset();
  }
  EXPECT_NE(sim.tracer().ToJson().find("ephemeral"), std::string::npos);
}

}  // namespace
}  // namespace kvcsd::sim
