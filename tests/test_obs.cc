// The observability substrate's contract: every exported number is a pure
// function of the update multiset (never of thread interleaving or
// registration order), diagnostic-scope metrics stay out of the
// deterministic export, and the whole layer is inert when detached. Run
// this binary under -DFLATTREE_SANITIZE=thread as well — concurrent
// registration and recording is exactly what the exec pool does to it.
#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "obs/json_number.h"
#include "obs/sink.h"
#include "obs/trace.h"

namespace flattree::obs {
namespace {

TEST(Counter, AddAndReset) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(Gauge, SetMaxIsRunningMaximum) {
  Gauge g;
  g.set_max(2.5);
  g.set_max(1.0);  // lower: ignored
  EXPECT_DOUBLE_EQ(g.value(), 2.5);
  g.set_max(7.0);
  EXPECT_DOUBLE_EQ(g.value(), 7.0);
  g.set(3.0);  // last-write-wins escape hatch
  EXPECT_DOUBLE_EQ(g.value(), 3.0);
}

TEST(Histogram, BucketsAreInclusiveUpperBounds) {
  Histogram h{{1.0, 2.0, 4.0}};
  h.record(0.5);  // bucket 0 (<= 1)
  h.record(1.0);  // bucket 0 (inclusive)
  h.record(1.5);  // bucket 1
  h.record(4.0);  // bucket 2 (inclusive)
  h.record(9.0);  // overflow bucket
  EXPECT_EQ(h.count(), 5u);
  EXPECT_EQ(h.bucket_count(0), 2u);
  EXPECT_EQ(h.bucket_count(1), 1u);
  EXPECT_EQ(h.bucket_count(2), 1u);
  EXPECT_EQ(h.bucket_count(3), 1u);  // overflow
  EXPECT_DOUBLE_EQ(h.min(), 0.5);
  EXPECT_DOUBLE_EQ(h.max(), 9.0);
}

TEST(Histogram, RejectsNonAscendingBounds) {
  EXPECT_THROW(Histogram({2.0, 1.0}), std::invalid_argument);
  EXPECT_THROW(Histogram({1.0, 1.0}), std::invalid_argument);  // dead bucket
  // No bounds is legal: a single overflow bucket (count/min/max only).
  Histogram h{{}};
  h.record(3.0);
  EXPECT_EQ(h.bucket_count(0), 1u);
}

TEST(Registry, TypeConflictThrows) {
  MetricsRegistry reg;
  reg.counter("x");
  EXPECT_THROW(reg.gauge("x"), std::logic_error);
  EXPECT_THROW(reg.histogram("x", {1.0}), std::logic_error);
  // Same type re-request returns the same instance.
  reg.counter("x").add(3);
  EXPECT_EQ(reg.counter("x").value(), 3u);
  EXPECT_EQ(reg.size(), 1u);
}

TEST(Registry, HistogramReRequestKeepsOriginalBounds) {
  MetricsRegistry reg;
  Histogram& h = reg.histogram("h", {1.0, 2.0});
  Histogram& again = reg.histogram("h", {5.0});
  EXPECT_EQ(&h, &again);
  EXPECT_EQ(again.bounds().size(), 2u);
}

TEST(Registry, ExportIsSortedAndRegistrationOrderIndependent) {
  MetricsRegistry a;
  a.counter("zeta").add(1);
  a.counter("alpha").add(2);
  MetricsRegistry b;
  b.counter("alpha").add(2);
  b.counter("zeta").add(1);
  EXPECT_EQ(a.metrics_object_json(), b.metrics_object_json());
  const std::string json = a.metrics_object_json();
  EXPECT_LT(json.find("\"alpha\""), json.find("\"zeta\""));
}

TEST(Registry, DiagnosticMetricsExcludedFromDeterministicExport) {
  MetricsRegistry reg;
  reg.counter("det.events").add(7);
  reg.counter("diag.steals", MetricScope::kDiagnostic).add(3);
  const std::string det = reg.metrics_object_json();
  EXPECT_NE(det.find("det.events"), std::string::npos);
  EXPECT_EQ(det.find("diag.steals"), std::string::npos);
  const std::string full = reg.metrics_object_json(/*include_diagnostic=*/true);
  EXPECT_NE(full.find("diag.steals"), std::string::npos);
  // The text summary always shows everything.
  EXPECT_NE(reg.text_summary().find("diag.steals"), std::string::npos);
}

// The determinism contract itself: the exported bytes depend only on the
// multiset of updates, not on which thread applied them or in what order.
TEST(Registry, ConcurrentUpdatesMatchSerialExport) {
  MetricsRegistry serial;
  for (int i = 0; i < 4000; ++i) {
    serial.counter("c").add(1);
    serial.histogram("h", {1.0, 10.0, 100.0}).record(i % 150);
    serial.gauge("g").set_max(i % 97);
  }

  MetricsRegistry parallel;
  std::vector<std::thread> workers;
  for (int w = 0; w < 4; ++w) {
    workers.emplace_back([&parallel, w] {
      for (int i = w; i < 4000; i += 4) {
        parallel.counter("c").add(1);
        parallel.histogram("h", {1.0, 10.0, 100.0}).record(i % 150);
        parallel.gauge("g").set_max(i % 97);
      }
    });
  }
  for (std::thread& t : workers) t.join();

  EXPECT_EQ(serial.metrics_object_json(), parallel.metrics_object_json());
  EXPECT_EQ(serial.to_json(), parallel.to_json());
}

TEST(Registry, ResetZeroesValuesButKeepsRegistrations) {
  MetricsRegistry reg;
  reg.counter("c").add(5);
  reg.histogram("h", {1.0}).record(0.5);
  reg.reset();
  EXPECT_EQ(reg.size(), 2u);
  EXPECT_EQ(reg.counter("c").value(), 0u);
  EXPECT_EQ(reg.histogram("h", {1.0}).count(), 0u);
}

TEST(Tracer, RecordsSpansAndInstants) {
  EventTracer tracer{8};
  tracer.span("sim", "flow", 1.0, 0.5, /*track=*/3, /*arg=*/1024);
  tracer.instant("sim", "failure", 2.0);
  EXPECT_EQ(tracer.size(), 2u);
  EXPECT_EQ(tracer.dropped(), 0u);
  const std::string json = tracer.chrome_trace_json();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"flow\""), std::string::npos);
  const std::string summary = tracer.text_summary();
  EXPECT_NE(summary.find("sim/flow"), std::string::npos);
}

TEST(Tracer, MarkUsesMonotoneLogicalTicks) {
  EventTracer tracer{8};
  tracer.mark("control", "phase_a");
  tracer.mark("control", "phase_b");
  const std::string json = tracer.chrome_trace_json();
  // Two distinct, ordered logical timestamps.
  const auto first = json.find("\"ts\":");
  const auto second = json.find("\"ts\":", first + 1);
  ASSERT_NE(second, std::string::npos);
  EXPECT_NE(json.substr(first, 8), json.substr(second, 8));
}

TEST(Tracer, RingOverflowEvictsOldestFirst) {
  EventTracer tracer{4};
  for (std::int64_t i = 0; i < 10; ++i) {
    tracer.instant("t", "e", static_cast<double>(i), 0, i);
  }
  EXPECT_EQ(tracer.size(), 4u);
  EXPECT_EQ(tracer.dropped(), 6u);
  const std::string json = tracer.chrome_trace_json();
  // Events 0-5 were overwritten; the survivors are 6..9 oldest-first.
  EXPECT_EQ(json.find("\"value\":5"), std::string::npos);
  EXPECT_LT(json.find("\"value\":6"), json.find("\"value\":9"));
  tracer.clear();
  EXPECT_EQ(tracer.size(), 0u);
  EXPECT_EQ(tracer.dropped(), 0u);
}

TEST(Tracer, WriteChromeTraceRoundTrips) {
  EventTracer tracer{8};
  tracer.span("a", "b", 0.0, 1.0);
  const std::string path = ::testing::TempDir() + "trace_roundtrip.json";
  std::string error;
  ASSERT_TRUE(tracer.write_chrome_trace(path, &error)) << error;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::string content(1 << 12, '\0');
  content.resize(std::fread(content.data(), 1, content.size(), f));
  std::fclose(f);
  EXPECT_EQ(content, tracer.chrome_trace_json());
  std::string error2;
  EXPECT_FALSE(tracer.write_chrome_trace("/nonexistent-dir/x.json", &error2));
  EXPECT_FALSE(error2.empty());
}

// The one JSON string escaper behind BENCH reports, metric names and trace
// names: quote and backslash escaped, \n \t \r by name, every other control
// character as \u00XX, all other bytes verbatim.
TEST(JsonString, EscapesQuotesBackslashesAndControlCharacters) {
  std::string out;
  append_json_string(out, "a\"b\\c\nd\te\rf\x01g/h");
  EXPECT_EQ(out, "\"a\\\"b\\\\c\\nd\\te\\rf\\u0001g/h\"");
  out.clear();
  append_json_string(out, "");
  EXPECT_EQ(out, "\"\"");
  // A tracer name goes through the same escaper.
  EventTracer tracer{2};
  tracer.instant("sim", "say \"hi\"\n", 1.0);
  const std::string json = tracer.chrome_trace_json();
  EXPECT_NE(json.find("\"name\":\"say \\\"hi\\\"\\n\""), std::string::npos);
}

// Detached sinks are the default state of every component: all handles are
// null and the free helpers must be safe no-ops.
TEST(Sink, DisabledByDefaultAndNullSafe) {
  const ObsSink sink;
  EXPECT_FALSE(sink.enabled());
  EXPECT_EQ(sink.metrics(), nullptr);
  EXPECT_EQ(sink.tracer(), nullptr);
  add(static_cast<Counter*>(nullptr), 5);
  record(static_cast<Histogram*>(nullptr), 1.0);
  set_max(static_cast<Gauge*>(nullptr), 1.0);

  MetricsRegistry reg;
  EventTracer tracer;
  const ObsSink attached{&reg, &tracer};
  EXPECT_TRUE(attached.enabled());
  add(&reg.counter("c"), 2);
  EXPECT_EQ(reg.counter("c").value(), 2u);
}

}  // namespace
}  // namespace flattree::obs
