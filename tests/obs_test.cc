// Observability layer tests (src/obs): JsonWriter bytes, TraceSpan nesting
// under ParallelFor, counter determinism across thread counts, histogram
// quantile edge cases, JSONL round-trip, and the central neutrality claim:
// enabling observability changes no EpochStateHash (DESIGN.md §10).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/json_writer.h"
#include "common/thread_pool.h"
#include "core/scheduler_factory.h"
#include "obs/metrics.h"
#include "obs/run_logger.h"
#include "obs/trace.h"
#include "sim/simulator.h"
#include "topology/topology.h"
#include "workload/scenarios.h"

namespace gl {
namespace {

// --- JsonWriter ------------------------------------------------------------

TEST(JsonWriterTest, ObjectsArraysAndScalars) {
  std::string out;
  JsonWriter w(&out);
  w.BeginObject();
  w.Key("i");
  w.Int(-42);
  w.Key("u");
  w.UInt(std::uint64_t{1} << 63);
  w.Key("b");
  w.Bool(true);
  w.Key("n");
  w.Null();
  w.Key("a");
  w.BeginArray();
  w.Int(1);
  w.Int(2);
  w.EndArray();
  w.EndObject();
  EXPECT_EQ(out,
            "{\"i\":-42,\"u\":9223372036854775808,\"b\":true,\"n\":null,"
            "\"a\":[1,2]}");
}

TEST(JsonWriterTest, EscapesControlAndQuoteCharacters) {
  std::string out;
  JsonWriter w(&out);
  w.String("a\"b\\c\nd\te\x01");
  EXPECT_EQ(out, "\"a\\\"b\\\\c\\nd\\te\\u0001\"");
}

TEST(JsonWriterTest, DoublesRoundTripAndNonFiniteBecomesNull) {
  std::string out;
  JsonWriter w(&out);
  w.BeginArray();
  w.Double(0.1);
  w.Double(1.0 / 0.0);
  w.Double(-1.0 / 0.0);
  w.EndArray();
  EXPECT_EQ(out, "[0.10000000000000001,null,null]");
  // %.17g is the shortest representation that parses back bit-identically.
  EXPECT_EQ(std::strtod("0.10000000000000001", nullptr), 0.1);
}

TEST(JsonWriterTest, Hex64CarriesAllBits) {
  std::string out;
  JsonWriter w(&out);
  w.Hex64(0xdeadbeefcafef00dULL);
  EXPECT_EQ(out, "\"deadbeefcafef00d\"");
}

// --- TraceSpan nesting -----------------------------------------------------

TEST(TraceTest, SpanIsNoOpWithoutActiveTrace) {
  ASSERT_EQ(obs::Trace::Active(), nullptr);
  { obs::TraceSpan span("orphan"); }
  obs::Trace trace;
  EXPECT_TRUE(trace.Events().empty());
}

TEST(TraceTest, RecordsNestedSpansWithDepths) {
  obs::Trace trace;
  trace.Activate();
  {
    obs::TraceSpan outer("outer");
    { obs::TraceSpan inner("inner", 7); }
    { obs::TraceSpan inner("inner", 8); }
    outer.set_arg(2);  // a count known only at close
  }
  trace.Deactivate();
  const auto events = trace.Events();
  ASSERT_EQ(events.size(), 3u);
  int outer_depth = -1;
  for (const auto& ev : events) {
    if (std::string(ev.name) == "outer") {
      outer_depth = ev.depth;
      EXPECT_EQ(ev.arg, 2);
    }
  }
  ASSERT_GE(outer_depth, 0);
  for (const auto& ev : events) {
    if (std::string(ev.name) == "inner") {
      EXPECT_EQ(ev.depth, outer_depth + 1);
      EXPECT_TRUE(ev.arg == 7 || ev.arg == 8);
    }
  }
}

// Under ParallelFor each worker keeps its own span stack: every worker span
// lands at depth 0 of its own thread lane, never under another worker.
TEST(TraceTest, ParallelForWorkersGetIndependentStacks) {
  for (const int threads : {1, 2, 8}) {
    obs::Trace trace;
    trace.Activate();
    constexpr std::size_t kTasks = 32;
    {
      ThreadPool pool(threads);
      pool.ParallelFor(kTasks, [](std::size_t i) {
        obs::TraceSpan span("work", static_cast<std::int64_t>(i));
        obs::TraceSpan nested("work.inner");
      });
    }
    trace.Deactivate();
    const auto events = trace.Events();
    std::size_t outer = 0, inner = 0;
    for (const auto& ev : events) {
      const std::string name = ev.name;
      if (name == "work") {
        ++outer;
        EXPECT_EQ(ev.depth, 0) << "threads=" << threads;
      } else if (name == "work.inner") {
        ++inner;
        EXPECT_EQ(ev.depth, 1) << "threads=" << threads;
      }
    }
    EXPECT_EQ(outer, kTasks) << "threads=" << threads;
    EXPECT_EQ(inner, kTasks) << "threads=" << threads;
  }
}

TEST(TraceTest, SummaryAggregatesByName) {
  obs::Trace trace;
  trace.Activate();
  { obs::TraceSpan a("phase.a"); }
  { obs::TraceSpan a("phase.a"); }
  { obs::TraceSpan b("phase.b"); }
  trace.Deactivate();
  const auto summary = trace.Summary();
  ASSERT_EQ(summary.size(), 2u);
  EXPECT_EQ(summary[0].name, "phase.a");
  EXPECT_EQ(summary[0].count, 2u);
  EXPECT_EQ(summary[1].name, "phase.b");
  EXPECT_EQ(summary[1].count, 1u);
}

// --- metrics ---------------------------------------------------------------

// Relaxed-atomic adds are commutative, so totals are exact and identical at
// every thread count even though the schedule differs.
TEST(MetricsTest, CounterTotalsAreThreadCountInvariant) {
  std::vector<std::uint64_t> totals;
  for (const int threads : {1, 2, 8}) {
    obs::MetricsRegistry registry;
    obs::Counter& c =
        registry.GetCounter("test.events", obs::MetricKind::kDeterministic);
    ThreadPool pool(threads);
    pool.ParallelFor(1000, [&](std::size_t i) { c.Add(i % 7); });
    totals.push_back(c.value());
  }
  EXPECT_EQ(totals[0], totals[1]);
  EXPECT_EQ(totals[0], totals[2]);
}

TEST(MetricsTest, RegistryHandlesAreIdempotentAndSnapshotsSorted) {
  obs::MetricsRegistry registry;
  obs::Counter& a =
      registry.GetCounter("z.second", obs::MetricKind::kDeterministic);
  obs::Counter& b =
      registry.GetCounter("a.first", obs::MetricKind::kDeterministic);
  registry.GetCounter("m.informational", obs::MetricKind::kInformational);
  EXPECT_EQ(&a, &registry.GetCounter("z.second",
                                     obs::MetricKind::kDeterministic));
  a.Add(2);
  b.Add(1);
  const auto snap =
      registry.SnapshotCounters(obs::MetricKind::kDeterministic);
  ASSERT_EQ(snap.size(), 2u);  // informational excluded
  EXPECT_EQ(snap[0].name, "a.first");
  EXPECT_EQ(snap[0].value, 1u);
  EXPECT_EQ(snap[1].name, "z.second");
  EXPECT_EQ(snap[1].value, 2u);
}

TEST(MetricsTest, DeltaCountersDiffsAgainstMissingNamesAsZero) {
  const std::vector<obs::CounterValue> before = {{"b", 5}};
  const std::vector<obs::CounterValue> now = {{"a", 3}, {"b", 9}};
  const auto delta = obs::MetricsRegistry::DeltaCounters(before, now);
  ASSERT_EQ(delta.size(), 2u);
  EXPECT_EQ(delta[0].name, "a");
  EXPECT_EQ(delta[0].value, 3u);
  EXPECT_EQ(delta[1].name, "b");
  EXPECT_EQ(delta[1].value, 4u);
}

TEST(MetricsTest, HistogramQuantileEdgeCases) {
  obs::MetricsRegistry registry;
  obs::Histogram& h =
      registry.GetHistogram("test.lat", obs::MetricKind::kInformational);
  // Empty histogram: everything is 0.
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.Quantile(0.5), 0.0);
  EXPECT_EQ(h.min(), 0.0);
  EXPECT_EQ(h.max(), 0.0);

  // Single sample: every quantile is that sample.
  h.Observe(3.5);
  EXPECT_EQ(h.Quantile(0.0), 3.5);
  EXPECT_EQ(h.Quantile(0.5), 3.5);
  EXPECT_EQ(h.Quantile(1.0), 3.5);

  // Out-of-range q clamps; extremes stay exact with more samples.
  for (int i = 1; i <= 100; ++i) h.Observe(static_cast<double>(i));
  EXPECT_EQ(h.Quantile(-1.0), h.min());
  EXPECT_EQ(h.Quantile(2.0), h.max());
  EXPECT_EQ(h.min(), 1.0);
  EXPECT_EQ(h.max(), 100.0);
  // Interpolated mid quantile lands inside the sample range, and quantiles
  // are monotone in q.
  const double p50 = h.Quantile(0.5);
  const double p99 = h.Quantile(0.99);
  EXPECT_GE(p50, h.min());
  EXPECT_LE(p99, h.max());
  EXPECT_LE(p50, p99);

  // Non-positive and tiny samples land in the bottom bucket, not UB.
  h.Observe(0.0);
  h.Observe(-5.0);
  EXPECT_EQ(h.min(), -5.0);

  h.Reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.Quantile(0.5), 0.0);
}

// --- RunLogger -------------------------------------------------------------

obs::EpochRecord MakeRecord() {
  obs::EpochRecord rec;
  rec.scheduler = "Goldilocks";
  rec.scenario = "unit";
  rec.epoch = 3;
  rec.active_servers = 12;
  rec.total_watts = 5451.25;
  rec.counters = {{"partition.cut_edges_evaluated", 123}};
  rec.has_hash = true;
  rec.hash_placement = 0x1111;
  rec.hash_rng = 0xffeeddccbbaa9988ULL;
  rec.wall_ms = 21.5;
  rec.phases = {{"schedule", 20.0}, {"tct", 1.5}};
  return rec;
}

TEST(RunLoggerTest, EpochLineLayout) {
  const std::string line = obs::RunLogger::EpochLine(MakeRecord());
  EXPECT_EQ(line.rfind("{\"schema\":\"gl.epoch.v1\"", 0), 0u);
  EXPECT_NE(line.find("\"scheduler\":\"Goldilocks\""), std::string::npos);
  EXPECT_NE(line.find("\"epoch\":3"), std::string::npos);
  EXPECT_NE(line.find("\"counters\":{\"partition.cut_edges_evaluated\":123}"),
            std::string::npos);
  EXPECT_NE(line.find("\"rng\":\"ffeeddccbbaa9988\""), std::string::npos);
  // The informational tail is one strippable trailing section.
  const std::size_t timings = line.find(",\"timings\":");
  ASSERT_NE(timings, std::string::npos);
  EXPECT_NE(line.find("\"phases\":{\"schedule\":20,\"tct\":1.5}", timings),
            std::string::npos);
  EXPECT_EQ(line.back(), '}');
}

TEST(RunLoggerTest, GaugesLiveInsideTheStrippableTail) {
  obs::EpochRecord rec = MakeRecord();
  rec.info_gauges = {{"partition.pool.parallel_efficiency", 0.75},
                     {"process.peak_rss_bytes", 1024.0}};
  const std::string with = obs::RunLogger::EpochLine(rec);
  const std::string without = obs::RunLogger::EpochLine(MakeRecord());

  // Gauges serialize after the timings marker, never before it.
  const std::size_t timings = with.find(",\"timings\":");
  ASSERT_NE(timings, std::string::npos);
  const std::size_t gauges = with.find(
      "\"gauges\":{\"partition.pool.parallel_efficiency\":0.75,"
      "\"process.peak_rss_bytes\":1024}");
  ASSERT_NE(gauges, std::string::npos);
  EXPECT_GT(gauges, timings);

  // Adding gauges must not perturb a single deterministic-prefix byte.
  const auto strip = [](const std::string& line) {
    return line.substr(0, line.find(",\"timings\":")) + "}";
  };
  EXPECT_EQ(strip(with), strip(without));
  // And a record with no gauges emits no gauges key at all.
  EXPECT_EQ(without.find("\"gauges\""), std::string::npos);
}

TEST(RunLoggerTest, SinkRoundTripAndLineCount) {
  std::string sink;
  obs::RunLogger logger(&sink);
  ASSERT_TRUE(logger.ok());
  logger.WriteEpoch(MakeRecord());
  logger.WriteEpoch(MakeRecord());
  EXPECT_EQ(logger.lines_written(), 2u);
  const std::string line = obs::RunLogger::EpochLine(MakeRecord());
  EXPECT_EQ(sink, line + "\n" + line + "\n");
}

TEST(RunLoggerTest, DeterministicSectionIsByteStableAcrossSerializations) {
  const obs::EpochRecord rec = MakeRecord();
  obs::EpochRecord jittered = rec;
  jittered.wall_ms = 99.0;  // informational-only change
  const std::string a = obs::RunLogger::EpochLine(rec);
  const std::string b = obs::RunLogger::EpochLine(jittered);
  const auto strip = [](const std::string& line) {
    return line.substr(0, line.find(",\"timings\":")) + "}";
  };
  EXPECT_NE(a, b);
  EXPECT_EQ(strip(a), strip(b));
}

// --- obs neutrality --------------------------------------------------------

// The acceptance bar for the whole subsystem: same-seed runs with obs fully
// enabled (logger + active trace) and fully disabled produce identical
// EpochStateHash streams — observability observes, it never steers.
TEST(ObsNeutralityTest, StateHashesIdenticalWithObsOnAndOff) {
  TwitterScenarioOptions sopts;
  sopts.num_epochs = 4;
  const auto scenario = MakeTwitterCachingScenario(sopts);
  const Topology topo = Topology::Testbed16();

  const auto run = [&](obs::RunLogger* logger) {
    RunnerOptions opts;
    opts.record_state_hashes = true;
    opts.obs.logger = logger;
    const ExperimentRunner runner(*scenario, topo, opts);
    const auto scheduler = MakeNamedScheduler("goldilocks");
    return runner.Run(*scheduler).state_hashes;
  };

  const auto plain = run(nullptr);

  std::string sink1, sink2;
  obs::Trace trace;
  trace.Activate();
  obs::RunLogger logger1(&sink1);
  const auto logged1 = run(&logger1);
  obs::RunLogger logger2(&sink2);
  const auto logged2 = run(&logger2);
  trace.Deactivate();

  ASSERT_EQ(plain.size(), logged1.size());
  for (std::size_t e = 0; e < plain.size(); ++e) {
    EXPECT_EQ(FirstDivergentSubsystem(plain[e], logged1[e]), nullptr)
        << "obs-on diverged from obs-off at epoch " << e;
  }

  // Two obs-on runs: byte-identical JSONL outside the timings sections.
  ASSERT_FALSE(sink1.empty());
  const auto strip_timings = [](const std::string& text) {
    std::string out;
    std::size_t start = 0;
    while (start < text.size()) {
      const std::size_t nl = text.find('\n', start);
      const std::size_t end = nl == std::string::npos ? text.size() : nl;
      const std::string line = text.substr(start, end - start);
      out += line.substr(0, line.find(",\"timings\":"));
      out += "}\n";
      start = end + 1;
    }
    return out;
  };
  EXPECT_EQ(strip_timings(sink1), strip_timings(sink2));
  EXPECT_FALSE(trace.Events().empty());
}

}  // namespace
}  // namespace gl
