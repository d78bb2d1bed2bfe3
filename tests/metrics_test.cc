// Unit tests for the cluster cost model (LPT makespan, stage accounting
// and scaling behaviour of SimulatedSeconds), for the stage counter table
// behind every stage export, for the shared JSON string escaper, and for
// the MetricsRegistry (counter/gauge/histogram semantics and the
// Prometheus exposition).

#include "runtime/metrics.h"

#include <gtest/gtest.h>

#include <iterator>
#include <sstream>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/strings.h"
#include "runtime/metrics_registry.h"
#include "runtime/profile.h"
#include "runtime/trace.h"
#include "runtime/wave_io.h"

namespace diablo::runtime {
namespace {

TEST(Lpt, EmptyAndTrivial) {
  EXPECT_EQ(LptMakespan({}, 4), 0);
  EXPECT_EQ(LptMakespan({10}, 4), 10);
  EXPECT_EQ(LptMakespan({10, 10, 10, 10}, 4), 10);
}

TEST(Lpt, BalancesLoad) {
  // 6 tasks of 2 on 3 workers -> 4 each.
  EXPECT_EQ(LptMakespan({2, 2, 2, 2, 2, 2}, 3), 4);
  // A dominant task bounds the makespan.
  EXPECT_EQ(LptMakespan({100, 1, 1, 1}, 4), 100);
  // One worker serializes everything.
  EXPECT_EQ(LptMakespan({3, 4, 5}, 1), 12);
}

TEST(Lpt, NeverBelowLowerBounds) {
  std::vector<int64_t> tasks = {7, 3, 9, 2, 8, 4, 4};
  int64_t total = 0, biggest = 0;
  for (int64_t t : tasks) {
    total += t;
    biggest = std::max(biggest, t);
  }
  for (int workers : {1, 2, 3, 5, 10}) {
    int64_t makespan = LptMakespan(tasks, workers);
    EXPECT_GE(makespan, biggest);
    EXPECT_GE(makespan, (total + workers - 1) / workers);
    EXPECT_LE(makespan, total);
  }
}

/// A stage record with the fields the cost-model tests set, named one
/// by one: a positional StageStats initializer would leave its vector
/// and string members to -Wmissing-field-initializers.
StageStats Stage(std::string label, bool wide, std::vector<int64_t> map_work,
                 std::vector<int64_t> reduce_work, int64_t shuffle_bytes,
                 int64_t attempts = 0, int64_t recomputed_partitions = 0,
                 double recovery_seconds = 0) {
  StageStats s;
  s.label = std::move(label);
  s.wide = wide;
  s.map_work = std::move(map_work);
  s.reduce_work = std::move(reduce_work);
  s.shuffle_bytes = shuffle_bytes;
  s.attempts = attempts;
  s.recomputed_partitions = recomputed_partitions;
  s.recovery_seconds = recovery_seconds;
  return s;
}

TEST(Metrics, Accumulation) {
  Metrics metrics;
  metrics.AddStage(Stage("map", false, {10, 20}, {}, 0));
  metrics.AddStage(Stage("reduce", true, {30}, {15}, 1000));
  EXPECT_EQ(metrics.num_stages(), 2);
  EXPECT_EQ(metrics.num_wide_stages(), 1);
  EXPECT_EQ(metrics.total_work(), 75);
  EXPECT_EQ(metrics.total_shuffle_bytes(), 1000);
  metrics.Clear();
  EXPECT_EQ(metrics.num_stages(), 0);
}

TEST(Metrics, RecoveryCountersAggregateAndClear) {
  Metrics metrics;
  metrics.AddStage(Stage("map", false, {10}, {}, 0, /*attempts=*/3,
                         /*recomputed_partitions=*/1,
                         /*recovery_seconds=*/0.25));
  metrics.AddStage(Stage("reduce", true, {30}, {15}, 1000, 5, 2, 0.5));
  EXPECT_EQ(metrics.total_attempts(), 8);
  EXPECT_EQ(metrics.total_recomputed_partitions(), 3);
  EXPECT_DOUBLE_EQ(metrics.total_recovery_seconds(), 0.75);
  metrics.Clear();
  EXPECT_EQ(metrics.num_stages(), 0);
  EXPECT_EQ(metrics.total_attempts(), 0);
  EXPECT_EQ(metrics.total_recomputed_partitions(), 0);
  EXPECT_DOUBLE_EQ(metrics.total_recovery_seconds(), 0.0);
}

TEST(Metrics, SimulatedSecondsDecomposesIntoFaultFreePlusRecovery) {
  Metrics metrics;
  metrics.AddStage(Stage("map", false, {10, 20}, {}, 0, 4, 0, 0.125));
  metrics.AddStage(Stage("join", true, {5, 5}, {7}, 2048, 3, 1, 0.0625));
  ClusterModel model;
  EXPECT_DOUBLE_EQ(metrics.SimulatedSeconds(model),
                   metrics.SimulatedFaultFreeSeconds(model) +
                       metrics.total_recovery_seconds());
  // With no recovery charged, both figures coincide.
  Metrics clean;
  clean.AddStage(Stage("map", false, {10, 20}, {}, 0, 2, 0, 0.0));
  EXPECT_DOUBLE_EQ(clean.SimulatedSeconds(model),
                   clean.SimulatedFaultFreeSeconds(model));
}

TEST(Metrics, ReportIncludesRecoveryCounters) {
  Metrics metrics;
  metrics.AddStage(Stage("grp", true, {5}, {3}, 42, 6, 2, 0.5));
  std::string report = metrics.Report();
  EXPECT_NE(report.find("attempts=6"), std::string::npos);
  EXPECT_NE(report.find("recomputed_partitions=2"), std::string::npos);
  EXPECT_NE(report.find("recovery_seconds="), std::string::npos);
}

/// The lines of `text` that start with `prefix`, in order.
std::vector<std::string> LinesStartingWith(const std::string& text,
                                           const std::string& prefix) {
  std::vector<std::string> out;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) {
    if (line.rfind(prefix, 0) == 0) out.push_back(line);
  }
  return out;
}

// Every kStageCounters entry, given a distinct nonzero value in each of two
// stages, reaches the profile totals (folded), both profile stage objects,
// and both stages' lines of --plan-report and --explain-analyze; the
// watermarks stay out of the text reports. As a task record, every entry
// crosses the distributed backend's wire.
TEST(StageCounters, EveryCounterReachesEveryExport) {
  constexpr size_t kCounters = std::size(kStageCounters);
  // Stage 0 is the larger value for odd rows, stage 1 for even rows, so a
  // max fold is told apart from "the last stage's value".
  auto value = [](size_t k, int stage) -> int64_t {
    const int64_t base = 1000 * static_cast<int64_t>(k + 1);
    return base + (stage == 0 ? (k % 2 == 1 ? 900 : 100) : 500);
  };
  Metrics metrics;
  for (int i = 0; i < 2; ++i) {
    StageStats stage;
    stage.label = "stage" + std::to_string(i);
    stage.wide = i == 1;
    stage.map_work = {7};
    for (size_t k = 0; k < kCounters; ++k) {
      std::visit(
          [&](auto m) {
            stage.*m = static_cast<std::decay_t<decltype(stage.*m)>>(
                value(k, i));
          },
          kStageCounters[k].member);
    }
    metrics.AddStage(stage);
  }
  // The task-record codec: each entry (a double one with a fraction, so
  // an integer encoding of it fails) survives EncodeTaskSlots and
  // DecodeTaskSlots, with the two vectors tasks fill.
  std::vector<StageStats> sent(1), received(1);
  for (size_t k = 0; k < kCounters; ++k) {
    std::visit(
        [&](auto m) {
          using T = std::decay_t<decltype(sent[0].*m)>;
          sent[0].*m = static_cast<T>(value(k, 0)) +
                       (std::is_same_v<T, double> ? T(0.25) : T(0));
        },
        kStageCounters[k].member);
  }
  sent[0].reduce_work = {3, 1, 4};
  sent[0].partition_bytes = {5, 0, 9, 2};
  WaveSlots out_slots;
  out_slots.records = &sent;
  StatusOr<std::string> wire = EncodeTaskSlots(out_slots, 0);
  ASSERT_TRUE(wire.ok()) << wire.status().ToString();
  WaveSlots in_slots;
  in_slots.records = &received;
  ASSERT_TRUE(DecodeTaskSlots(in_slots, 0, *wire).ok());
  for (size_t k = 0; k < kCounters; ++k) {
    EXPECT_EQ(kStageCounters[k].Format(received[0]),
              kStageCounters[k].Format(sent[0]))
        << kStageCounters[k].name;
    std::visit(
        [&](auto m) { EXPECT_EQ(received[0].*m, sent[0].*m); },
        kStageCounters[k].member);
  }
  EXPECT_EQ(received[0].reduce_work, sent[0].reduce_work);
  EXPECT_EQ(received[0].partition_bytes, sent[0].partition_bytes);

  auto expected_total = [&](size_t k) -> int64_t {
    return kStageCounters[k].fold == StageCounter::Fold::kMax
               ? std::max(value(k, 0), value(k, 1))
               : value(k, 0) + value(k, 1);
  };

  std::ostringstream profile;
  WriteProfileJson(metrics, ClusterModel(), {}, "p", profile);
  StatusOr<JsonValue> root = ParseJson(profile.str());
  ASSERT_TRUE(root.ok()) << root.status().ToString();
  const JsonValue* totals = root->Find("totals");
  const JsonValue* stages = root->Find("stages");
  ASSERT_NE(totals, nullptr);
  ASSERT_NE(stages, nullptr);
  ASSERT_EQ(stages->arr.size(), 2u);
  for (size_t k = 0; k < kCounters; ++k) {
    const std::string name = kStageCounters[k].name;
    const JsonValue* total = totals->Find(name);
    ASSERT_NE(total, nullptr) << name;
    EXPECT_EQ(total->num, static_cast<double>(expected_total(k))) << name;
    for (int i = 0; i < 2; ++i) {
      const JsonValue* own = stages->arr[static_cast<size_t>(i)].Find(name);
      ASSERT_NE(own, nullptr) << name << " stage " << i;
      EXPECT_EQ(own->num, static_cast<double>(value(k, i)))
          << name << " stage " << i;
    }
  }

  // Two stage spans under one statement, so explain-analyze prints both
  // stages' counter lines.
  std::vector<TraceSpan> spans(4);
  spans[0].kind = SpanKind::kRun;
  spans[1].id = 1;
  spans[1].parent = 0;
  spans[1].kind = SpanKind::kStatement;
  for (int i = 0; i < 2; ++i) {
    TraceSpan& span = spans[static_cast<size_t>(2 + i)];
    span.id = 2 + i;
    span.parent = 1;
    span.kind = SpanKind::kStage;
    span.metrics_index = i;
  }
  std::ostringstream explain;
  WriteExplainAnalyze(metrics, ClusterModel(), spans, explain);
  const std::string report = metrics.Report();
  const std::vector<std::vector<std::string>> reports = {
      LinesStartingWith(report, "["),
      LinesStartingWith(explain.str(), "      map_work=")};
  for (const auto& lines : reports) {
    ASSERT_EQ(lines.size(), 2u);
    for (int i = 0; i < 2; ++i) {
      const std::string line = lines[static_cast<size_t>(i)] + " ";
      for (size_t k = 0; k < kCounters; ++k) {
        const std::string name = kStageCounters[k].name;
        const std::string field = name + "=";
        if (kStageCounters[k].fold == StageCounter::Fold::kMax) {
          EXPECT_EQ(line.find(field), std::string::npos) << line;
        } else {
          EXPECT_NE(line.find(" " + field + std::to_string(value(k, i)) + " "),
                    std::string::npos)
              << name << " stage " << i << ": " << line;
        }
      }
    }
  }
}

// One wave's task records fold into the stage record by the counter
// table: sums add, the two memory watermarks stay maxima, reduce_work is
// appended in task order and partition_bytes added per destination.
TEST(StageCounters, TaskRecordsFoldIntoTheStageRecord) {
  StageStats stage;
  stage.label = "stage";
  stage.attempts = 4;  // charged by the wave itself, not by a task
  stage.recovery_seconds = 0.5;
  stage.peak_rss_bytes = 300;
  stage.reduce_work = {7};
  stage.partition_bytes = {1, 1};
  std::vector<StageStats> tasks(3);
  tasks[0].shuffle_bytes = 10;
  tasks[0].hash_agg_rows = 5;
  tasks[0].recovery_seconds = 0.25;
  tasks[0].accumulator_bytes_peak = 40;
  tasks[0].peak_rss_bytes = 200;
  tasks[0].reduce_work = {2};
  tasks[0].partition_bytes = {3, 4, 5};
  tasks[1].shuffle_bytes = 20;
  tasks[1].columnar_batches = 1;
  tasks[1].accumulator_bytes_peak = 90;
  tasks[1].peak_rss_bytes = 500;
  tasks[1].reduce_work = {9};
  tasks[2].hash_agg_rows = 6;
  tasks[2].accumulator_bytes_peak = 60;
  tasks[2].reduce_work = {1, 8};
  tasks[2].partition_bytes = {10};
  FoldTaskRecords(tasks, &stage);
  EXPECT_EQ(stage.label, "stage");
  EXPECT_EQ(stage.attempts, 4);
  EXPECT_EQ(stage.shuffle_bytes, 30);
  EXPECT_EQ(stage.hash_agg_rows, 11);
  EXPECT_EQ(stage.columnar_batches, 1);
  EXPECT_EQ(stage.recovery_seconds, 0.75);
  EXPECT_EQ(stage.accumulator_bytes_peak, 90);
  EXPECT_EQ(stage.peak_rss_bytes, 500);
  EXPECT_EQ(stage.reduce_work, (std::vector<int64_t>{7, 2, 9, 1, 8}));
  EXPECT_EQ(stage.partition_bytes, (std::vector<int64_t>{14, 5, 5}));
  // A lower task peak never lowers the stage's.
  StageStats low;
  low.peak_rss_bytes = 1;
  FoldTaskRecords({low}, &stage);
  EXPECT_EQ(stage.peak_rss_bytes, 500);
}

TEST(JsonEscape, EscapesQuotesBackslashesAndControlCharacters) {
  EXPECT_EQ(JsonEscape("a\"b\\c\nd\te\rf\x01g"),
            "a\\\"b\\\\c\\nd\\te\\rf\\u0001g");
  EXPECT_EQ(JsonEscape("plain / text"), "plain / text");
}

TEST(Metrics, MoreWorkersNeverSlower) {
  Metrics metrics;
  std::vector<int64_t> tasks;
  for (int i = 0; i < 32; ++i) tasks.push_back(1000 + i * 17);
  metrics.AddStage(Stage("stage", true, tasks, tasks, 1 << 20));
  ClusterModel model;
  double prev = 1e100;
  for (int workers : {1, 2, 4, 8, 16}) {
    model.num_workers = workers;
    double t = metrics.SimulatedSeconds(model);
    EXPECT_LE(t, prev) << workers;
    prev = t;
  }
}

TEST(Metrics, ShuffleBytesCost) {
  ClusterModel model;
  model.num_workers = 2;
  model.wide_stage_latency_seconds = 0;
  model.narrow_stage_latency_seconds = 0;
  model.seconds_per_work_unit = 0;
  Metrics light, heavy;
  light.AddStage(Stage("s", true, {}, {}, 1000));
  heavy.AddStage(Stage("s", true, {}, {}, 100000));
  EXPECT_GT(heavy.SimulatedSeconds(model), light.SimulatedSeconds(model));
  EXPECT_DOUBLE_EQ(heavy.SimulatedSeconds(model),
                   100.0 * light.SimulatedSeconds(model));
}

TEST(Metrics, WideStagesPayLatency) {
  ClusterModel model;
  Metrics narrow, wide;
  narrow.AddStage(Stage("n", false, {1}, {}, 0));
  wide.AddStage(Stage("w", true, {1}, {}, 0));
  EXPECT_GT(wide.SimulatedSeconds(model), narrow.SimulatedSeconds(model));
}

TEST(Metrics, Report) {
  Metrics metrics;
  metrics.AddStage(Stage("join", true, {5}, {3}, 42));
  std::string report = metrics.Report();
  EXPECT_NE(report.find("join"), std::string::npos);
  EXPECT_NE(report.find("shuffle_bytes=42"), std::string::npos);
}

TEST(Metrics, MemoryWatermarksAreMaximaNotSums) {
  // RSS is a process high-water mark and accumulator bytes are per-task
  // peaks: the run-level figures are maxima over stages, never sums.
  Metrics metrics;
  StageStats a;
  a.label = "map";
  a.peak_rss_bytes = 1000;
  a.accumulator_bytes_peak = 50;
  StageStats b;
  b.label = "reduce";
  b.peak_rss_bytes = 3000;
  b.accumulator_bytes_peak = 20;
  metrics.AddStage(std::move(a));
  metrics.AddStage(std::move(b));
  EXPECT_EQ(metrics.max_peak_rss_bytes(), 3000);
  EXPECT_EQ(metrics.max_accumulator_bytes_peak(), 50);
  metrics.Clear();
  EXPECT_EQ(metrics.max_peak_rss_bytes(), 0);
  EXPECT_EQ(metrics.max_accumulator_bytes_peak(), 0);
}

// ----------------------------- MetricsRegistry --------------------------

TEST(MetricsRegistryTest, CountersAreMonotoneAndKindBindsAtFirstUse) {
  MetricsRegistry reg;
  reg.CounterAdd("requests", 2);
  reg.CounterAdd("requests", 3);
  reg.CounterAdd("requests", -5);  // ignored: counters are monotone
  EXPECT_EQ(reg.CounterValue("requests"), 5);
  // The name is bound to the counter kind now; other kinds are ignored.
  reg.GaugeSet("requests", 99);
  reg.HistogramObserve("requests", 1);
  EXPECT_EQ(reg.CounterValue("requests"), 5);
  EXPECT_EQ(reg.GaugeValue("requests"), 0);
  EXPECT_EQ(reg.HistogramCount("requests"), 0);
}

TEST(MetricsRegistryTest, GaugeSetOverwritesAndGaugeMaxKeepsHighWater) {
  MetricsRegistry reg;
  reg.GaugeSet("level", 10);
  reg.GaugeSet("level", 3);
  EXPECT_EQ(reg.GaugeValue("level"), 3);
  reg.GaugeMax("peak", 10);
  reg.GaugeMax("peak", 3);
  reg.GaugeMax("peak", 12);
  EXPECT_EQ(reg.GaugeValue("peak"), 12);
}

TEST(MetricsRegistryTest, LabelsSeparateSeries) {
  MetricsRegistry reg;
  reg.CounterAdd("tasks", 1, {{"stage", "0"}});
  reg.CounterAdd("tasks", 2, {{"stage", "1"}});
  reg.CounterAdd("tasks", 3, {{"stage", "0"}});
  EXPECT_EQ(reg.CounterValue("tasks", {{"stage", "0"}}), 4);
  EXPECT_EQ(reg.CounterValue("tasks", {{"stage", "1"}}), 2);
  EXPECT_EQ(reg.CounterValue("tasks"), 0);
}

TEST(MetricsRegistryTest, HistogramUsesDecadeBuckets) {
  MetricsRegistry reg;
  reg.HistogramObserve("lat", 0.5);
  reg.HistogramObserve("lat", 50);
  reg.HistogramObserve("lat", 5e12);  // beyond the last bound: +Inf
  EXPECT_EQ(reg.HistogramCount("lat"), 3);
  EXPECT_EQ(MetricsRegistry::HistogramBuckets().front(), 1.0);
  EXPECT_EQ(MetricsRegistry::HistogramBuckets().back(), 1e12);
}

TEST(MetricsRegistryTest, ProcessPeakRssIsPositiveAndMonotone) {
  const int64_t first = MetricsRegistry::ProcessPeakRssBytes();
  EXPECT_GT(first, 0);
  EXPECT_GE(MetricsRegistry::ProcessPeakRssBytes(), first);
}

TEST(MetricsRegistryTest, PrometheusGolden) {
  MetricsRegistry reg;
  reg.CounterAdd("tasks_total", 3, {{"stage", "0"}});
  reg.GaugeSet("rss_bytes", 1024);
  reg.HistogramObserve("dur_us", 5);
  reg.HistogramObserve("dur_us", 5000);
  std::ostringstream out;
  reg.WritePrometheus(out);
  const std::string kExpected =
      "# TYPE dur_us histogram\n"
      "dur_us_bucket{le=\"1\"} 0\n"
      "dur_us_bucket{le=\"10\"} 1\n"
      "dur_us_bucket{le=\"100\"} 1\n"
      "dur_us_bucket{le=\"1000\"} 1\n"
      "dur_us_bucket{le=\"10000\"} 2\n"
      "dur_us_bucket{le=\"100000\"} 2\n"
      "dur_us_bucket{le=\"1000000\"} 2\n"
      "dur_us_bucket{le=\"10000000\"} 2\n"
      "dur_us_bucket{le=\"100000000\"} 2\n"
      "dur_us_bucket{le=\"1000000000\"} 2\n"
      "dur_us_bucket{le=\"10000000000\"} 2\n"
      "dur_us_bucket{le=\"100000000000\"} 2\n"
      "dur_us_bucket{le=\"1000000000000\"} 2\n"
      "dur_us_bucket{le=\"+Inf\"} 2\n"
      "dur_us_sum 5005\n"
      "dur_us_count 2\n"
      "# TYPE rss_bytes gauge\n"
      "rss_bytes 1024\n"
      "# TYPE tasks_total counter\n"
      "tasks_total{stage=\"0\"} 3\n";
  EXPECT_EQ(out.str(), kExpected);
}

TEST(MetricsRegistryTest, JsonExportAndClear) {
  MetricsRegistry reg;
  reg.CounterAdd("c", 7);
  reg.GaugeSet("g", 2.5, {{"k", "v"}});
  reg.HistogramObserve("h", 42);
  std::ostringstream out;
  reg.WriteJson(out);
  const std::string json = out.str();
  EXPECT_NE(json.find("\"counters\":["), std::string::npos);
  EXPECT_NE(json.find("{\"name\":\"c\",\"labels\":{},\"value\":7}"),
            std::string::npos);
  EXPECT_NE(json.find("\"labels\":{\"k\":\"v\"},\"value\":2.5"),
            std::string::npos);
  EXPECT_NE(json.find("\"sum\":42,\"count\":1"), std::string::npos);
  reg.Clear();
  EXPECT_EQ(reg.CounterValue("c"), 0);
  EXPECT_EQ(reg.HistogramCount("h"), 0);
}

}  // namespace
}  // namespace diablo::runtime
