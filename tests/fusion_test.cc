// Narrow-stage fusion property tests: randomized chains of narrow
// operators terminated by a random action must produce byte-identical
// results whether the chain is fused into the next stage boundary or
// materialized one ValueVec per operator (Engine::Force after every
// narrow operator, the eager reference) — and, with fault injection on
// top, a fused run that completes must still equal the fault-free fused
// run exactly. Also checks the fused-stage observability metrics.

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>
#include <vector>

#include "runtime/engine.h"
#include "runtime/fault.h"

namespace diablo::runtime {
namespace {

Value I(int64_t v) { return Value::MakeInt(v); }
Value D(double v) { return Value::MakeDouble(v); }

ValueVec RandomPairs(std::mt19937_64& rng, int n, int keys) {
  ValueVec rows;
  rows.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    rows.push_back(Value::MakePair(
        I(static_cast<int64_t>(rng() % keys)),
        D(static_cast<double>(rng() % 1000) / 7.0 - 50.0)));
  }
  return rows;
}

/// A program drawn from (op codes, terminal code): a chain of narrow
/// operators over (int, double) pairs followed by one action. With
/// `force_each`, every narrow operator is materialized by its own Force
/// stage instead of fusing into the next boundary. Both runs are handed
/// the exact same closures, so any divergence comes from execution
/// strategy, never from the program.
StatusOr<ValueVec> RunProgram(Engine& engine, const ValueVec& rows,
                              const std::vector<int>& ops, int terminal,
                              bool force_each = false) {
  Dataset cur = engine.Parallelize(rows);
  for (int op : ops) {
    switch (op % 4) {
      case 0: {
        DIABLO_ASSIGN_OR_RETURN(
            cur, engine.Map(cur, [](const Value& v) -> StatusOr<Value> {
              return Value::MakePair(
                  v.tuple()[0],
                  D(v.tuple()[1].AsDouble() * 1.25 +
                    static_cast<double>(v.tuple()[0].AsInt())));
            }));
        break;
      }
      case 1: {
        DIABLO_ASSIGN_OR_RETURN(
            cur, engine.Map(
                     cur,
                     [](const Value& v) -> StatusOr<Value> {
                       return Value::MakePair(
                           v.tuple()[0],
                           D(v.tuple()[1].AsDouble() * 0.5 - 3.0));
                     },
                     "mapValues"));
        break;
      }
      case 2: {
        DIABLO_ASSIGN_OR_RETURN(
            cur, engine.Filter(cur, [](const Value& v) -> StatusOr<bool> {
              return v.tuple()[1].AsDouble() > -40.0;
            }));
        break;
      }
      default: {
        DIABLO_ASSIGN_OR_RETURN(
            cur, engine.FlatMap(cur, [](const Value& v) -> StatusOr<ValueVec> {
              ValueVec out{v};
              if (v.tuple()[0].AsInt() % 2 == 0) {
                out.push_back(Value::MakePair(
                    v.tuple()[0], D(v.tuple()[1].AsDouble() + 1.0)));
              }
              return out;
            }));
        break;
      }
    }
    if (force_each) {
      DIABLO_ASSIGN_OR_RETURN(cur, engine.Force(cur));
    }
  }
  switch (terminal % 6) {
    case 0:
      return engine.Collect(cur);
    case 1: {
      DIABLO_ASSIGN_OR_RETURN(Dataset sums,
                              engine.ReduceByKey(cur, BinOp::kAdd));
      return engine.Collect(sums);
    }
    case 2: {
      DIABLO_ASSIGN_OR_RETURN(Dataset grouped, engine.GroupByKey(cur));
      return engine.Collect(grouped);
    }
    case 3: {
      DIABLO_ASSIGN_OR_RETURN(Dataset ckpt, engine.Checkpoint(cur));
      return engine.Collect(ckpt);
    }
    case 4: {
      // Join the (still lazy) stream with its own per-key sums: both
      // shuffle scatters inline their pending chains.
      DIABLO_ASSIGN_OR_RETURN(Dataset sums,
                              engine.ReduceByKey(cur, BinOp::kAdd));
      DIABLO_ASSIGN_OR_RETURN(Dataset joined, engine.Join(cur, sums));
      return engine.Collect(joined);
    }
    default: {
      // Pairwise (elementwise) fold of every row; wrap into a vec.
      auto total = engine.Reduce(cur, [](const Value& a, const Value& b) {
        return EvalBinOp(BinOp::kAdd, a, b);
      });
      if (!total.ok()) return total.status();
      return total->has_value() ? ValueVec{**total} : ValueVec{};
    }
  }
}

TEST(FusionProperty, FusedMatchesEagerByteForByte) {
  for (uint64_t seed = 0; seed < 24; ++seed) {
    std::mt19937_64 rng(seed * 7919 + 1);
    ValueVec rows = RandomPairs(rng, 50 + static_cast<int>(rng() % 350),
                                1 + static_cast<int>(rng() % 19));
    std::vector<int> ops(rng() % 6);
    for (int& op : ops) op = static_cast<int>(rng() % 4);
    int terminal = static_cast<int>(rng() % 6);

    EngineConfig config;
    config.num_partitions = 1 + static_cast<int>(rng() % 12);

    Engine fused(config), eager(config);
    auto fused_out = RunProgram(fused, rows, ops, terminal);
    auto eager_out = RunProgram(eager, rows, ops, terminal,
                                /*force_each=*/true);
    ASSERT_TRUE(fused_out.ok()) << fused_out.status().ToString();
    ASSERT_TRUE(eager_out.ok()) << eager_out.status().ToString();
    EXPECT_EQ(*fused_out, *eager_out)
        << "seed " << seed << ", " << ops.size() << " ops, terminal "
        << terminal;
  }
}

TEST(FusionProperty, FusedUnderFaultsMatchesFaultFree) {
  for (uint64_t seed = 0; seed < 12; ++seed) {
    std::mt19937_64 rng(seed * 104729 + 3);
    ValueVec rows = RandomPairs(rng, 100 + static_cast<int>(rng() % 200),
                                1 + static_cast<int>(rng() % 13));
    std::vector<int> ops(1 + rng() % 5);
    for (int& op : ops) op = static_cast<int>(rng() % 4);
    int terminal = static_cast<int>(rng() % 6);

    EngineConfig clean_config;
    Engine clean(clean_config);
    auto expected = RunProgram(clean, rows, ops, terminal);
    ASSERT_TRUE(expected.ok()) << expected.status().ToString();

    EngineConfig faulty_config;
    faulty_config.faults.seed = seed + 1;
    faulty_config.faults.task_failure_rate = 0.1;
    faulty_config.faults.straggler_rate = 0.05;
    faulty_config.faults.max_task_attempts = 10;
    Engine faulty(faulty_config);
    auto got = RunProgram(faulty, rows, ops, terminal);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    // Bit-identical: a restarted attempt reruns the whole fused chain
    // for its partition, so recovery can never change results.
    EXPECT_EQ(*got, *expected) << "seed " << seed;
  }
}

TEST(FusionProperty, LostPartitionsReplayTheChain) {
  // Deterministic lost-partition directives against a fused pipeline:
  // the rebuilt partitions flow through the same single-pass scatter.
  std::mt19937_64 rng(99);
  ValueVec rows = RandomPairs(rng, 400, 17);
  std::vector<int> ops = {3, 2, 0};  // flatMap, filter, map
  auto run = [&](EngineConfig config) {
    Engine engine(config);
    auto out = RunProgram(engine, rows, ops, /*terminal=*/1);
    EXPECT_TRUE(out.ok()) << out.status().ToString();
    return std::make_pair(out.ok() ? *out : ValueVec{},
                          engine.metrics().total_recomputed_partitions());
  };
  auto [expected, clean_recomputed] = run(EngineConfig{});
  EXPECT_EQ(clean_recomputed, 0);
  EngineConfig config;
  // Stage 0 is the reduceByKey combine wave over the fused chain: its
  // source partitions are durable (parallelized input), so losing one
  // forces a durable re-read followed by a full chain replay.
  config.faults.lose_partitions.push_back({0, 1, 0});
  auto [got, recomputed] = run(config);
  EXPECT_EQ(got, expected);
  EXPECT_EQ(recomputed, 1);
}

TEST(FusionMetrics, FusedStagesReportSavedMaterialization) {
  Engine engine;
  ValueVec rows;
  for (int i = 0; i < 1000; ++i) {
    rows.push_back(Value::MakePair(I(i % 10), D(i * 0.25)));
  }
  Dataset ds = engine.Parallelize(rows);
  auto expanded = engine.FlatMap(
      ds, [](const Value& v) -> StatusOr<ValueVec> { return ValueVec{v, v}; });
  ASSERT_TRUE(expanded.ok());
  auto kept =
      engine.Filter(*expanded, [](const Value& v) -> StatusOr<bool> {
        return v.tuple()[1].AsDouble() < 200.0;
      });
  ASSERT_TRUE(kept.ok());
  auto scaled = engine.Map(
      *kept,
      [](const Value& v) -> StatusOr<Value> {
        return Value::MakePair(v.tuple()[0], D(v.tuple()[1].AsDouble() * 2.0));
      },
      "mapValues");
  ASSERT_TRUE(scaled.ok());
  // Nothing ran yet: narrow operators defer under fusion.
  EXPECT_EQ(engine.metrics().stages().size(), 0u);
  EXPECT_FALSE(scaled->materialized());
  EXPECT_EQ(scaled->chain().size(), 3u);

  auto sums = engine.ReduceByKey(*scaled, BinOp::kAdd);
  ASSERT_TRUE(sums.ok());
  // The combine wave inlined all three operators and accounted for the
  // intermediate rows it never built.
  EXPECT_EQ(engine.metrics().total_fused_ops(), 3);
  EXPECT_GT(engine.metrics().total_rows_not_materialized(), 0);
  EXPECT_GT(engine.metrics().total_bytes_not_materialized(), 0);
  const StageStats& stage = engine.metrics().stages().front();
  EXPECT_NE(stage.label.find("flatMap+filter+mapValues"), std::string::npos)
      << stage.label;
}

TEST(FusionMetrics, KeptRowsCountOnlyInteriorBoundaries) {
  // map (+1) then filter (< 500) over 0..999: 1000 rows cross the map
  // boundary and 499 the filter's. Force and Checkpoint keep the
  // filter's rows, so only the map boundary counts as not materialized;
  // Reduce keeps none, so both count.
  ValueVec rows;
  for (int64_t i = 0; i < 1000; ++i) rows.push_back(I(i));
  Engine engine;
  auto chain = [&]() -> StatusOr<Dataset> {
    Dataset in = engine.Parallelize(rows);
    DIABLO_ASSIGN_OR_RETURN(
        in, engine.Map(in, [](const Value& v) -> StatusOr<Value> {
          return I(v.AsInt() + 1);
        }));
    return engine.Filter(in, [](const Value& v) -> StatusOr<bool> {
      return v.AsInt() < 500;
    });
  };
  auto forced = chain();
  ASSERT_TRUE(forced.ok());
  auto kept = engine.Force(*forced);
  ASSERT_TRUE(kept.ok());
  auto written = chain();
  ASSERT_TRUE(written.ok());
  ASSERT_TRUE(engine.Checkpoint(*written).ok());
  auto folded = chain();
  ASSERT_TRUE(folded.ok());
  ASSERT_TRUE(engine.Reduce(*folded, BinOp::kAdd).ok());
  const std::vector<StageStats>& stages = engine.metrics().stages();
  ASSERT_EQ(stages.size(), 3u);
  EXPECT_EQ(stages[0].rows_not_materialized, 1000);
  EXPECT_EQ(stages[1].rows_not_materialized, 1000);
  EXPECT_EQ(stages[2].rows_not_materialized, 1499);
  // Checkpoint charges the rows it writes, the filter's, not its input.
  int64_t kept_bytes = 0;
  for (const ValueVec& part : kept->partitions()) {
    for (const Value& v : part) kept_bytes += v.SerializedBytes();
  }
  EXPECT_EQ(kept->TotalRows(), 499);
  EXPECT_EQ(stages[1].shuffle_bytes, kept_bytes);
  int64_t written_rows = 0;
  for (int64_t r : stages[1].partition_rows) written_rows += r;
  EXPECT_EQ(written_rows, 499);
}

}  // namespace
}  // namespace diablo::runtime
