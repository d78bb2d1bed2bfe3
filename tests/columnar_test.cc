// Columnar execution property tests.
//
// The typed paths — the column-hashing shuffle scatter, the typed
// reduceByKey combine and reduce, and the typed scalar fold — carry one
// contract: byte-identical results to the boxed per-row path for every
// workload, partition count, host thread count, fault schedule and
// distributed chaos kill. The engine-level tests take that boxed
// expectation from the closure route: the same workloads with their
// folds written as closures, which carry no native op and so run boxed
// by construction. Rows the typed paths cannot represent must spill to
// boxed mid-stream without consuming or reordering anything.

#include "runtime/column_batch.h"

#include <gtest/gtest.h>

#include <functional>
#include <limits>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "dist/coordinator.h"
#include "runtime/engine.h"
#include "runtime/fault.h"
#include "runtime/keyed_accumulator.h"
#include "runtime/operators.h"
#include "runtime/serialize.h"

namespace diablo::runtime {
namespace {

Value I(int64_t v) { return Value::MakeInt(v); }
Value D(double v) { return Value::MakeDouble(v); }
Value S(const std::string& v) { return Value::MakeString(v); }

// ---------------------------------------------------------------------
// Column and typed-accumulator unit tests.

TEST(HashColumnTest, MatchesPerRowValueHashForEveryTag) {
  std::vector<ValueVec> shapes = {
      {},  // empty, kUnknown
      {I(0), I(-1), I(7), I(std::numeric_limits<int64_t>::min()),
       I(std::numeric_limits<int64_t>::max())},
      {D(0.0), D(-0.0), D(3.25), D(-2.5e300)},
      {Value::MakeBool(true), Value::MakeBool(false), Value::MakeBool(true)},
      {S("alpha"), S("beta"), S("alpha"), S(""), S("beta")},
      {I(1), S("demoted"), Value::MakeTuple({I(2), D(0.5)}),
       Value::MakeBag({I(9)})},  // boxed spill
  };
  for (size_t shape = 0; shape < shapes.size(); ++shape) {
    Column col;
    for (const Value& v : shapes[shape]) col.Append(v);
    std::vector<size_t> hashes;
    HashColumn(col, &hashes);
    ASSERT_EQ(hashes.size(), col.size()) << "shape " << shape;
    for (size_t i = 0; i < col.size(); ++i) {
      EXPECT_EQ(hashes[i], col.ValueAt(i).Hash())
          << "shape " << shape << " row " << i;
    }
  }
}

TEST(ColumnTest, StringColumnInternsWithCachedHashes) {
  Column col;
  for (const char* w : {"a", "b", "a", "c", "b", "a"}) col.Append(S(w));
  EXPECT_EQ(col.tag(), ColumnTag::kString);
  ASSERT_EQ(col.dict().size(), 3u);
  EXPECT_EQ(col.codes(), (std::vector<uint32_t>{0, 1, 0, 2, 1, 0}));
  for (uint32_t code = 0; code < col.dict().size(); ++code) {
    EXPECT_EQ(col.dict().hash(code), col.dict().value(code).Hash());
  }
}

TEST(ColumnTest, KindChangeDemotesToBoxedPreservingRows) {
  Column col;
  ValueVec rows = {I(1), I(2), D(3.5), S("x")};
  for (const Value& v : rows) col.Append(v);
  EXPECT_EQ(col.tag(), ColumnTag::kBoxed);
  ASSERT_EQ(col.size(), rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(col.ValueAt(i), rows[i]) << "row " << i;
  }
}

/// Reference boxed reduceByKey fold: insertion-ordered accumulator,
/// combined with EvalBinOp in arrival order, canonicalized by key.
ValueVec BoxedReduce(BinOp op, const ValueVec& rows) {
  KeyedAccumulator<Value> acc;
  for (const Value& row : rows) {
    const Value& key = row.tuple()[0];
    auto ref = acc.FindOrCreate(key.Hash(), key);
    if (ref.inserted) {
      ref.payload = row.tuple()[1];
    } else {
      ref.payload = *EvalBinOp(op, ref.payload, row.tuple()[1]);
    }
  }
  acc.SortByKey();
  ValueVec out;
  for (const auto& e : acc.entries()) {
    out.push_back(Value::MakePair(e.key, e.payload));
  }
  return out;
}

TEST(TypedReduceAccumulatorTest, MidStreamSpillMatchesAllBoxedFold) {
  for (BinOp op : {BinOp::kAdd, BinOp::kMul, BinOp::kMin, BinOp::kMax}) {
    std::mt19937_64 rng(77);
    ValueVec rows;
    for (int i = 0; i < 120; ++i) {
      rows.push_back(Value::MakePair(I(static_cast<int64_t>(rng() % 9)),
                                     I(1 + static_cast<int64_t>(rng() % 7))));
    }
    // Row 120 deviates: a double payload after an int-pinned stream.
    rows.push_back(Value::MakePair(I(3), D(2.5)));
    for (int i = 0; i < 40; ++i) {
      rows.push_back(
          Value::MakePair(I(static_cast<int64_t>(rng() % 9)),
                          D(static_cast<double>(rng() % 30) * 0.5)));
    }

    TypedReduceAccumulator typed(op, 16);
    size_t i = 0;
    for (; i < rows.size(); ++i) {
      if (!typed.Add(rows[i])) break;
    }
    // The deviating row bounced WITHOUT being consumed.
    ASSERT_EQ(i, 120u) << BinOpName(op);
    EXPECT_EQ(typed.rows(), 120u);
    KeyedAccumulator<Value> acc;
    typed.SpillTo(&acc);
    for (; i < rows.size(); ++i) {
      const Value& key = rows[i].tuple()[0];
      auto ref = acc.FindOrCreate(key.Hash(), key);
      if (ref.inserted) {
        ref.payload = rows[i].tuple()[1];
      } else {
        ref.payload = *EvalBinOp(op, ref.payload, rows[i].tuple()[1]);
      }
    }
    acc.SortByKey();
    ValueVec got;
    for (const auto& e : acc.entries()) {
      got.push_back(Value::MakePair(e.key, e.payload));
    }
    EXPECT_EQ(got, BoxedReduce(op, rows)) << BinOpName(op);
  }
}

TEST(TypedReduceAccumulatorTest, StringKeysEmitSortedWithCachedHashes) {
  std::mt19937_64 rng(5);
  ValueVec rows;
  for (int i = 0; i < 200; ++i) {
    rows.push_back(Value::MakePair(S("key" + std::to_string(rng() % 13)),
                                   D(static_cast<double>(rng() % 40) * 0.25)));
  }
  TypedReduceAccumulator typed(BinOp::kAdd, 8);
  for (const Value& row : rows) ASSERT_TRUE(typed.Add(row));
  EXPECT_EQ(typed.size(), 13u);

  TypedRows typed_rows;
  typed.EmitSortedTyped(&typed_rows);
  HashedVec hashed;
  typed_rows.EmitHashed(&hashed);
  ValueVec plain;
  typed.EmitSortedRows(&plain);
  ASSERT_EQ(hashed.size(), plain.size());
  const ValueVec expected = BoxedReduce(BinOp::kAdd, rows);
  ASSERT_EQ(plain.size(), expected.size());
  for (size_t i = 0; i < plain.size(); ++i) {
    EXPECT_EQ(plain[i], expected[i]) << "row " << i;
    EXPECT_EQ(hashed[i].row, expected[i]) << "row " << i;
    EXPECT_EQ(hashed[i].hash, expected[i].tuple()[0].Hash()) << "row " << i;
  }
}

TEST(TypedFoldTest, MixedNumericFoldPromotesLikeBoxed) {
  // int → double promotion happens inside the fold, exactly like
  // NumericOp: no spill, and the result is bit-identical to the boxed
  // EvalBinOp fold in the same arrival order.
  for (BinOp op : {BinOp::kAdd, BinOp::kMul, BinOp::kMin, BinOp::kMax}) {
    ValueVec rows = {I(7), I(-2), I(5), D(0.5), D(12.0), I(3)};
    TypedFold fold(op);
    for (const Value& v : rows) ASSERT_TRUE(fold.Add(v)) << BinOpName(op);
    Value expected = rows[0];
    for (size_t j = 1; j < rows.size(); ++j) {
      expected = *EvalBinOp(op, expected, rows[j]);
    }
    EXPECT_EQ(fold.Result(), expected) << BinOpName(op);
    EXPECT_EQ(fold.rows(), rows.size());
  }
}

TEST(TypedFoldTest, NonNumericRowSpillsWithoutConsuming) {
  ValueVec rows = {I(7), I(-2), S("spill"), I(5)};
  TypedFold fold(BinOp::kAdd);
  size_t i = 0;
  for (; i < rows.size(); ++i) {
    if (!fold.Add(rows[i])) break;
  }
  ASSERT_EQ(i, 2u);  // the string bounced, unconsumed
  ASSERT_FALSE(fold.empty());
  EXPECT_EQ(fold.rows(), 2u);
  Value acc = fold.Result();
  EXPECT_EQ(acc, I(5));
  // The boxed continuation sees the deviating row itself: string
  // concatenation via '+' would error on int + string exactly as the
  // all-boxed fold would, so semantics stay aligned.
  EXPECT_FALSE(EvalBinOp(BinOp::kAdd, acc, rows[i]).ok());
}

// ---------------------------------------------------------------------
// Engine-level property: columnar execution is byte-identical to boxed.

/// How a workload spells its built-in folds. The native-op route uses
/// the BinOp overloads of ReduceByKey and Reduce, which the engine may
/// run typed. The closure route wraps the same EvalBinOp in closures,
/// which carry no native op, so every combine and fold on it is boxed.
struct Route {
  bool native_ops = true;

  Engine::ReduceFn Fn(BinOp op) const {
    return [op](const Value& a, const Value& b) {
      return EvalBinOp(op, a, b);
    };
  }
  StatusOr<Dataset> ReduceByKey(Engine& e, const Dataset& in,
                                BinOp op) const {
    if (native_ops) return e.ReduceByKey(in, op);
    return e.ReduceByKey(in, Fn(op));
  }
  StatusOr<std::optional<Value>> Reduce(Engine& e, const Dataset& in,
                                        BinOp op) const {
    if (native_ops) return e.Reduce(in, op);
    return e.Reduce(in, Fn(op));
  }
};

constexpr Route kNativeOps{true};
constexpr Route kClosures{false};

/// (k, v) -> (k, fn(v)) over pair rows.
StatusOr<Dataset> MapPairValues(Engine& engine, const Dataset& in,
                                std::function<Value(const Value&)> fn) {
  return engine.Map(in, [fn](const Value& row) -> StatusOr<Value> {
    return Value::MakePair(row.tuple()[0], fn(row.tuple()[1]));
  });
}

StatusOr<ValueVec> WordCount(Engine& engine, const ValueVec& words,
                             const Route& route) {
  Dataset ds = engine.Parallelize(words);
  DIABLO_ASSIGN_OR_RETURN(
      Dataset pairs, engine.Map(ds, [](const Value& v) -> StatusOr<Value> {
        return Value::MakePair(v, I(1));
      }));
  DIABLO_ASSIGN_OR_RETURN(Dataset counts,
                          route.ReduceByKey(engine, pairs, BinOp::kAdd));
  return engine.Collect(counts);
}

StatusOr<ValueVec> PageRankIters(Engine& engine, const ValueVec& edges,
                                 const Route& route) {
  Dataset links = engine.Parallelize(edges);
  DIABLO_ASSIGN_OR_RETURN(Dataset grouped, engine.GroupByKey(links));
  DIABLO_ASSIGN_OR_RETURN(
      Dataset ranks,
      MapPairValues(engine, grouped, [](const Value&) { return D(1.0); }));
  for (int iter = 0; iter < 2; ++iter) {
    DIABLO_ASSIGN_OR_RETURN(Dataset joined, engine.Join(grouped, ranks));
    DIABLO_ASSIGN_OR_RETURN(
        Dataset contribs,
        engine.FlatMap(joined, [](const Value& v) -> StatusOr<ValueVec> {
          const ValueVec& outs = v.tuple()[1].tuple()[0].bag();
          const double rank = v.tuple()[1].tuple()[1].AsDouble();
          ValueVec out;
          out.reserve(outs.size());
          for (const Value& dst : outs) {
            out.push_back(Value::MakePair(
                dst, D(rank / static_cast<double>(outs.size()))));
          }
          return out;
        }));
    DIABLO_ASSIGN_OR_RETURN(Dataset summed,
                            route.ReduceByKey(engine, contribs, BinOp::kAdd));
    DIABLO_ASSIGN_OR_RETURN(
        ranks, MapPairValues(engine, summed, [](const Value& v) {
          return D(0.15 + 0.85 * v.AsDouble());
        }));
  }
  return engine.Collect(ranks);
}

StatusOr<ValueVec> RelationalMix(Engine& engine, const ValueVec& rows,
                                 const Route& route) {
  Dataset ds = engine.Parallelize(rows);
  DIABLO_ASSIGN_OR_RETURN(Dataset sums,
                          route.ReduceByKey(engine, ds, BinOp::kAdd));
  DIABLO_ASSIGN_OR_RETURN(Dataset joined, engine.Join(ds, sums));
  DIABLO_ASSIGN_OR_RETURN(ValueVec out, engine.Collect(joined));
  DIABLO_ASSIGN_OR_RETURN(Dataset cg, engine.CoGroup(ds, sums));
  DIABLO_ASSIGN_OR_RETURN(ValueVec cg_rows, engine.Collect(cg));
  out.insert(out.end(), cg_rows.begin(), cg_rows.end());
  return out;
}

/// Forced narrow chains feeding every typed path at once: the typed
/// combine and reduce through the shuffle (double payloads) and the
/// typed scalar fold. Input rows are (int64 key, double value) pairs.
StatusOr<ValueVec> NativeOps(Engine& engine, const ValueVec& rows,
                             const Route& route) {
  Dataset ds = engine.Parallelize(rows);
  // Paired chain over the values: (v * 2 < 60) + 1.
  DIABLO_ASSIGN_OR_RETURN(
      Dataset a, MapPairValues(engine, ds, [](const Value& v) {
        return D(v.AsDouble() * 2.0);
      }));
  DIABLO_ASSIGN_OR_RETURN(
      a, engine.Filter(a, [](const Value& row) -> StatusOr<bool> {
        return row.tuple()[1].AsDouble() < 60.0;
      }));
  DIABLO_ASSIGN_OR_RETURN(a, MapPairValues(engine, a, [](const Value& v) {
                            return D(v.AsDouble() + 1.0);
                          }));
  DIABLO_ASSIGN_OR_RETURN(a, engine.Force(a));
  DIABLO_ASSIGN_OR_RETURN(ValueVec out, engine.Collect(a));
  // Typed combine + reduce through the shuffle (double payloads).
  DIABLO_ASSIGN_OR_RETURN(Dataset sums,
                          route.ReduceByKey(engine, a, BinOp::kAdd));
  DIABLO_ASSIGN_OR_RETURN(ValueVec sum_rows, engine.Collect(sums));
  // Scalar (non-pair) chain over int64 keys: (k * 3 != 12) + 100.
  DIABLO_ASSIGN_OR_RETURN(
      Dataset scaled, engine.Map(ds, [](const Value& v) -> StatusOr<Value> {
        return I(v.tuple()[0].AsInt() * 3);
      }));
  DIABLO_ASSIGN_OR_RETURN(
      scaled, engine.Filter(scaled, [](const Value& v) -> StatusOr<bool> {
        return v.AsInt() != 12;
      }));
  DIABLO_ASSIGN_OR_RETURN(
      scaled, engine.Map(scaled, [](const Value& v) -> StatusOr<Value> {
        return I(v.AsInt() + 100);
      }));
  DIABLO_ASSIGN_OR_RETURN(scaled, engine.Force(scaled));
  DIABLO_ASSIGN_OR_RETURN(ValueVec scaled_rows, engine.Collect(scaled));
  // Typed scalar fold.
  DIABLO_ASSIGN_OR_RETURN(auto total,
                          route.Reduce(engine, scaled, BinOp::kAdd));
  out.insert(out.end(), sum_rows.begin(), sum_rows.end());
  out.insert(out.end(), scaled_rows.begin(), scaled_rows.end());
  if (total.has_value()) out.push_back(*total);
  return out;
}

StatusOr<ValueVec> RunWorkload(Engine& engine, int which,
                               const ValueVec& rows,
                               const Route& route = kNativeOps) {
  switch (which) {
    case 0:
      return WordCount(engine, rows, route);
    case 1:
      return PageRankIters(engine, rows, route);
    case 2:
      return RelationalMix(engine, rows, route);
    default:
      return NativeOps(engine, rows, route);
  }
}

ValueVec WorkloadInput(int which, std::mt19937_64& rng) {
  ValueVec rows;
  if (which == 0) {
    const int n = 200 + static_cast<int>(rng() % 300);
    for (int i = 0; i < n; ++i) {
      rows.push_back(S("word" + std::to_string(rng() % 37)));
    }
  } else if (which == 1) {
    const int nodes = 20 + static_cast<int>(rng() % 20);
    const int edges = 150 + static_cast<int>(rng() % 150);
    for (int i = 0; i < edges; ++i) {
      rows.push_back(Value::MakePair(I(static_cast<int64_t>(rng() % nodes)),
                                     I(static_cast<int64_t>(rng() % nodes))));
    }
  } else if (which == 2) {
    const int n = 150 + static_cast<int>(rng() % 250);
    for (int i = 0; i < n; ++i) {
      rows.push_back(Value::MakePair(
          I(static_cast<int64_t>(rng() % 23)),
          D(static_cast<double>(rng() % 1000) / 7.0 - 50.0)));
    }
  } else {
    const int n = 200 + static_cast<int>(rng() % 200);
    for (int i = 0; i < n; ++i) {
      rows.push_back(Value::MakePair(
          I(static_cast<int64_t>(rng() % 17)),
          D(static_cast<double>(rng() % 500) / 8.0 - 20.0)));
    }
  }
  return rows;
}

TEST(ColumnarProperty, ColumnarMatchesBoxedByteForByte) {
  for (int which = 0; which < 4; ++which) {
    for (uint64_t seed = 0; seed < 4; ++seed) {
      std::mt19937_64 rng(seed * 7919 + which + 1);
      ValueVec rows = WorkloadInput(which, rng);
      const int parts = 1 + static_cast<int>(rng() % 12);
      for (int host_threads : {1, 4}) {
        EngineConfig config;
        config.num_partitions = parts;
        config.host_threads = host_threads;

        Engine columnar(config), boxed(config);
        auto col_out = RunWorkload(columnar, which, rows, kNativeOps);
        auto boxed_out = RunWorkload(boxed, which, rows, kClosures);
        ASSERT_TRUE(col_out.ok()) << col_out.status().ToString();
        ASSERT_TRUE(boxed_out.ok()) << boxed_out.status().ToString();
        EXPECT_EQ(*col_out, *boxed_out)
            << "workload " << which << " seed " << seed << " threads "
            << host_threads;
        // Only the shuffle scatter's key hashing runs typed on the
        // closure route; the native-op route adds the typed folds.
        EXPECT_GT(columnar.metrics().total_columnar_batches(),
                  boxed.metrics().total_columnar_batches());
      }
    }
  }
}

TEST(ColumnarProperty, CountersReportTypedExecution) {
  std::mt19937_64 rng(2026);
  ValueVec rows = WorkloadInput(/*which=*/3, rng);
  EngineConfig config;
  config.host_threads = 2;
  Engine engine(config);
  auto out = RunWorkload(engine, 3, rows);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  // Typed combines, reduces and the typed fold count batches; nothing
  // in this workload needs to fall back.
  EXPECT_GT(engine.metrics().total_columnar_batches(), 0);
  EXPECT_EQ(engine.metrics().total_columnar_rows_fallback(), 0);
}

TEST(ColumnarProperty, HeterogeneousRowsFallBackAndStayIdentical) {
  // Mixed int/double values make the typed combine spill mid-stream to
  // the boxed accumulator (counted as fallback); the result must still
  // match the closure route exactly.
  ValueVec rows;
  std::mt19937_64 rng(31);
  for (int i = 0; i < 300; ++i) {
    const Value v = i % 3 == 0 ? I(static_cast<int64_t>(rng() % 50))
                               : D(static_cast<double>(rng() % 50) * 0.5);
    rows.push_back(Value::MakePair(I(static_cast<int64_t>(rng() % 7)), v));
  }
  auto run = [&](const Route& route) {
    Engine engine;
    auto sums =
        route.ReduceByKey(engine, engine.Parallelize(rows), BinOp::kAdd);
    EXPECT_TRUE(sums.ok());
    auto out = engine.Collect(*sums);
    EXPECT_TRUE(out.ok());
    return std::make_pair(out.ok() ? *out : ValueVec{},
                          engine.metrics().total_columnar_rows_fallback());
  };
  auto [col_out, col_fallback] = run(kNativeOps);
  auto [boxed_out, boxed_fallback] = run(kClosures);
  ASSERT_FALSE(col_out.empty());
  EXPECT_EQ(col_out, boxed_out);
  EXPECT_GT(col_fallback, 0);
  EXPECT_EQ(boxed_fallback, 0);
}

TEST(ColumnarProperty, ReduceCarriesTypedPartialIntoBoxedFold) {
  // A string after ints: the natively folded partial must carry into the
  // boxed fold, which rejects int + string exactly as the closure route
  // does. Losing the partial would fold the string alone and succeed.
  for (const Route& route : {kNativeOps, kClosures}) {
    SCOPED_TRACE(route.native_ops ? "native ops" : "closures");
    Engine engine;
    auto got = route.Reduce(engine, engine.Parallelize({I(1), I(2), S("x")}, 1),
                            BinOp::kAdd);
    ASSERT_FALSE(got.ok());
    EXPECT_EQ(got.status().code(), StatusCode::kRuntimeError);
  }
}

TEST(ColumnarProperty, ColumnarUnderFaultsMatchesBoxedFaultFree) {
  // Fault schedules key off (stage id, partition, attempt, row index) —
  // coordinates the execution strategy does not change — so injected
  // task failures and shuffle corruption hit the columnar engine at the
  // same points and must never produce a divergent answer.
  // serialize_shuffles drives every shuffled row through the wire
  // codec.
  for (int which = 0; which < 4; ++which) {
    for (uint64_t seed = 0; seed < 3; ++seed) {
      std::mt19937_64 rng(seed * 2741 + which + 11);
      ValueVec rows = WorkloadInput(which, rng);

      Engine clean;
      auto expected = RunWorkload(clean, which, rows, kClosures);
      ASSERT_TRUE(expected.ok()) << expected.status().ToString();

      EngineConfig faulty_config;
      faulty_config.host_threads = 4;
      faulty_config.faults.seed = seed + 17;
      faulty_config.faults.task_failure_rate = 0.08;
      faulty_config.faults.corrupt_shuffle_rate = 0.01;
      faulty_config.faults.max_task_attempts = 12;
      faulty_config.serialize_shuffles = true;
      Engine faulty(faulty_config);
      auto got = RunWorkload(faulty, which, rows);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      EXPECT_EQ(*got, *expected)
          << "workload " << which << " seed " << seed;
    }
  }
}

TEST(ColumnarProperty, LostPartitionRecoveryReplaysColumnarStages) {
  // Deterministic lost-partition directives drive the lineage replay
  // behind every typed stage and every Force, and the rebuilt
  // partitions must be byte-identical to the clean closure-route run.
  std::mt19937_64 rng(4242);
  ValueVec rows = WorkloadInput(/*which=*/3, rng);
  Engine boxed;
  auto expected = RunWorkload(boxed, 3, rows, kClosures);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();

  int64_t fired = 0;
  for (int stage = 0; stage < 8; ++stage) {
    EngineConfig config;
    config.faults.lose_partitions.push_back({stage, 2, 0});
    Engine engine(config);
    auto got = RunWorkload(engine, 3, rows);
    ASSERT_TRUE(got.ok()) << "stage " << stage << ": "
                          << got.status().ToString();
    EXPECT_EQ(*got, *expected) << "stage " << stage;
    fired += engine.metrics().total_recomputed_partitions();
  }
  EXPECT_GE(fired, 3);
}

// ---------------------------------------------------------------------
// Distributed: typed stages run in forked workers, their task records
// cross the wire, they survive real worker kills, and they still match
// the single-process closure route.

std::string Bytes(const ValueVec& rows) {
  std::string out;
  for (const Value& v : rows) out += Serialize(v);
  return out;
}

TEST(ColumnarDistTest, ColumnarOverWorkersMatchesBoxedLocal) {
  std::mt19937_64 rng(606);
  ValueVec rows = WorkloadInput(/*which=*/3, rng);
  Engine local;
  auto expected = RunWorkload(local, 3, rows, kClosures);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();

  dist::DistConfig dist_config;
  dist_config.num_workers = 2;
  dist_config.heartbeat_ms = 50;
  dist::Coordinator coordinator(dist_config);
  EngineConfig config;
  config.remote = &coordinator;
  Engine dist(config);
  auto got = RunWorkload(dist, 3, rows);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(Bytes(*got), Bytes(*expected));
  EXPECT_GT(dist.metrics().total_dist_tasks(), 0);
  // The batch counters made the round trip in the workers' task records.
  EXPECT_GT(dist.metrics().total_columnar_batches(), 0);
}

TEST(ColumnarDistTest, SurvivesChaosKillsWithIdenticalOutput) {
  std::mt19937_64 rng(607);
  ValueVec rows = WorkloadInput(/*which=*/3, rng);
  Engine local;
  auto expected = RunWorkload(local, 3, rows, kClosures);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();

  // Two SIGKILLs mid-wave: redistribute, re-dispatch and lineage
  // recovery all replay typed stages on the survivors.
  dist::DistConfig dist_config;
  dist_config.num_workers = 3;
  dist_config.heartbeat_ms = 50;
  dist_config.chaos.kills.push_back({/*stage=*/1, /*worker=*/0, 0});
  dist_config.chaos.kills.push_back({/*stage=*/4, /*worker=*/1, 1});
  dist::Coordinator coordinator(dist_config);
  EngineConfig config;
  config.remote = &coordinator;
  Engine dist(config);
  auto got = RunWorkload(dist, 3, rows);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(Bytes(*got), Bytes(*expected));
  EXPECT_EQ(coordinator.chaos_kills(), 2);
  EXPECT_GE(dist.metrics().total_dist_workers_lost(), 2);
}

}  // namespace
}  // namespace diablo::runtime
