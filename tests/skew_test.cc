// Property tests for runtime skew mitigation (DESIGN.md §17): a salted
// run — hot reduce/combine tasks split across sub-tasks, merged back by
// the un-salt step — must be byte-for-byte identical to the unmitigated
// engine across workloads, partition/thread sweeps, native-op and
// closure routes, typed and boxed row layouts, fused and forced narrow
// prefixes, an ordered std::map model of the operators, fault
// injection, lost-partition lineage recovery, and the multi-process
// distributed backend. Also covers the --profile-in feedback loop: a
// stale profile degrades gracefully to the static plan rules.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/strings.h"
#include "diablo/diablo.h"
#include "dist/coordinator.h"
#include "runtime/engine.h"
#include "runtime/operators.h"
#include "runtime/profile.h"
#include "runtime/serialize.h"

namespace diablo::runtime {
namespace {

Value I(int64_t v) { return Value::MakeInt(v); }
Value D(double v) { return Value::MakeDouble(v); }
Value S(const std::string& v) { return Value::MakeString(v); }

/// (i, j) tuple keys: a key column of them is kBoxed, so every operator
/// over them runs its boxed row layout.
Value TupleKey(int64_t k) { return Value::MakePair(I(k % 10), I(k / 10)); }

/// The key shapes of the combine-split cases: int keys keep reduceByKey
/// on the typed accumulator, tuple keys put it on the boxed one.
const std::pair<const char*, Value (*)(int64_t)> kKeyLayouts[] = {
    {"int keys", I}, {"tuple keys", TupleKey}};

/// Byte-identity oracle: the serialized codec bytes of every collected
/// row, in collection order.
std::string Bytes(Engine& engine, const Dataset& ds) {
  StatusOr<ValueVec> rows = engine.Collect(ds);
  EXPECT_TRUE(rows.ok()) << rows.status().ToString();
  std::string out;
  for (const Value& v : *rows) out += Serialize(v);
  return out;
}

/// A zipf-flavored skewed workload: `hot_share` of the rows land on one
/// hot key, the rest spread over `keys` tail keys. Deterministic (no
/// RNG) so every engine variant sees the same input rows in the same
/// order.
ValueVec SkewedRows(int64_t n, int64_t keys, double hot_share) {
  ValueVec rows;
  rows.reserve(static_cast<size_t>(n));
  auto hot_every = static_cast<int64_t>(1.0 / (1.0 - hot_share));
  for (int64_t i = 0; i < n; ++i) {
    int64_t key = (i % hot_every == 0) ? (i % keys) + 1 : 0;
    rows.push_back(Value::MakePair(I(key), I(i % 1000)));
  }
  return rows;
}

/// Same shape with string keys: exercises the typed string-dictionary
/// shuffle under salting.
ValueVec SkewedStringRows(int64_t n, int64_t keys, double hot_share) {
  ValueVec rows;
  rows.reserve(static_cast<size_t>(n));
  auto hot_every = static_cast<int64_t>(1.0 / (1.0 - hot_share));
  for (int64_t i = 0; i < n; ++i) {
    int64_t key = (i % hot_every == 0) ? (i % keys) + 1 : 0;
    rows.push_back(
        Value::MakePair(S("key-" + std::to_string(key)), I(i % 1000)));
  }
  return rows;
}

/// One source partition of 16000 rows and seven of 200: the map-side
/// combine of partition 0 is the straggler a combine split targets.
std::vector<ValueVec> HotSourceParts(const std::function<Value(int64_t)>& key) {
  std::vector<ValueVec> parts(8);
  for (int64_t i = 0; i < 16000; ++i) {
    parts[0].push_back(Value::MakePair(key(i % 50), I(i % 1000)));
  }
  for (int p = 1; p < 8; ++p) {
    for (int64_t i = 0; i < 200; ++i) {
      parts[p].push_back(Value::MakePair(key(i % 50), I(i)));
    }
  }
  return parts;
}

/// Engine config whose skew thresholds are scaled down so test-sized
/// workloads (tens of thousands of rows, not millions) trip the hot-task
/// detector. Everything else stays at the defaults unless a test
/// overrides it.
EngineConfig SkewTestConfig(bool mitigate) {
  EngineConfig config;
  config.skew.mitigate = mitigate;
  config.skew.min_rows = 512;
  return config;
}

/// Ordered std::map model of the sweep's pipeline — mapValues (value +
/// 1) over the parallelized partitions `src`, then the wide operator.
/// It shares no code with the engine's hash aggregation: a row goes to
/// destination key.Hash() % P, each destination emits its keys in
/// order, groupByKey (`fold` null) bags the values in arrival order, and
/// reduceByKey folds each source partition first and then the partials
/// in source order, as the map-side combine does. Returns the collected
/// rows' codec bytes.
StatusOr<std::string> OrderedModelBytes(const std::vector<ValueVec>& src,
                                        int num_partitions,
                                        const Engine::ReduceFn* fold) {
  auto fold_all = [&](const ValueVec& values) -> StatusOr<Value> {
    Value acc = values[0];
    for (size_t i = 1; i < values.size(); ++i) {
      DIABLO_ASSIGN_OR_RETURN(acc, (*fold)(acc, values[i]));
    }
    return acc;
  };
  std::vector<std::map<Value, ValueVec>> dest(num_partitions);
  for (const ValueVec& part : src) {
    std::map<Value, ValueVec> local;
    for (const Value& row : part) {
      DIABLO_ASSIGN_OR_RETURN(Value value,
                              EvalBinOp(BinOp::kAdd, row.tuple()[1], I(1)));
      local[row.tuple()[0]].push_back(std::move(value));
    }
    for (const auto& [key, values] : local) {
      ValueVec& into = dest[key.Hash() % static_cast<size_t>(num_partitions)]
                           [key];
      if (fold == nullptr) {
        into.insert(into.end(), values.begin(), values.end());
      } else {
        DIABLO_ASSIGN_OR_RETURN(Value partial, fold_all(values));
        into.push_back(std::move(partial));
      }
    }
  }
  std::string out;
  for (const auto& groups : dest) {
    for (const auto& [key, values] : groups) {
      Value folded = Value::MakeBag(values);
      if (fold != nullptr) {
        DIABLO_ASSIGN_OR_RETURN(folded, fold_all(values));
      }
      out += Serialize(Value::MakePair(key, folded));
    }
  }
  return out;
}

StatusOr<Value> Add(const Value& a, const Value& b) {
  return EvalBinOp(BinOp::kAdd, a, b);
}

/// (k, v) -> (k, v ⊕ operand) over pair rows, labelled as the mapValues
/// stage it stands for.
StatusOr<Dataset> MapPairValues(Engine& engine, const Dataset& in, BinOp op,
                                const Value& operand) {
  return engine.Map(
      in,
      [op, operand](const Value& row) -> StatusOr<Value> {
        DIABLO_ASSIGN_OR_RETURN(Value v,
                                EvalBinOp(op, row.tuple()[1], operand));
        return Value::MakePair(row.tuple()[0], std::move(v));
      },
      "mapValues");
}

/// The combine-split workload: reduceByKey (+) over `parts` (default
/// HotSourceParts with int keys) behind a forced mapValues (value + 1),
/// with the int64 value schema the planner would infer. The forced
/// prefix gives lost-partition directives a lineage to recompute.
StatusOr<Dataset> ReduceHotSource(
    Engine& engine, std::vector<ValueVec> parts = HotSourceParts(I)) {
  DIABLO_ASSIGN_OR_RETURN(
      Dataset shifted,
      MapPairValues(engine, Dataset(std::move(parts)), BinOp::kAdd, I(1)));
  DIABLO_ASSIGN_OR_RETURN(Dataset in, engine.Force(shifted));
  ColumnSchema schema;
  schema.value = ColumnTag::kInt64;
  return engine.ReduceByKey(in, BinOp::kAdd, "reduceByKey", schema);
}

/// Runs ReduceHotSource on `config` for each key layout and expects the
/// bytes of the unmitigated fault-free run, with the combine actually
/// split.
void ExpectHotSourceSplitExact(const EngineConfig& config) {
  for (const auto& [layout, key] : kKeyLayouts) {
    SCOPED_TRACE(layout);
    Engine plain(SkewTestConfig(/*mitigate=*/false));
    StatusOr<Dataset> expected = ReduceHotSource(plain, HotSourceParts(key));
    ASSERT_TRUE(expected.ok()) << expected.status().ToString();
    const std::string want = Bytes(plain, *expected);
    Engine engine(config);
    StatusOr<Dataset> got = ReduceHotSource(engine, HotSourceParts(key));
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(Bytes(engine, *got), want);
    EXPECT_GT(engine.metrics().total_salt_fanout(), 0)
        << engine.metrics().Report();
  }
}

struct SkewCase {
  int partitions;
  int threads;
  /// The native-op route (true: reduceByKey with a built-in op, which
  /// runs typed where the rows allow) or the closure route (the same
  /// fold as a closure, boxed by construction).
  bool native_ops;
  /// The narrow prefix ahead of the wide operator (SkewMatrixTest::Input)
  /// fuses into the operator's combine wave; false materializes it in a
  /// stage of its own first (Engine::Force, the eager reference).
  bool fuse;
  /// The unmitigated engine's bytes are the expectation; false takes
  /// them from OrderedModelBytes (std::map aggregation, no hash table),
  /// which the unmitigated engine must then match too.
  bool hash_agg;
};

std::string CaseName(const ::testing::TestParamInfo<SkewCase>& info) {
  const SkewCase& c = info.param;
  std::string name = StrCat("p", c.partitions, "_t", c.threads);
  name += c.native_ops ? "_columnar" : "_boxed";
  if (!c.fuse) name += "_nofuse";
  if (!c.hash_agg) name += "_nohashagg";
  return name;
}

class SkewMatrixTest : public ::testing::TestWithParam<SkewCase> {
 protected:
  using WideOp = std::function<StatusOr<Dataset>(Engine&, const Dataset&)>;

  EngineConfig Config(bool mitigate) const {
    EngineConfig config = SkewTestConfig(mitigate);
    config.num_partitions = GetParam().partitions;
    config.host_threads = GetParam().threads;
    return config;
  }

  /// The wide operator's input: `rows` parallelized, then mapValues
  /// (value + 1) — fused into the operator, or forced first.
  StatusOr<Dataset> Input(Engine& engine, const ValueVec& rows) const {
    DIABLO_ASSIGN_OR_RETURN(
        Dataset shifted,
        MapPairValues(engine, engine.Parallelize(rows), BinOp::kAdd, I(1)));
    if (GetParam().fuse) return shifted;
    return engine.Force(shifted);
  }

  /// reduceByKey (+) on the case's route.
  WideOp ReduceAdd() const {
    if (GetParam().native_ops) {
      return [](Engine& e, const Dataset& in) {
        return e.ReduceByKey(in, BinOp::kAdd);
      };
    }
    return [](Engine& e, const Dataset& in) { return e.ReduceByKey(in, Add); };
  }

  /// Runs `op` over Input(rows) on an unmitigated and on a salted engine
  /// and expects the same bytes from both; without `hash_agg`, the
  /// ordered model of `fold` (null = groupByKey) must agree as well.
  void ExpectSaltingExact(const ValueVec& rows, const WideOp& op,
                          const Engine::ReduceFn* fold) {
    Engine plain(Config(/*mitigate=*/false));
    StatusOr<Dataset> plain_in = Input(plain, rows);
    ASSERT_TRUE(plain_in.ok()) << plain_in.status().ToString();
    StatusOr<Dataset> expected = op(plain, *plain_in);
    ASSERT_TRUE(expected.ok()) << expected.status().ToString();
    std::string want = Bytes(plain, *expected);
    EXPECT_EQ(plain.metrics().total_salt_fanout(), 0);
    // A forced prefix is a stage of its own; a fused one rides inside
    // the operator's first stage.
    ASSERT_FALSE(plain.metrics().stages().empty());
    EXPECT_EQ(plain.metrics().stages().front().label == "mapValues",
              !GetParam().fuse);
    if (!GetParam().hash_agg) {
      StatusOr<std::string> model = OrderedModelBytes(
          plain.Parallelize(rows).partitions(), GetParam().partitions, fold);
      ASSERT_TRUE(model.ok()) << model.status().ToString();
      EXPECT_EQ(want, *model) << "unmitigated engine vs ordered model";
    }

    Engine salted(Config(/*mitigate=*/true));
    StatusOr<Dataset> salted_in = Input(salted, rows);
    ASSERT_TRUE(salted_in.ok()) << salted_in.status().ToString();
    StatusOr<Dataset> got = op(salted, *salted_in);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(Bytes(salted, *got), want);
  }
};

TEST_P(SkewMatrixTest, ReduceByKeyByteIdentical) {
  // Whether this configuration actually salts depends on how the
  // map-side combine flattens the skew; the counter tests below pin
  // workloads that provably do. Here only byte-identity matters.
  const Engine::ReduceFn add = Add;
  ExpectSaltingExact(SkewedRows(20000, 64, 0.8), ReduceAdd(), &add);
}

TEST_P(SkewMatrixTest, GroupByKeyByteIdentical) {
  ExpectSaltingExact(
      SkewedRows(12000, 32, 0.9),
      [](Engine& e, const Dataset& in) { return e.GroupByKey(in); }, nullptr);
}

TEST_P(SkewMatrixTest, UserReduceFnByteIdentical) {
  // A black-box (non-native) ReduceFn forces the generic reduce path:
  // combine tasks must not chunk-split (the fold is not provably
  // bit-associative), but hash-stripe salting of the reduce wave still
  // applies and must stay exact.
  const Engine::ReduceFn max_fn = [](const Value& a,
                                     const Value& b) -> StatusOr<Value> {
    return a.AsInt() >= b.AsInt() ? a : b;
  };
  ExpectSaltingExact(
      SkewedRows(16000, 48, 0.85),
      [&](Engine& e, const Dataset& in) { return e.ReduceByKey(in, max_fn); },
      &max_fn);
}

TEST_P(SkewMatrixTest, StringKeysByteIdentical) {
  const Engine::ReduceFn add = Add;
  ExpectSaltingExact(SkewedStringRows(15000, 40, 0.8), ReduceAdd(), &add);
}

TEST_P(SkewMatrixTest, DoublePayloadByteIdentical) {
  // Double payloads are excluded from combine-task chunk splitting (fp
  // addition is not associative); only the exact salting mechanisms may
  // engage, and the result must not drift by one ulp.
  ValueVec rows;
  for (int64_t i = 0; i < 12000; ++i) {
    int64_t key = (i % 5 == 0) ? (i % 30) + 1 : 0;
    rows.push_back(Value::MakePair(I(key), D(0.1 * static_cast<double>(i % 97))));
  }
  const Engine::ReduceFn add = Add;
  ExpectSaltingExact(rows, ReduceAdd(), &add);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SkewMatrixTest,
    ::testing::Values(SkewCase{1, 1, true, true, true},
                      SkewCase{4, 1, true, true, true},
                      SkewCase{8, 4, true, true, true},
                      SkewCase{8, 4, false, true, true},
                      SkewCase{8, 1, true, false, true},
                      SkewCase{8, 1, true, true, false},
                      SkewCase{5, 2, false, false, false}),
    CaseName);

TEST(SkewFaultTest, FaultInjectionByteIdentical) {
  ValueVec rows = SkewedRows(20000, 64, 0.8);

  Engine clean(SkewTestConfig(/*mitigate=*/false));
  StatusOr<Dataset> expected =
      clean.ReduceByKey(clean.Parallelize(rows), BinOp::kAdd);
  ASSERT_TRUE(expected.ok());
  std::string want = Bytes(clean, *expected);

  EngineConfig faulty = SkewTestConfig(/*mitigate=*/true);
  faulty.faults.seed = 17;
  faulty.faults.task_failure_rate = 0.15;
  Engine engine(faulty);
  StatusOr<Dataset> got =
      engine.ReduceByKey(engine.Parallelize(rows), BinOp::kAdd);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(Bytes(engine, *got), want);
  EXPECT_GT(engine.metrics().total_attempts(),
            clean.metrics().total_attempts());

  // A combine split under injected kills, on both layouts.
  ExpectHotSourceSplitExact(faulty);
}

TEST(SkewFaultTest, LostPartitionRecoveryByteIdentical) {
  ValueVec rows = SkewedRows(18000, 50, 0.85);

  Engine clean(SkewTestConfig(/*mitigate=*/false));
  StatusOr<Dataset> expected = clean.GroupByKey(clean.Parallelize(rows));
  ASSERT_TRUE(expected.ok());
  std::string want = Bytes(clean, *expected);

  // Lose input partitions of the first stages: the lineage recompute
  // replays the producer, and the salted reduce wave runs over the
  // rebuilt rows exactly as over the originals.
  EngineConfig faulty = SkewTestConfig(/*mitigate=*/true);
  faulty.faults.lose_partitions.push_back({0, 0, 0});
  faulty.faults.lose_partitions.push_back({1, 1, 0});
  Engine engine(faulty);
  StatusOr<Dataset> got = engine.GroupByKey(engine.Parallelize(rows));
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(Bytes(engine, *got), want);

  // Lose the hot source partition (and a cold one) of the combine stage
  // (stage 1, after the forced prefix): it is rebuilt from lineage, then
  // combined in chunks.
  EngineConfig lossy = SkewTestConfig(/*mitigate=*/true);
  lossy.faults.lose_partitions.push_back({1, 0, 0});
  lossy.faults.lose_partitions.push_back({1, 3, 0});
  ExpectHotSourceSplitExact(lossy);
}

TEST(SkewFaultTest, SerializedShufflesByteIdentical) {
  ValueVec rows = SkewedRows(16000, 64, 0.8);

  Engine plain(SkewTestConfig(/*mitigate=*/false));
  StatusOr<Dataset> expected =
      plain.ReduceByKey(plain.Parallelize(rows), BinOp::kMax);
  ASSERT_TRUE(expected.ok());
  std::string want = Bytes(plain, *expected);

  EngineConfig wire = SkewTestConfig(/*mitigate=*/true);
  wire.serialize_shuffles = true;
  Engine engine(wire);
  StatusOr<Dataset> got =
      engine.ReduceByKey(engine.Parallelize(rows), BinOp::kMax);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(Bytes(engine, *got), want);

  // A combine split whose partials cross the wire format, with payload
  // corruption retried.
  wire.faults.seed = 5;
  wire.faults.corrupt_shuffle_rate = 0.01;
  ExpectHotSourceSplitExact(wire);
}

TEST(SkewDistTest, DistWorkersWithChaosByteIdentical) {
  ValueVec rows = SkewedRows(16000, 64, 0.8);

  Engine local(SkewTestConfig(/*mitigate=*/false));
  StatusOr<Dataset> expected =
      local.ReduceByKey(local.Parallelize(rows), BinOp::kAdd);
  ASSERT_TRUE(expected.ok());
  std::string want = Bytes(local, *expected);

  dist::DistConfig dist_config;
  dist_config.num_workers = 2;
  dist_config.heartbeat_ms = 50;
  dist_config.chaos.kills.push_back({/*stage=*/1, /*worker=*/0, 0});
  dist::Coordinator coordinator(dist_config);
  EngineConfig config = SkewTestConfig(/*mitigate=*/true);
  config.remote = &coordinator;
  Engine engine(config);
  StatusOr<Dataset> got =
      engine.ReduceByKey(engine.Parallelize(rows), BinOp::kAdd);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(Bytes(engine, *got), want);
  EXPECT_GT(engine.metrics().total_dist_tasks(), 0);

  // A combine split over worker processes, with a worker killed in the
  // combine wave (stage 1, after the forced prefix).
  ExpectHotSourceSplitExact(config);
}

TEST(SkewCountersTest, GroupByKeyHotKeySalts) {
  // 90% of rows on one key: its destination carries ~10800 of 12000
  // rows against a wave mean of 1500 — far past ratio 4 — so the
  // groupByKey reduce wave must chunk-split, and the hot key's bag is
  // reassembled from several sub-tasks (salted_keys records the folds).
  ValueVec rows = SkewedRows(12000, 32, 0.9);

  Engine plain(SkewTestConfig(/*mitigate=*/false));
  std::string want = Bytes(plain, *plain.GroupByKey(plain.Parallelize(rows)));

  Engine salted(SkewTestConfig(/*mitigate=*/true));
  StatusOr<Dataset> got = salted.GroupByKey(salted.Parallelize(rows));
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(Bytes(salted, *got), want);
  EXPECT_GT(salted.metrics().total_salt_fanout(), 0)
      << salted.metrics().Report();
  EXPECT_GT(salted.metrics().total_salted_keys(), 0);
}

TEST(SkewCountersTest, ReduceByKeyImbalancedPartitionsSplitCombine) {
  // One source partition holds 16k rows, the other seven 200 each: the
  // map-side combine wave is the straggler, and the combine-split
  // mechanism (exact for native int64 +) must split it.
  // Combine-splitting requires a plan-time-proven int64 fold: pass the
  // value schema the planner would have inferred for these rows.
  ColumnSchema schema;
  schema.value = ColumnTag::kInt64;

  // Both row layouts: int keys stay typed, tuple keys go boxed.
  for (const auto& [layout, key] : kKeyLayouts) {
    SCOPED_TRACE(layout);
    const std::vector<ValueVec> parts = HotSourceParts(key);
    Engine plain(SkewTestConfig(/*mitigate=*/false));
    std::string want = Bytes(
        plain, *plain.ReduceByKey(Dataset(parts), BinOp::kAdd, "reduceByKey",
                                  schema));

    Engine salted(SkewTestConfig(/*mitigate=*/true));
    StatusOr<Dataset> got =
        salted.ReduceByKey(Dataset(parts), BinOp::kAdd, "reduceByKey", schema);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(Bytes(salted, *got), want);
    EXPECT_GT(salted.metrics().total_salt_fanout(), 0)
        << salted.metrics().Report();
  }
}

TEST(SkewCountersTest, DirtyCombineChunkFallsBackExactly) {
  // The plan claims int64 values, but one chunk of the hot partition
  // folds a double: that chunk's partials are not exactly re-mergeable,
  // so the whole partition re-runs unsplit — on either layout the bytes
  // are those of the unmitigated run.
  for (const auto& [layout, key] : kKeyLayouts) {
    SCOPED_TRACE(layout);
    std::vector<ValueVec> parts = HotSourceParts(key);
    parts[0][9000] = Value::MakePair(key(0), D(0.5));
    Engine plain(SkewTestConfig(/*mitigate=*/false));
    StatusOr<Dataset> expected = ReduceHotSource(plain, parts);
    ASSERT_TRUE(expected.ok()) << expected.status().ToString();
    Engine salted(SkewTestConfig(/*mitigate=*/true));
    StatusOr<Dataset> got = ReduceHotSource(salted, parts);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(Bytes(salted, *got), Bytes(plain, *expected));
  }
}

TEST(SkewCountersTest, Int64OverflowWrapsOnBothLayoutsAndSplitCombines) {
  // Sums that overflow int64 wrap (Scala Long semantics), identically in
  // the typed and the boxed fold — and a combine split stays exact,
  // because wrapping + and * are bit-associative.
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  ColumnSchema schema;
  schema.value = ColumnTag::kInt64;
  // Int keys fold on the typed accumulator, tuple keys on the boxed one;
  // both must wrap to the same values.
  for (const auto& [layout, key] : kKeyLayouts) {
    const ValueVec small = {
        Value::MakePair(key(0), I(kMax)), Value::MakePair(key(0), I(1)),
        Value::MakePair(key(1), I(kMin)), Value::MakePair(key(1), I(-1))};
    std::vector<ValueVec> hot(8);
    for (int64_t i = 0; i < 16000; ++i) {
      hot[0].push_back(Value::MakePair(key(i % 50), I(kMax - i % 7)));
    }
    for (int p = 1; p < 8; ++p) {
      hot[p].push_back(Value::MakePair(key(p), I(kMin)));
    }
    std::string want_small, want_hot;
    for (bool mitigate : {false, true}) {
      SCOPED_TRACE(std::string(layout) + (mitigate ? " salted" : ""));
      Engine engine(SkewTestConfig(mitigate));
      StatusOr<Dataset> sums =
          engine.ReduceByKey(engine.Parallelize(small), BinOp::kAdd);
      ASSERT_TRUE(sums.ok()) << sums.status().ToString();
      StatusOr<ValueVec> rows = engine.Collect(*sums);
      ASSERT_TRUE(rows.ok());
      std::map<Value, int64_t> by_key;
      for (const Value& r : *rows) {
        by_key[r.tuple()[0]] = r.tuple()[1].AsInt();
      }
      EXPECT_EQ(by_key[key(0)], kMin);  // INT64_MAX + 1
      EXPECT_EQ(by_key[key(1)], kMax);  // INT64_MIN - 1
      StatusOr<Dataset> products = engine.ReduceByKey(
          engine.Parallelize({Value::MakePair(key(2), I(kMin)),
                              Value::MakePair(key(2), I(-1))}),
          BinOp::kMul);
      ASSERT_TRUE(products.ok()) << products.status().ToString();
      StatusOr<Value> product = engine.First(*products);
      ASSERT_TRUE(product.ok());
      // INT64_MIN * -1, which is also -INT64_MIN.
      EXPECT_EQ(product->tuple()[1].AsInt(), kMin);
      const std::string small_bytes = Bytes(engine, *sums);
      if (want_small.empty()) want_small = small_bytes;
      EXPECT_EQ(small_bytes, want_small);

      StatusOr<Dataset> big =
          engine.ReduceByKey(Dataset(hot), BinOp::kAdd, "reduceByKey", schema);
      ASSERT_TRUE(big.ok()) << big.status().ToString();
      const std::string hot_bytes = Bytes(engine, *big);
      if (want_hot.empty()) want_hot = hot_bytes;
      EXPECT_EQ(hot_bytes, want_hot);
      EXPECT_EQ(engine.metrics().total_salt_fanout() > 0, mitigate);
    }
  }
}

TEST(SkewCountersTest, ReduceByKeyHotDestinationStripes) {
  // Keys picked so they all hash to reduce destination 0 (with 8
  // partitions): every combined row converges on one reduce task, which
  // must hash-stripe into sub-tasks. Distinct keys stay intact under
  // striping, so any ReduceFn is safe; here the native op suffices.
  std::vector<int64_t> hot_keys;
  for (int64_t k = 0; hot_keys.size() < 3000; ++k) {
    if (I(k).Hash() % 8 == 0) hot_keys.push_back(k);
  }
  ValueVec rows;
  for (int rep = 0; rep < 2; ++rep) {
    for (int64_t k : hot_keys) {
      rows.push_back(Value::MakePair(I(k), I(k % 1000)));
    }
  }

  EngineConfig base = SkewTestConfig(/*mitigate=*/false);
  base.num_partitions = 8;
  Engine plain(base);
  std::string want =
      Bytes(plain, *plain.ReduceByKey(plain.Parallelize(rows), BinOp::kAdd));

  EngineConfig cfg = SkewTestConfig(/*mitigate=*/true);
  cfg.num_partitions = 8;
  Engine salted(cfg);
  StatusOr<Dataset> got =
      salted.ReduceByKey(salted.Parallelize(rows), BinOp::kAdd);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(Bytes(salted, *got), want);
  EXPECT_GT(salted.metrics().total_salt_fanout(), 0)
      << salted.metrics().Report();
}

TEST(SkewCountersTest, SmallWavesNeverSalt) {
  // Default thresholds: tier-1-sized data stays untouched, so existing
  // stage accounting (and every small-data golden) is unchanged.
  EngineConfig config;  // default skew thresholds
  Engine engine(config);
  ValueVec rows = SkewedRows(2000, 16, 0.9);
  StatusOr<Dataset> got =
      engine.ReduceByKey(engine.Parallelize(rows), BinOp::kAdd);
  ASSERT_TRUE(got.ok());
  (void)Bytes(engine, *got);
  EXPECT_EQ(engine.metrics().total_salt_fanout(), 0);
  EXPECT_EQ(engine.metrics().total_salted_keys(), 0);
}

TEST(SkewCountersTest, StringKeyShuffleStaysTyped) {
  // The typed string-dictionary shuffle (per-destination re-interning)
  // must keep string-keyed reduceByKey on the columnar path: no stage
  // reports fallback rows.
  EngineConfig config = SkewTestConfig(/*mitigate=*/true);
  Engine engine(config);
  ValueVec rows = SkewedStringRows(15000, 40, 0.8);
  StatusOr<Dataset> got =
      engine.ReduceByKey(engine.Parallelize(rows), BinOp::kAdd);
  ASSERT_TRUE(got.ok());
  (void)Bytes(engine, *got);
  for (const StageStats& s : engine.metrics().stages()) {
    if (s.label.find("reduceByKey") == std::string::npos) continue;
    EXPECT_EQ(s.columnar_rows_fallback, 0)
        << "stage '" << s.label << "' fell back to boxed rows";
  }
}

// ---- wide-stage accounting golden ----
//
// Pins every deterministic StageStats field of the five wide operators
// across skew mitigation on/off (with inputs that chunk-split
// groupByKey, combine-split reduceByKey and stripe reduceByKey) and
// fault-free vs faults plus wire-format shuffles. Wall-clock times and
// memory watermarks are left out (regenerate with DIABLO_REGOLD=1).

/// 6000 rows over 3000 int keys that all hash to destination 0 of 8:
/// one reduce task receives everything, so its wave stripes.
ValueVec HotDestinationRows() {
  std::vector<int64_t> hot_keys;
  for (int64_t k = 0; hot_keys.size() < 3000; ++k) {
    if (I(k).Hash() % 8 == 0) hot_keys.push_back(k);
  }
  ValueVec rows;
  for (int rep = 0; rep < 2; ++rep) {
    for (int64_t k : hot_keys) {
      rows.push_back(Value::MakePair(I(k), I(k % 1000)));
    }
  }
  return rows;
}

ValueVec ModPairs(int64_t n, int64_t keys, int64_t scale) {
  ValueVec rows;
  for (int64_t i = 0; i < n; ++i) {
    rows.push_back(Value::MakePair(I(i % keys), I(i * scale)));
  }
  return rows;
}

std::string JoinInts(const std::vector<int64_t>& xs) {
  std::string out = "[";
  for (size_t i = 0; i < xs.size(); ++i) {
    if (i > 0) out += ",";
    out += std::to_string(xs[i]);
  }
  return out + "]";
}

std::string DumpStage(const StageStats& s) {
  std::string out = "  " + s.label + "\n";
  auto field = [&](const char* name, const std::string& v) {
    out += std::string("    ") + name + "=" + v + "\n";
  };
  field("map_work", JoinInts(s.map_work));
  field("reduce_work", JoinInts(s.reduce_work));
  field("shuffle_bytes", std::to_string(s.shuffle_bytes));
  field("partition_rows", JoinInts(s.partition_rows));
  field("partition_bytes", JoinInts(s.partition_bytes));
  field("attempts", std::to_string(s.attempts));
  field("fused_ops", std::to_string(s.fused_ops));
  field("hash_agg", std::to_string(s.hash_agg_rows) + " rows, " +
                        std::to_string(s.hash_agg_keys) + " keys");
  field("columnar", std::to_string(s.columnar_batches) + " batches, " +
                        std::to_string(s.columnar_rows_fallback) +
                        " rows_fallback");
  field("salt", std::to_string(s.salted_keys) + " salted_keys, " +
                    std::to_string(s.salt_fanout) + " fanout");
  return out;
}

TEST(WideAccountingGolden, StageStatsMatchGolden) {
  using WideRun = std::function<StatusOr<Dataset>(Engine&)>;
  // Every keyed input gets a mapValues (value + 1) that fuses into the
  // operator's first wave.
  auto shifted = [](Engine& e, Dataset in) {
    return MapPairValues(e, in, BinOp::kAdd, I(1));
  };
  ColumnSchema int_values;
  int_values.value = ColumnTag::kInt64;
  const Engine::ReduceFn max_fn = [](const Value& a,
                                     const Value& b) -> StatusOr<Value> {
    return a.AsInt() >= b.AsInt() ? a : b;
  };
  auto reduce_hot_source = [&](std::function<Value(int64_t)> key) -> WideRun {
    return [&, key](Engine& e) -> StatusOr<Dataset> {
      DIABLO_ASSIGN_OR_RETURN(Dataset in,
                              shifted(e, Dataset(HotSourceParts(key))));
      return e.ReduceByKey(in, BinOp::kAdd, "reduceByKey", int_values);
    };
  };
  const std::vector<std::pair<std::string, WideRun>> ops = {
      {"groupByKey_chunks",
       [&](Engine& e) -> StatusOr<Dataset> {
         DIABLO_ASSIGN_OR_RETURN(
             Dataset in, shifted(e, e.Parallelize(SkewedRows(12000, 32, 0.9))));
         return e.GroupByKey(in);
       }},
      {"reduceByKey_int_combine_split", reduce_hot_source(I)},
      {"reduceByKey_string_combine_split",
       reduce_hot_source(
           [](int64_t k) { return S("key-" + std::to_string(k)); })},
      {"reduceByKey_tuple_combine_split", reduce_hot_source(TupleKey)},
      {"reduceByKey_int_stripes",
       [&](Engine& e) -> StatusOr<Dataset> {
         DIABLO_ASSIGN_OR_RETURN(
             Dataset in, shifted(e, e.Parallelize(HotDestinationRows())));
         return e.ReduceByKey(in, BinOp::kAdd);
       }},
      {"reduceByKey_userfn_stripes",
       [&](Engine& e) -> StatusOr<Dataset> {
         DIABLO_ASSIGN_OR_RETURN(
             Dataset in, shifted(e, e.Parallelize(HotDestinationRows())));
         return e.ReduceByKey(in, max_fn);
       }},
      {"join",
       [&](Engine& e) -> StatusOr<Dataset> {
         DIABLO_ASSIGN_OR_RETURN(
             Dataset l, shifted(e, e.Parallelize(ModPairs(2000, 200, 1))));
         return e.Join(l, e.Parallelize(ModPairs(1500, 300, 2)));
       }},
      {"coGroup",
       [&](Engine& e) -> StatusOr<Dataset> {
         DIABLO_ASSIGN_OR_RETURN(
             Dataset l, shifted(e, e.Parallelize(ModPairs(2000, 200, 1))));
         return e.CoGroup(l, e.Parallelize(ModPairs(1500, 300, 2)));
       }},
  };

  std::string got;
  for (const auto& [name, run] : ops) {
    for (bool mitigate : {false, true}) {
      for (bool faults : {false, true}) {
        EngineConfig config = SkewTestConfig(mitigate);
        if (faults) {
          config.serialize_shuffles = true;
          config.faults.seed = 23;
          config.faults.task_failure_rate = 0.1;
          config.faults.corrupt_shuffle_rate = 0.0005;
          config.faults.max_task_attempts = 8;
        }
        Engine engine(config);
        StatusOr<Dataset> out = run(engine);
        ASSERT_TRUE(out.ok()) << name << ": " << out.status().ToString();
        got += "== " + name + " mitigate=" + std::to_string(mitigate) +
               " faults=" + std::to_string(faults) + "\n";
        for (const StageStats& s : engine.metrics().stages()) {
          got += DumpStage(s);
        }
      }
    }
  }

  const std::string golden_path =
      std::string(GOLDEN_DIR) + "/wide_stage_stats.txt";
  if (std::getenv("DIABLO_REGOLD") != nullptr) {
    std::ofstream out(golden_path);
    ASSERT_TRUE(out.good()) << "cannot write " << golden_path;
    out << got;
    GTEST_SKIP() << "regenerated " << golden_path;
  }
  std::ifstream in(golden_path);
  ASSERT_TRUE(in.good()) << "missing golden file " << golden_path
                         << " (regenerate with DIABLO_REGOLD=1)";
  std::ostringstream want;
  want << in.rdbuf();
  EXPECT_EQ(got, want.str())
      << "wide-stage accounting changed; if intended, rerun with "
         "DIABLO_REGOLD=1";
}

// ---- boxed columns through every operator ----

TEST(BoxedColumnsTest, EveryOperatorMatchesClosureRoute) {
  // Tuple keys make every scatter's key column kBoxed, and payloads that
  // mix int and double make the native reduceByKey's typed combine spill
  // to the boxed accumulator. Each of the four wide operators must still
  // match the closure route, which is boxed by construction, byte for
  // byte — also when lost partitions are rebuilt from lineage: the
  // forced chain under the wide operator, and the wide operator itself
  // under the closing stage.
  ValueVec rows;
  for (int64_t i = 0; i < 3000; ++i) {
    rows.push_back(Value::MakePair(
        TupleKey(i % 40), i % 3 == 0 ? I(i % 100) : D(0.5 * (i % 50))));
  }
  ValueVec other;
  for (int64_t j = 0; j < 60; ++j) {
    other.push_back(Value::MakePair(TupleKey(j), I(j)));
  }
  using Op = std::function<StatusOr<Dataset>(Engine&, const Dataset&,
                                             bool native_ops)>;
  const std::vector<std::pair<std::string, Op>> ops = {
      {"groupByKey",
       [](Engine& e, const Dataset& in, bool) { return e.GroupByKey(in); }},
      {"reduceByKey",
       [](Engine& e, const Dataset& in, bool native_ops) {
         return native_ops ? e.ReduceByKey(in, BinOp::kAdd)
                           : e.ReduceByKey(in, Add);
       }},
      {"join",
       [&](Engine& e, const Dataset& in, bool) {
         return e.Join(in, e.Parallelize(other));
       }},
      {"coGroup",
       [&](Engine& e, const Dataset& in, bool) {
         return e.CoGroup(in, e.Parallelize(other));
       }},
  };
  // A forced mapValues+filter chain, the operator, then a closure stage
  // over its output (a loss there recomputes the operator's partitions).
  auto run = [&](Engine& e, const Op& op,
                 bool native_ops) -> StatusOr<std::string> {
    DIABLO_ASSIGN_OR_RETURN(
        Dataset in, MapPairValues(e, e.Parallelize(rows), BinOp::kMul, I(2)));
    DIABLO_ASSIGN_OR_RETURN(
        in, e.Filter(in, [](const Value& row) -> StatusOr<bool> {
          DIABLO_ASSIGN_OR_RETURN(
              Value keep, EvalBinOp(BinOp::kGe, row.tuple()[1], D(3.0)));
          return keep.AsBool();
        }));
    DIABLO_ASSIGN_OR_RETURN(in, e.Force(in));
    DIABLO_ASSIGN_OR_RETURN(Dataset out, op(e, in, native_ops));
    DIABLO_ASSIGN_OR_RETURN(
        out, e.Map(out, [](const Value& v) -> StatusOr<Value> { return v; }));
    DIABLO_ASSIGN_OR_RETURN(out, e.Force(out));
    return Bytes(e, out);
  };
  EngineConfig lossy;
  for (int stage = 0; stage < 12; ++stage) {
    for (int input : {0, 1}) {
      lossy.faults.lose_partitions.push_back({stage, 3, input});
    }
  }
  for (const auto& [name, op] : ops) {
    SCOPED_TRACE(name);
    Engine closures;
    StatusOr<std::string> want = run(closures, op, /*native_ops=*/false);
    ASSERT_TRUE(want.ok()) << want.status().ToString();

    Engine native;
    StatusOr<std::string> got = run(native, op, /*native_ops=*/true);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(*got, *want);
    // The operator's boxed key column (or spilled typed combine).
    const std::vector<StageStats>& stages = native.metrics().stages();
    EXPECT_TRUE(std::any_of(stages.begin(), stages.end(),
                            [](const StageStats& s) {
                              return s.wide && s.columnar_rows_fallback > 0;
                            }))
        << native.metrics().Report();

    Engine recovering(lossy);
    StatusOr<std::string> rebuilt = run(recovering, op, /*native_ops=*/true);
    ASSERT_TRUE(rebuilt.ok()) << rebuilt.status().ToString();
    EXPECT_EQ(*rebuilt, *want);
    EXPECT_GT(recovering.metrics().total_recomputed_partitions(), 0);
  }
}

// ---- profile feedback: graceful degradation on stale profiles ----

constexpr char kJoinProgram[] = R"(
var n: int = 8;
var W: vector[double] = vector();
for i = 0, n - 1 do
  W[i] := 0.5 * i;
var S: vector[double] = vector();
for i = 0, n - 1 do
  S[i] += V[i] * W[i];
)";

Bindings JoinInputs() {
  ValueVec v;
  for (int64_t i = 0; i < 8; ++i) {
    v.push_back(Value::MakePair(I(i), D(static_cast<double>(i) + 0.5)));
  }
  return {{"V", Value::MakeBag(std::move(v))}};
}

TEST(ProfileFeedbackTest, StaleProfileDegradesGracefully) {
  // A profile whose provenance matches nothing (different file, lines):
  // every FindStage lookup misses, all decisions stay static, and the
  // run's bytes are untouched.
  auto profile = ProfileData::Parse(R"({
    "schema_version": 3, "program": "other.diablo",
    "totals": {},
    "stages": [
      {"label": "join[Z]",
       "location": {"file": "other.diablo", "line": 99, "column": 1},
       "map_work": 10, "reduce_work": 10, "shuffle_bytes": 123456,
       "hash_agg_keys": 7}
    ]})");
  ASSERT_TRUE(profile.ok()) << profile.status().ToString();
  EXPECT_EQ(profile->FindStage("join.diablo", 7, 3, "join[W]"), nullptr);

  auto compiled = Compile(kJoinProgram);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();

  Engine plain((EngineConfig()));
  auto base = diablo::Run(*compiled, &plain, JoinInputs());
  ASSERT_TRUE(base.ok()) << base.status().ToString();
  auto base_s = base->Array("S");
  ASSERT_TRUE(base_s.ok());

  Engine fed((EngineConfig()));
  RunOptions options;
  options.profile = &profile.value();
  auto run = diablo::Run(*compiled, &fed, JoinInputs(), options);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  auto fed_s = run->Array("S");
  ASSERT_TRUE(fed_s.ok());
  EXPECT_EQ(Serialize(*fed_s), Serialize(*base_s));
  // Stale: not a single profile-fed decision fired.
  EXPECT_EQ(fed.metrics().total_cost_decisions(), 0);
}

TEST(ProfileFeedbackTest, MalformedProfileIsAnError) {
  EXPECT_FALSE(ProfileData::Parse("{not json").ok());
  EXPECT_FALSE(ProfileData::Parse(R"({"schema_version": 3})").ok());
  // A count no int64 holds is an error naming the stage and the key,
  // not a float-to-integer conversion overflow.
  auto huge = ProfileData::Parse(
      R"({"schema_version":4,"stages":[{"label":"x","map_work":1e300}]})");
  ASSERT_FALSE(huge.ok());
  EXPECT_EQ(huge.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(huge.status().message().find("stage 0 \"map_work\""),
            std::string::npos)
      << huge.status().ToString();
  auto infinite = ProfileData::Parse(
      R"({"schema_version":4,"stages":[{"label":"x","map_work":1},)"
      R"({"label":"y","partitions":{"rows":[1,1e999]}}]})");
  ASSERT_FALSE(infinite.ok());
  EXPECT_NE(infinite.status().message().find("stage 1 \"partitions.rows\""),
            std::string::npos)
      << infinite.status().ToString();
}

TEST(ProfileFeedbackTest, RecommendPartitionsFallsBackWithoutRows) {
  auto empty = ProfileData::Parse(
      R"({"schema_version": 3, "program": "p", "stages": []})");
  ASSERT_TRUE(empty.ok());
  EXPECT_EQ(RecommendPartitions(*empty, 4, 8), 8);
}

}  // namespace
}  // namespace diablo::runtime
