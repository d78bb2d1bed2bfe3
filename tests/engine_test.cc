// Unit and property tests for the distributed engine: every operator is
// checked against a naive std:: reference, across partition counts and
// host thread counts (parameterized sweeps).

#include "runtime/engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>

#include "common/strings.h"
#include "runtime/operators.h"

namespace diablo::runtime {
namespace {

Value I(int64_t v) { return Value::MakeInt(v); }

ValueVec SortedRows(Engine& engine, const Dataset& ds) {
  ValueVec rows = engine.Collect(ds).value();
  std::sort(rows.begin(), rows.end());
  return rows;
}

ValueVec KeyedRows(int n, int keys) {
  ValueVec rows;
  for (int i = 0; i < n; ++i) {
    rows.push_back(Value::MakePair(I(i % keys), I(i)));
  }
  return rows;
}

struct EngineParams {
  int partitions;
  int threads;
};

class EngineParamTest : public ::testing::TestWithParam<EngineParams> {
 protected:
  Engine MakeEngine() {
    EngineConfig config;
    config.num_partitions = GetParam().partitions;
    config.host_threads = GetParam().threads;
    return Engine(config);
  }
};

TEST_P(EngineParamTest, ParallelizePreservesRows) {
  Engine engine = MakeEngine();
  ValueVec rows;
  for (int i = 0; i < 37; ++i) rows.push_back(I(i));
  Dataset ds = engine.Parallelize(rows);
  EXPECT_EQ(ds.num_partitions(), GetParam().partitions);
  EXPECT_EQ(ds.TotalRows(), 37);
  ValueVec collected = engine.Collect(ds).value();
  // Contiguous chunking preserves order.
  EXPECT_EQ(collected, rows);
}

TEST_P(EngineParamTest, RangeInclusive) {
  Engine engine = MakeEngine();
  Dataset ds = engine.Range(3, 7);
  ValueVec rows = engine.Collect(ds).value();
  ASSERT_EQ(rows.size(), 5u);
  EXPECT_EQ(rows.front().AsInt(), 3);
  EXPECT_EQ(rows.back().AsInt(), 7);
  EXPECT_EQ(engine.Range(5, 4).TotalRows(), 0);
}

TEST(EngineRange, EndsAtTheInt64Limits) {
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  Engine engine;
  EXPECT_EQ(engine.Collect(engine.Range(kMax - 2, kMax)).value(),
            (ValueVec{I(kMax - 2), I(kMax - 1), I(kMax)}));
  EXPECT_EQ(engine.Collect(engine.Range(kMin, kMin + 1)).value(),
            (ValueVec{I(kMin), I(kMin + 1)}));
}

TEST_P(EngineParamTest, MapFilterFlatMap) {
  Engine engine = MakeEngine();
  Dataset ds = engine.Range(0, 99);
  auto doubled = engine.Map(ds, [](const Value& v) -> StatusOr<Value> {
    return I(v.AsInt() * 2);
  });
  ASSERT_TRUE(doubled.ok());
  auto even = engine.Filter(*doubled, [](const Value& v) -> StatusOr<bool> {
    return v.AsInt() % 4 == 0;
  });
  ASSERT_TRUE(even.ok());
  // Narrow operators are lazy: count what the engine collects, which
  // forces the fused chain, rather than reading source-row totals.
  EXPECT_EQ(engine.Collect(*even).value().size(), 50u);
  auto expanded =
      engine.FlatMap(*even, [](const Value& v) -> StatusOr<ValueVec> {
        return ValueVec{v, v};
      });
  ASSERT_TRUE(expanded.ok());
  EXPECT_EQ(engine.Collect(*expanded).value().size(), 100u);
}

TEST_P(EngineParamTest, MapErrorPropagates) {
  Engine engine = MakeEngine();
  Dataset ds = engine.Range(0, 9);
  auto result = engine.Map(ds, [](const Value& v) -> StatusOr<Value> {
    if (v.AsInt() == 7) return Status::RuntimeError("boom");
    return v;
  });
  // The map itself is deferred; the user error surfaces when the fused
  // chain runs at the next action.
  ASSERT_TRUE(result.ok());
  auto forced = engine.Collect(*result);
  ASSERT_FALSE(forced.ok());
  EXPECT_EQ(forced.status().message(), "boom");
}

TEST_P(EngineParamTest, GroupByKeyMatchesReference) {
  Engine engine = MakeEngine();
  Dataset ds = engine.Parallelize(KeyedRows(100, 7));
  auto grouped = engine.GroupByKey(ds);
  ASSERT_TRUE(grouped.ok()) << grouped.status().ToString();
  std::map<int64_t, std::multiset<int64_t>> expected;
  for (int i = 0; i < 100; ++i) expected[i % 7].insert(i);
  ValueVec rows = SortedRows(engine, *grouped);
  ASSERT_EQ(rows.size(), expected.size());
  for (const Value& row : rows) {
    std::multiset<int64_t> got;
    for (const Value& v : row.tuple()[1].bag()) got.insert(v.AsInt());
    EXPECT_EQ(got, expected[row.tuple()[0].AsInt()]);
  }
}

TEST_P(EngineParamTest, ReduceByKeyMatchesGroupThenFold) {
  Engine engine = MakeEngine();
  Dataset ds = engine.Parallelize(KeyedRows(123, 10));
  auto reduced = engine.ReduceByKey(ds, BinOp::kAdd);
  ASSERT_TRUE(reduced.ok());
  std::map<int64_t, int64_t> expected;
  for (int i = 0; i < 123; ++i) expected[i % 10] += i;
  ValueVec rows = SortedRows(engine, *reduced);
  ASSERT_EQ(rows.size(), expected.size());
  for (const Value& row : rows) {
    EXPECT_EQ(row.tuple()[1].AsInt(), expected[row.tuple()[0].AsInt()]);
  }
}

TEST_P(EngineParamTest, JoinMatchesNestedLoopReference) {
  Engine engine = MakeEngine();
  ValueVec left, right;
  for (int i = 0; i < 20; ++i) {
    left.push_back(Value::MakePair(I(i % 6), I(i)));
  }
  for (int i = 0; i < 15; ++i) {
    right.push_back(Value::MakePair(I(i % 9), I(100 + i)));
  }
  auto joined = engine.Join(engine.Parallelize(left),
                            engine.Parallelize(right));
  ASSERT_TRUE(joined.ok());
  // Naive reference.
  ValueVec expected;
  for (const Value& l : left) {
    for (const Value& r : right) {
      if (l.tuple()[0] == r.tuple()[0]) {
        expected.push_back(Value::MakePair(
            l.tuple()[0], Value::MakePair(l.tuple()[1], r.tuple()[1])));
      }
    }
  }
  ValueVec got = engine.Collect(*joined).value();
  EXPECT_TRUE(BagEquals(Value::MakeBag(got), Value::MakeBag(expected)));
}

TEST_P(EngineParamTest, CoGroupCoversBothSides) {
  Engine engine = MakeEngine();
  ValueVec left = {Value::MakePair(I(1), I(10)),
                   Value::MakePair(I(2), I(20))};
  ValueVec right = {Value::MakePair(I(2), I(200)),
                    Value::MakePair(I(3), I(300))};
  auto grouped = engine.CoGroup(engine.Parallelize(left),
                                engine.Parallelize(right));
  ASSERT_TRUE(grouped.ok());
  ValueVec rows = SortedRows(engine, *grouped);
  ASSERT_EQ(rows.size(), 3u);  // keys 1, 2, 3
  for (const Value& row : rows) {
    int64_t key = row.tuple()[0].AsInt();
    size_t nl = row.tuple()[1].tuple()[0].bag().size();
    size_t nr = row.tuple()[1].tuple()[1].bag().size();
    if (key == 1) {
      EXPECT_TRUE(nl == 1 && nr == 0);
    } else if (key == 2) {
      EXPECT_TRUE(nl == 1 && nr == 1);
    } else if (key == 3) {
      EXPECT_TRUE(nl == 0 && nr == 1);
    }
  }
}

TEST_P(EngineParamTest, ReduceTotalAndEmpty) {
  Engine engine = MakeEngine();
  auto sum = engine.Reduce(engine.Range(1, 100),
                           [](const Value& a, const Value& b) {
                             return EvalBinOp(BinOp::kAdd, a, b);
                           });
  ASSERT_TRUE(sum.ok());
  ASSERT_TRUE(sum->has_value());
  EXPECT_EQ((*sum)->AsInt(), 5050);
  auto empty = engine.Reduce(engine.Parallelize({}),
                             [](const Value& a, const Value& b) {
                               return EvalBinOp(BinOp::kAdd, a, b);
                             });
  ASSERT_TRUE(empty.ok());
  EXPECT_FALSE(empty->has_value());
}

TEST_P(EngineParamTest, FirstAndCount) {
  Engine engine = MakeEngine();
  Dataset ds = engine.Range(7, 20);
  auto first = engine.First(ds);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->AsInt(), 7);
  EXPECT_EQ(engine.Collect(ds).value().size(), 14u);
  EXPECT_FALSE(engine.First(engine.Parallelize({})).ok());
}

TEST_P(EngineParamTest, WideOpsRecordShuffleBytes) {
  Engine engine = MakeEngine();
  Dataset ds = engine.Parallelize(KeyedRows(50, 5));
  engine.metrics().Clear();
  ASSERT_TRUE(engine.GroupByKey(ds).ok());
  EXPECT_EQ(engine.metrics().num_wide_stages(), 1);
  EXPECT_GT(engine.metrics().total_shuffle_bytes(), 0);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, EngineParamTest,
    ::testing::Values(EngineParams{1, 1}, EngineParams{4, 1},
                      EngineParams{8, 1}, EngineParams{3, 1},
                      EngineParams{8, 2}, EngineParams{16, 4}),
    [](const ::testing::TestParamInfo<EngineParams>& info) {
      return StrCat("p", info.param.partitions, "t", info.param.threads);
    });

// Stress: a pipeline mixing wide and narrow operators under real host
// parallelism must produce exactly the single-threaded result, collected
// order included — threading is a host execution detail, never a
// semantic one.
TEST(Engine, StressThreadedPipelineMatchesSingleThreaded) {
  ValueVec rows = KeyedRows(5000, 37);
  auto run = [&](int threads) -> ValueVec {
    EngineConfig config;
    config.num_partitions = 16;
    config.host_threads = threads;
    Engine engine(config);
    Dataset ds = engine.Parallelize(rows);
    auto scaled = engine.Map(ds, [](const Value& v) -> StatusOr<Value> {
      return Value::MakePair(v.tuple()[0], I(v.tuple()[1].AsInt() * 3 + 1));
    });
    EXPECT_TRUE(scaled.ok());
    auto odd = engine.Filter(*scaled, [](const Value& v) -> StatusOr<bool> {
      return v.tuple()[1].AsInt() % 2 == 1;
    });
    EXPECT_TRUE(odd.ok());
    auto sums = engine.ReduceByKey(*odd, BinOp::kAdd);
    EXPECT_TRUE(sums.ok());
    auto grouped = engine.GroupByKey(*odd);
    EXPECT_TRUE(grouped.ok());
    auto sizes =
        engine.FlatMap(*grouped, [](const Value& row) -> StatusOr<ValueVec> {
          return ValueVec{Value::MakePair(
              row.tuple()[0],
              I(static_cast<int64_t>(row.tuple()[1].bag().size())))};
        });
    EXPECT_TRUE(sizes.ok());
    auto joined = engine.Join(*sums, *sizes);
    EXPECT_TRUE(joined.ok());
    return engine.Collect(*joined).value();
  };
  ValueVec single = run(1);
  ValueVec threaded = run(8);
  EXPECT_EQ(threaded, single);
}

// Results must be identical across partitionings (the fundamental
// distribution-invariance property).
TEST(Engine, ResultsInvariantAcrossPartitioning) {
  ValueVec rows = KeyedRows(200, 13);
  ValueVec baseline;
  for (int parts : {1, 2, 5, 16, 64}) {
    EngineConfig config;
    config.num_partitions = parts;
    Engine engine(config);
    auto reduced = engine.ReduceByKey(engine.Parallelize(rows), BinOp::kAdd);
    ASSERT_TRUE(reduced.ok());
    ValueVec got = SortedRows(engine, *reduced);
    if (baseline.empty()) {
      baseline = got;
    } else {
      EXPECT_EQ(got, baseline) << parts << " partitions";
    }
  }
}

}  // namespace
}  // namespace diablo::runtime
