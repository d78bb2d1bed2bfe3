// Unit tests for the sparse-array operations: the merge operator ⊳
// (local and distributed) and the combining merge ⊳⊕.

#include "runtime/array.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "runtime/operators.h"

namespace diablo::runtime {
namespace {

Value I(int64_t v) { return Value::MakeInt(v); }

ValueVec Pairs(std::vector<std::pair<int64_t, int64_t>> kvs) {
  ValueVec out;
  for (auto [k, v] : kvs) out.push_back(Value::MakePair(I(k), I(v)));
  return out;
}

TEST(ArrayMergeLocal, PaperExample) {
  // {(3,10),(1,20)} ⊳ {(1,30),(4,40)} = {(3,10),(1,30),(4,40)}.
  auto merged = ArrayMergeLocal(Pairs({{3, 10}, {1, 20}}),
                                Pairs({{1, 30}, {4, 40}}));
  ASSERT_TRUE(merged.ok());
  EXPECT_TRUE(BagEquals(Value::MakeBag(*merged),
                        Value::MakeBag(Pairs({{3, 10}, {1, 30}, {4, 40}}))));
}

TEST(ArrayMergeLocal, RightBiasWithinRight) {
  // Several updates to the same key in the right operand: last wins.
  auto merged = ArrayMergeLocal({}, Pairs({{1, 10}, {1, 20}, {1, 30}}));
  ASSERT_TRUE(merged.ok());
  ASSERT_EQ(merged->size(), 1u);
  EXPECT_EQ((*merged)[0].tuple()[1].AsInt(), 30);
}

TEST(ArrayMergeLocal, EmptyOperands) {
  auto left_empty = ArrayMergeLocal({}, Pairs({{1, 1}}));
  ASSERT_TRUE(left_empty.ok());
  EXPECT_EQ(left_empty->size(), 1u);
  auto right_empty = ArrayMergeLocal(Pairs({{1, 1}}), {});
  ASSERT_TRUE(right_empty.ok());
  EXPECT_EQ(right_empty->size(), 1u);
  auto both = ArrayMergeLocal({}, {});
  ASSERT_TRUE(both.ok());
  EXPECT_TRUE(both->empty());
}

TEST(ArrayMergeLocal, RejectsNonPairs) {
  EXPECT_FALSE(ArrayMergeLocal({I(3)}, {}).ok());
}

TEST(ArrayMergeDistributed, AgreesWithLocal) {
  for (int parts : {1, 3, 8}) {
    EngineConfig config;
    config.num_partitions = parts;
    Engine engine(config);
    ValueVec x = Pairs({{1, 10}, {2, 20}, {3, 30}, {5, 50}});
    ValueVec y = Pairs({{2, 200}, {4, 400}});
    auto expected = ArrayMergeLocal(x, y);
    ASSERT_TRUE(expected.ok());
    auto merged = ArrayMerge(engine, engine.Parallelize(x),
                             engine.Parallelize(y));
    ASSERT_TRUE(merged.ok()) << merged.status().ToString();
    ValueVec got = engine.Collect(*merged).value();
    EXPECT_TRUE(BagEquals(Value::MakeBag(got), Value::MakeBag(*expected)))
        << parts << " partitions";
  }
}

TEST(ArrayMergeDistributed, CombiningMergeAgreesWithLocalFold) {
  // Key 1 is in x only and key 4 in y only: both pass through. Key 2 has
  // two deltas, key 3 one.
  ValueVec x = Pairs({{1, 10}, {2, 20}, {3, 30}});
  ValueVec y = Pairs({{2, 1}, {4, 40}, {2, 2}, {3, 5}});
  std::map<Value, Value> folded;
  for (const Value& row : x) folded.emplace(row.tuple()[0], row.tuple()[1]);
  for (const Value& row : y) {
    auto [it, fresh] = folded.try_emplace(row.tuple()[0], row.tuple()[1]);
    if (!fresh) {
      it->second = EvalBinOp(BinOp::kAdd, it->second, row.tuple()[1]).value();
    }
  }
  ValueVec expected;
  for (const auto& [k, v] : folded) expected.push_back(Value::MakePair(k, v));
  ASSERT_TRUE(BagEquals(Value::MakeBag(expected),
                        Value::MakeBag(Pairs({{1, 10}, {2, 23}, {3, 35},
                                              {4, 40}}))));
  for (int parts : {1, 3, 8}) {
    EngineConfig config;
    config.num_partitions = parts;
    Engine engine(config);
    auto merged = ArrayMerge(engine, engine.Parallelize(x),
                             engine.Parallelize(y), BinOp::kAdd);
    ASSERT_TRUE(merged.ok()) << merged.status().ToString();
    ValueVec got = engine.Collect(*merged).value();
    EXPECT_TRUE(BagEquals(Value::MakeBag(got), Value::MakeBag(expected)))
        << parts << " partitions";
    std::vector<std::string> labels;
    for (const StageStats& s : engine.metrics().stages()) {
      labels.push_back(s.label);
    }
    EXPECT_EQ(labels, (std::vector<std::string>{"mergeInc",
                                                "mergeInc.combine"}));
  }
}

}  // namespace
}  // namespace diablo::runtime
