// Unit tests for runtime::Value: construction, equality, ordering,
// hashing, serialization sizes and printing, and the 16-byte layout's
// sharing, moves, self-assignment and kind checks.

#include "runtime/value.h"

#include <gtest/gtest.h>

#include <thread>
#include <unordered_set>
#include <vector>

namespace diablo::runtime {
namespace {

TEST(Value, KindsAndAccessors) {
  EXPECT_TRUE(Value().is_unit());
  EXPECT_TRUE(Value::MakeBool(true).AsBool());
  EXPECT_EQ(Value::MakeInt(42).AsInt(), 42);
  EXPECT_DOUBLE_EQ(Value::MakeDouble(2.5).AsDouble(), 2.5);
  EXPECT_EQ(Value::MakeString("abc").AsString(), "abc");
  Value t = Value::MakeTuple({Value::MakeInt(1), Value::MakeInt(2)});
  ASSERT_TRUE(t.is_tuple());
  EXPECT_EQ(t.tuple().size(), 2u);
  Value b = Value::MakeBag({Value::MakeInt(1)});
  ASSERT_TRUE(b.is_bag());
  EXPECT_EQ(b.bag().size(), 1u);
}

TEST(Value, ToDoubleWidensInts) {
  EXPECT_DOUBLE_EQ(Value::MakeInt(3).ToDouble(), 3.0);
  EXPECT_DOUBLE_EQ(Value::MakeDouble(3.5).ToDouble(), 3.5);
}

TEST(Value, StructuralEquality) {
  Value a = Value::MakePair(Value::MakeInt(1), Value::MakeString("x"));
  Value b = Value::MakePair(Value::MakeInt(1), Value::MakeString("x"));
  Value c = Value::MakePair(Value::MakeInt(2), Value::MakeString("x"));
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  // Int and Double are different kinds under structural equality.
  EXPECT_NE(Value::MakeInt(1), Value::MakeDouble(1.0));
}

TEST(Value, TotalOrderIsConsistent) {
  ValueVec values = {
      Value::MakeUnit(),
      Value::MakeBool(false),
      Value::MakeInt(-5),
      Value::MakeInt(7),
      Value::MakeDouble(1.5),
      Value::MakeString("a"),
      Value::MakeString("b"),
      Value::MakeTuple({Value::MakeInt(1)}),
      Value::MakeTuple({Value::MakeInt(1), Value::MakeInt(2)}),
  };
  for (size_t i = 0; i < values.size(); ++i) {
    EXPECT_EQ(values[i].Compare(values[i]), 0) << i;
    for (size_t j = 0; j < values.size(); ++j) {
      int ij = values[i].Compare(values[j]);
      int ji = values[j].Compare(values[i]);
      EXPECT_EQ(ij, -ji) << i << "," << j;  // antisymmetry
    }
  }
  // Tuples order lexicographically, then by length.
  EXPECT_LT(Value::MakeTuple({Value::MakeInt(1)}),
            Value::MakeTuple({Value::MakeInt(1), Value::MakeInt(0)}));
  EXPECT_LT(Value::MakeTuple({Value::MakeInt(1), Value::MakeInt(9)}),
            Value::MakeTuple({Value::MakeInt(2)}));
}

TEST(Value, HashAgreesWithEquality) {
  Value a = Value::MakeTuple({Value::MakeInt(3), Value::MakeString("k")});
  Value b = Value::MakeTuple({Value::MakeInt(3), Value::MakeString("k")});
  EXPECT_EQ(a.Hash(), b.Hash());
  std::unordered_set<Value, ValueHash> set;
  set.insert(a);
  EXPECT_EQ(set.count(b), 1u);
}

TEST(Value, RecordFieldLookup) {
  Value r = Value::MakeRecord({{"red", Value::MakeInt(1)},
                               {"green", Value::MakeInt(2)}});
  ASSERT_NE(r.FindField("green"), nullptr);
  EXPECT_EQ(r.FindField("green")->AsInt(), 2);
  EXPECT_EQ(r.FindField("blue"), nullptr);
}

TEST(Value, SerializedBytes) {
  EXPECT_EQ(Value::MakeInt(1).SerializedBytes(), 8);
  EXPECT_EQ(Value::MakeDouble(1).SerializedBytes(), 8);
  EXPECT_EQ(Value::MakeString("abcd").SerializedBytes(), 8);
  // Pair of (long,long) tuple and double mirrors the paper's accounting
  // shape: nested sizes accumulate.
  Value row = Value::MakePair(
      Value::MakeTuple({Value::MakeInt(0), Value::MakeInt(0)}),
      Value::MakeDouble(1));
  EXPECT_EQ(row.SerializedBytes(), 4 + (4 + 8 + 8) + 8);
}

TEST(Value, Printing) {
  EXPECT_EQ(Value::MakeUnit().ToString(), "()");
  EXPECT_EQ(Value::MakeBool(true).ToString(), "true");
  EXPECT_EQ(Value::MakeString("hi").ToString(), "\"hi\"");
  EXPECT_EQ(Value::MakePair(Value::MakeInt(1), Value::MakeInt(2)).ToString(),
            "(1,2)");
  EXPECT_EQ(Value::MakeBag({Value::MakeInt(1), Value::MakeInt(2)}).ToString(),
            "{1,2}");
  EXPECT_EQ(
      Value::MakeRecord({{"a", Value::MakeInt(1)}}).ToString(), "<a=1>");
}

TEST(Value, CopyIsShallowAndCheap) {
  ValueVec big;
  for (int i = 0; i < 1000; ++i) big.push_back(Value::MakeInt(i));
  Value bag = Value::MakeBag(std::move(big));
  Value copy = bag;  // shares the payload
  EXPECT_EQ(&bag.bag(), &copy.bag());
}

// A tuple is one block: the copies read the same elements in place.
TEST(Value, TupleCopiesShareOneBlock) {
  Value tuple = Value::MakeTuple({Value::MakeInt(1), Value::MakeString("x")});
  Value copy = tuple;
  EXPECT_EQ(tuple.tuple().data(), copy.tuple().data());
  Value moved = std::move(copy);
  EXPECT_EQ(tuple.tuple().data(), moved.tuple().data());
  copy = moved;
  EXPECT_EQ(tuple.tuple().data(), copy.tuple().data());
  const Value& alias = copy;
  copy = alias;  // self-assignment keeps the block alive
  EXPECT_EQ(copy.ToString(), "(1,\"x\")");
}

// Every heap kind is one counted block that copies share.
TEST(Value, HeapKindCopiesShareOneBlock) {
  const Value str = Value::MakeString("a string past the short-string buffer");
  const Value rec = Value::MakeRecord({{"a", Value::MakeInt(1)}});
  const Value bag = Value::MakeBag({Value::MakeInt(1), Value::MakeInt(2)});
  const Value str_copy = str;
  const Value rec_copy = rec;
  const Value bag_copy = bag;
  EXPECT_EQ(str.AsString().data(), str_copy.AsString().data());
  EXPECT_EQ(&rec.fields(), &rec_copy.fields());
  EXPECT_EQ(&bag.bag(), &bag_copy.bag());
}

/// One value of every kind.
ValueVec OneOfEachKind() {
  return {Value(),
          Value::MakeBool(true),
          Value::MakeInt(-3),
          Value::MakeDouble(0.25),
          Value::MakeString("s"),
          Value::MakePair(Value::MakeInt(1), Value::MakeString("t")),
          Value::MakeRecord({{"f", Value::MakeInt(2)}}),
          Value::MakeBag({Value::MakeInt(3)})};
}

TEST(Value, MovedFromValueIsUnit) {
  for (Value& v : OneOfEachKind()) {
    SCOPED_TRACE(v.ToString());
    const std::string text = v.ToString();
    Value constructed(std::move(v));
    EXPECT_TRUE(v.is_unit());  // NOLINT(bugprone-use-after-move)
    Value assigned = Value::MakeString("dropped");
    assigned = std::move(constructed);
    EXPECT_TRUE(constructed.is_unit());  // NOLINT(bugprone-use-after-move)
    EXPECT_EQ(assigned.ToString(), text);
  }
}

TEST(Value, SelfAssignmentKeepsEveryKind) {
  for (Value& v : OneOfEachKind()) {
    SCOPED_TRACE(v.ToString());
    const std::string text = v.ToString();
    const size_t hash = v.Hash();
    Value& alias = v;
    v = alias;
    EXPECT_EQ(v.ToString(), text);
    v = std::move(alias);
    EXPECT_EQ(v.ToString(), text);
    EXPECT_EQ(v.Hash(), hash);
  }
  // Assigning a value an element of its own tuple or bag takes the
  // element before the block holding it is dropped.
  Value t = Value::MakePair(Value::MakeString("inner"), Value::MakeInt(1));
  t = t.tuple()[0];
  EXPECT_EQ(t.ToString(), "\"inner\"");
  Value b = Value::MakeBag({Value::MakeRecord({{"f", Value::MakeInt(5)}})});
  b = b.bag()[0];
  EXPECT_EQ(b.ToString(), "<f=5>");
}

// A typed accessor on the wrong kind stops the process and names both
// kinds, as the uncaught std::get throw of the variant did.
TEST(ValueDeathTest, WrongKindAccessorAbortsNamingBothKinds) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  const Value str = Value::MakeString("x");
  const Value bag = Value::MakeBag({});
  EXPECT_DEATH((void)str.AsInt(), "int accessor called on a string value");
  EXPECT_DEATH((void)bag.tuple(), "tuple accessor called on a bag value");
}

TEST(Value, TupleBuildersAgree) {
  Value* elems = nullptr;
  Value built = Value::NewTuple(2, &elems);
  elems[0] = Value::MakeInt(4);
  elems[1] = Value::MakeDouble(0.5);
  const Value made = Value::MakeTuple({Value::MakeInt(4), Value::MakeDouble(0.5)});
  const Value pair = Value::MakePair(Value::MakeInt(4), Value::MakeDouble(0.5));
  for (const Value* v : {&made, &pair}) {
    EXPECT_EQ(built, *v);
    EXPECT_EQ(built.Hash(), v->Hash());
    EXPECT_EQ(built.ToString(), v->ToString());
    EXPECT_EQ(built.SerializedBytes(), v->SerializedBytes());
  }
  Value* none = nullptr;
  const Value empty = Value::NewTuple(0, &none);
  EXPECT_EQ(empty, Value::MakeTuple({}));
  EXPECT_TRUE(empty.tuple().empty());
}

// Literals recorded with the shared_ptr<vector> tuples this block
// replaced: hashes (and with them shuffle destinations), wire sizes,
// printing and order must not move.
TEST(Value, TupleHashSizeTextAndOrderAreUnchanged) {
  auto I = [](int64_t i) { return Value::MakeInt(i); };
  const Value nested =
      Value::MakePair(Value::MakePair(I(1), Value::MakeString("a")),
                      Value::MakePair(Value::MakeDouble(2.5), Value::MakeBool(true)));
  const Value deep = Value::MakePair(
      I(1), Value::MakePair(I(2), Value::MakePair(I(3), Value::MakeTuple({}))));
  const Value empty = Value::MakeTuple({});
  const Value pairs =
      Value::MakePair(Value::MakePair(I(1), I(2)), Value::MakePair(I(3), I(4)));
  const Value mixed = Value::MakeTuple(
      {I(7), Value::MakeBag({Value::MakePair(I(1), Value::MakeDouble(0.5))}),
       Value::MakeRecord({{"f", I(2)}})});
  struct Case {
    const Value* value;
    const char* text;
    size_t hash;
    int64_t bytes;
  };
  const Case cases[] = {
      {&nested, "((1,\"a\"),(2.5,true))", 47062045145056098ULL, 34},
      {&deep, "(1,(2,(3,())))", 8618974205308760385ULL, 40},
      {&empty, "()", 13272178845ULL, 4},
      {&pairs, "((1,2),(3,4))", 8539267341355224168ULL, 44},
      {&mixed, "(7,{(1,0.5)},<f=2>)", 2181351580238121984ULL, 53},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.text);
    EXPECT_EQ(c.value->ToString(), c.text);
    EXPECT_EQ(c.value->Hash(), c.hash);
    EXPECT_EQ(c.value->SerializedBytes(), c.bytes);
  }
  EXPECT_EQ(nested.Compare(pairs), 1);  // "a" (string) sorts after 2 (int)
  EXPECT_EQ(pairs.Compare(nested), -1);
  EXPECT_EQ(empty.Compare(Value()), 1);  // tuple kind after unit
  EXPECT_EQ(empty.Compare(pairs), -1);   // shorter prefix first
  EXPECT_EQ(deep.Compare(deep), 0);
  EXPECT_EQ(pairs.Compare(Value::MakePair(Value::MakePair(I(1), I(2)),
                                          Value::MakePair(I(3), I(5)))),
            -1);
}

// The reference count is atomic: threads copying and dropping one
// shared tuple (and the tuple, string, record and bag nested in it) never
// free a block early or twice.
TEST(Value, SharedTupleSurvivesConcurrentCopies) {
  const Value inner = Value::MakePair(Value::MakeInt(7), Value::MakeString("s"));
  const Value str = Value::MakeString("a string past the short-string buffer");
  const Value rec = Value::MakeRecord({{"f", Value::MakeInt(2)}});
  const Value bag = Value::MakeBag({Value::MakeInt(3), Value::MakeInt(4)});
  const Value shared = Value::MakeTuple({inner, Value::MakeDouble(1.5), str, rec, bag});
  constexpr int kThreads = 4;
  constexpr int kRounds = 20000;
  std::vector<std::thread> threads;
  std::vector<int64_t> sums(kThreads, 0);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&shared, &sums, t] {
      std::vector<Value> held;
      for (int r = 0; r < kRounds; ++r) {
        Value copy = shared;
        const TupleView elems = copy.tuple();
        held.push_back(elems[0]);
        held.push_back(elems[2 + r % 3]);
        if (held.size() == 16) held.clear();
        sums[t] += elems[0].tuple()[0].AsInt() +
                   static_cast<int64_t>(elems[2].AsString().size()) +
                   elems[3].fields()[0].second.AsInt() + elems[4].bag()[1].AsInt();
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (int64_t sum : sums) EXPECT_EQ(sum, int64_t{7 + 37 + 2 + 4} * kRounds);
  EXPECT_EQ(shared.ToString(),
            "((7,\"s\"),1.5,\"a string past the short-string buffer\",<f=2>,{3,4})");
  EXPECT_EQ(shared.tuple()[0].tuple().data(), inner.tuple().data());
  EXPECT_EQ(shared.tuple()[2].AsString().data(), str.AsString().data());
  EXPECT_EQ(&shared.tuple()[3].fields(), &rec.fields());
  EXPECT_EQ(&shared.tuple()[4].bag(), &bag.bag());
}

}  // namespace
}  // namespace diablo::runtime
