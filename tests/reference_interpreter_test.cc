// Unit tests for the sequential reference interpreter — the ground-truth
// semantics (Figure 4): lifted missing-element behaviour, update forms,
// loops, records and builtins.

#include "exec/reference_interpreter.h"

#include <gtest/gtest.h>

#include <limits>

#include "parser/parser.h"
#include "runtime/operators.h"

namespace diablo::exec {
namespace {

using runtime::Value;
using runtime::ValueVec;

Value I(int64_t v) { return Value::MakeInt(v); }
Value D(double v) { return Value::MakeDouble(v); }

Value Vec(std::vector<double> vals) {
  ValueVec rows;
  for (size_t i = 0; i < vals.size(); ++i) {
    rows.push_back(Value::MakePair(I(static_cast<int64_t>(i)), D(vals[i])));
  }
  return Value::MakeBag(std::move(rows));
}

ReferenceInterpreter MustRun(const std::string& src,
                             ReferenceInterpreter::Bindings inputs) {
  auto p = parser::ParseProgram(src);
  EXPECT_TRUE(p.ok()) << p.status().ToString();
  ReferenceInterpreter interp;
  Status st = interp.Run(*p, inputs);
  EXPECT_TRUE(st.ok()) << st.ToString();
  return interp;
}

TEST(Reference, ScalarArithmeticAndWhile) {
  auto interp = MustRun(R"(
    var n: int = 1;
    while (n < 100)
      n := n * 2;
  )", {});
  EXPECT_EQ(interp.GetScalar("n")->AsInt(), 128);
}

TEST(Reference, Int64ArithmeticWrapsOnOverflow) {
  auto interp = MustRun(R"(
    var big: int = 9223372036854775807;
    var small: int = -9223372036854775807 - 1;
    var add: int = big + 1;
    var sub: int = small - 1;
    var mul: int = small * -1;
    var neg: int = -small;
  )", {});
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  EXPECT_EQ(interp.GetScalar("add")->AsInt(), kMin);
  EXPECT_EQ(interp.GetScalar("sub")->AsInt(), kMax);
  EXPECT_EQ(interp.GetScalar("mul")->AsInt(), kMin);
  EXPECT_EQ(interp.GetScalar("neg")->AsInt(), kMin);
}

TEST(Reference, ForRangeInclusive) {
  auto interp = MustRun(R"(
    var s: int = 0;
    for i = 1, 10 do
      s += i;
  )", {});
  EXPECT_EQ(interp.GetScalar("s")->AsInt(), 55);
}

TEST(Reference, EmptyRangeRunsZeroTimes) {
  auto interp = MustRun(R"(
    var s: int = 0;
    for i = 5, 4 do
      s += 1;
  )", {});
  EXPECT_EQ(interp.GetScalar("s")->AsInt(), 0);
}

TEST(Reference, MissingElementSkipsStatement) {
  // V has no index 7: the read lifts to the empty bag and the assignment
  // does nothing.
  auto interp = MustRun(R"(
    var x: double = -1.0;
    x := V[7];
    y := V[1];
  )", {{"V", Vec({10, 11})}, {"y", D(0)}});
  EXPECT_DOUBLE_EQ(interp.GetScalar("x")->AsDouble(), -1.0);
  EXPECT_DOUBLE_EQ(interp.GetScalar("y")->AsDouble(), 11.0);
}

TEST(Reference, MissingConditionSkipsBothBranches) {
  auto interp = MustRun(R"(
    var x: int = 0;
    if (V[9] < 5.0) x := 1; else x := 2;
  )", {{"V", Vec({1})}});
  EXPECT_EQ(interp.GetScalar("x")->AsInt(), 0);
}

TEST(Reference, IncrementOnMissingUsesIdentity) {
  auto interp = MustRun(R"(
    var C: map[int,int] = map();
    C[5] += 3;
    C[5] += 4;
    var M: map[int,int] = map();
    M[1] *= 5;
  )", {});
  Value c = *interp.GetArray("C");
  ASSERT_EQ(c.bag().size(), 1u);
  EXPECT_EQ(c.bag()[0].tuple()[1].AsInt(), 7);
  // Multiplicative identity is 1.
  Value m = *interp.GetArray("M");
  EXPECT_EQ(m.bag()[0].tuple()[1].AsInt(), 5);
}

TEST(Reference, ArrayWriteCreatesAndOverwrites) {
  auto interp = MustRun(R"(
    var V: vector[double] = vector();
    V[0] := 1.0;
    V[0] := 2.0;
    V[3] := 9.0;
  )", {});
  Value v = *interp.GetArray("V");
  ASSERT_EQ(v.bag().size(), 2u);
  EXPECT_DOUBLE_EQ(v.bag()[0].tuple()[1].AsDouble(), 2.0);
  EXPECT_DOUBLE_EQ(v.bag()[1].tuple()[1].AsDouble(), 9.0);
}

TEST(Reference, MatrixIndexing) {
  auto interp = MustRun(R"(
    var M: matrix[double] = matrix();
    for i = 0, 1 do
      for j = 0, 1 do
        M[i,j] := i * 10.0 + j;
    x := M[1,0];
  )", {{"x", D(0)}});
  EXPECT_DOUBLE_EQ(interp.GetScalar("x")->AsDouble(), 10.0);
  EXPECT_EQ(interp.GetArray("M")->bag().size(), 4u);
}

TEST(Reference, ForEachBindsValues) {
  auto interp = MustRun(R"(
    var s: double = 0.0;
    for v in V do s += v;
  )", {{"V", Vec({1, 2, 3.5})}});
  EXPECT_DOUBLE_EQ(interp.GetScalar("s")->AsDouble(), 6.5);
}

TEST(Reference, LoopVariableShadowingIsRestored) {
  auto interp = MustRun(R"(
    var i: int = 99;
    var s: int = 0;
    for i = 0, 3 do s += i;
    t := i;
  )", {{"t", I(0)}});
  EXPECT_EQ(interp.GetScalar("t")->AsInt(), 99);
}

TEST(Reference, RecordsAndProjections) {
  ValueVec rows;
  rows.push_back(Value::MakePair(
      I(0), Value::MakeRecord({{"K", I(3)}, {"V", D(10)}})));
  rows.push_back(Value::MakePair(
      I(1), Value::MakeRecord({{"K", I(3)}, {"V", D(13)}})));
  auto interp = MustRun(R"(
    var C: map[int,double] = map();
    for a in A do C[a.K] += a.V;
  )", {{"A", Value::MakeBag(rows)}});
  Value c = *interp.GetArray("C");
  ASSERT_EQ(c.bag().size(), 1u);
  EXPECT_DOUBLE_EQ(c.bag()[0].tuple()[1].AsDouble(), 23.0);
}

TEST(Reference, TupleProjectionsAndFieldUpdate) {
  auto interp = MustRun(R"(
    var t: (int, double) = (1, 2.5);
    t._1 := 7;
    t._2 += 0.5;
  )", {});
  Value t = *interp.GetScalar("t");
  EXPECT_EQ(t.tuple()[0].AsInt(), 7);
  EXPECT_DOUBLE_EQ(t.tuple()[1].AsDouble(), 3.0);
}

TEST(Reference, Builtins) {
  auto interp = MustRun(R"(
    var a: double = 0.0;
    a := sqrt(16.0) + abs(0.0-2.0) + pow(2.0, 3.0) + floor(1.9);
  )", {});
  EXPECT_DOUBLE_EQ(interp.GetScalar("a")->AsDouble(), 4 + 2 + 8 + 1);
}

TEST(Reference, ErrorsOnUndefinedVariable) {
  auto p = parser::ParseProgram("x := y + 1;");
  ASSERT_TRUE(p.ok());
  ReferenceInterpreter interp;
  Status st = interp.Run(*p, {});
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.ToString().find("'y'"), std::string::npos);
}

TEST(Reference, ErrorsOnBadInputArray) {
  auto p = parser::ParseProgram("var s: int = 0;");
  ASSERT_TRUE(p.ok());
  ReferenceInterpreter interp;
  Status st = interp.Run(*p, {{"V", Value::MakeBag({I(3)})}});
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
}

TEST(Reference, WholeArrayAssignmentCopies) {
  auto interp = MustRun(R"(
    var W: vector[double] = vector();
    W := V;
    W[0] := 42.0;
  )", {{"V", Vec({1, 2})}});
  // V unchanged, W updated.
  EXPECT_DOUBLE_EQ(
      interp.GetArray("V")->bag()[0].tuple()[1].AsDouble(), 1.0);
  EXPECT_DOUBLE_EQ(
      interp.GetArray("W")->bag()[0].tuple()[1].AsDouble(), 42.0);
}

}  // namespace
}  // namespace diablo::exec
