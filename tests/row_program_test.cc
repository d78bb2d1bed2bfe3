// Compiled row programs (plan/row_program.h, DESIGN.md §19): slot
// resolution, scalar capture, short-circuit and error behaviour of
// compiled expressions, their driver mode (arrays, nested
// comprehensions, merges and reductions run on the engine), and segments
// ending in every wide operator plus broadcast probes, cartesian
// products and iterated bags. Loop programs are checked against the
// sequential reference interpreter at 1 and 4 host threads; the group-by
// and iterate plans, which no loop program produces, are checked against
// the local algebra backend.

#include "plan/row_program.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <limits>
#include <ostream>

#include "algebra/local.h"
#include "comp/comp.h"
#include "runtime/metrics_registry.h"
#include "runtime/operators.h"
#include "tests/test_util.h"

namespace diablo::plan {
namespace {

using comp::MakeBin;
using comp::MakeBool;
using comp::MakeComp;
using comp::MakeInt;
using comp::MakeProj;
using comp::MakeRecord;
using comp::MakeReduce;
using comp::MakeTuple;
using comp::MakeVar;
using comp::Pattern;
using comp::Qualifier;
using runtime::BinOp;
using runtime::Value;
using runtime::ValueVec;
using testing::DoubleVector;
using testing::IntVector;
using testing::IV;

// ------------------------- compiled expressions ----------------------------

class RowExprTest : public ::testing::Test {
 protected:
  RowExprTest() {
    state_.engine = &engine_;
    state_.scalars = &scalars_;
    state_.arrays = &arrays_;
    arrays_["A"] = engine_.Parallelize(ARows());
  }

  static ValueVec ARows() {
    return {Value::MakePair(IV(1), IV(10)), Value::MakePair(IV(2), IV(20))};
  }

  StatusOr<Value> Eval(const comp::CExprPtr& e,
                       const std::vector<std::string>& schema,
                       const ValueVec& env) {
    return EvalRowExpr(*CompileRowExpr(e, schema, state_), env);
  }

  /// Labels of the stages the engine has recorded.
  std::vector<std::string> StageLabels() const {
    std::vector<std::string> labels;
    for (const auto& s : engine_.metrics().stages()) labels.push_back(s.label);
    return labels;
  }

  runtime::Engine engine_;
  std::map<std::string, Value> scalars_;
  std::map<std::string, runtime::Dataset> arrays_;
  ExecState state_;
};

/// { v | (i, v) <- A, v > bound } as a nested comprehension.
comp::CExprPtr ValuesOfAAbove(int64_t bound) {
  return comp::MakeNested(MakeComp(
      MakeVar("v"),
      {Qualifier::Generator(
           Pattern::Tuple({Pattern::Var("i"), Pattern::Var("v")}),
           MakeVar("A")),
       Qualifier::Condition(
           MakeBin(BinOp::kGt, MakeVar("v"), MakeInt(bound)))}));
}

TEST_F(RowExprTest, FirstSchemaEntryWinsOverLaterSlotsAndScalars) {
  scalars_["x"] = IV(100);
  auto v = Eval(MakeVar("x"), {"x", "y", "x"}, {IV(1), IV(2), IV(3)});
  ASSERT_TRUE(v.ok()) << v.status().ToString();
  EXPECT_EQ(v->AsInt(), 1);
}

TEST_F(RowExprTest, DriverScalarIsCapturedWhenCompiled) {
  scalars_["s"] = IV(5);
  RowExprPtr e =
      CompileRowExpr(MakeBin(BinOp::kAdd, MakeVar("s"), MakeVar("y")), {"y"},
                     state_);
  scalars_["s"] = IV(1000);
  auto v = EvalRowExpr(*e, {IV(2)});
  ASSERT_TRUE(v.ok()) << v.status().ToString();
  EXPECT_EQ(v->AsInt(), 7);
}

TEST_F(RowExprTest, ShortCircuitSkipsErroringRightOperand) {
  auto div0 = MakeBin(BinOp::kEq, MakeBin(BinOp::kDiv, MakeInt(1), MakeInt(0)),
                      MakeInt(1));
  auto f = Eval(MakeBin(BinOp::kAnd, MakeBool(false), div0), {}, {});
  ASSERT_TRUE(f.ok()) << f.status().ToString();
  EXPECT_FALSE(f->AsBool());
  auto t = Eval(MakeBin(BinOp::kOr, MakeBool(true), div0), {}, {});
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  EXPECT_TRUE(t->AsBool());
  auto err = Eval(MakeBin(BinOp::kAnd, MakeBool(true), div0), {}, {});
  ASSERT_FALSE(err.ok());
  EXPECT_EQ(err.status().message(), "integer division by zero");
}

TEST_F(RowExprTest, ProjectionsReadSlotsAndKeepTheirErrors) {
  const Value pair = Value::MakePair(IV(1), IV(2));
  auto second = Eval(MakeProj(MakeVar("t"), "_2"), {"t"}, {pair});
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(second->AsInt(), 2);

  auto out_of_range = Eval(MakeProj(MakeVar("t"), "_3"), {"t"}, {pair});
  ASSERT_FALSE(out_of_range.ok());
  EXPECT_EQ(out_of_range.status().message(),
            "cannot project ._3 out of " + pair.ToString());

  const Value record = Value::MakeRecord({{"A", IV(1)}});
  auto missing = Eval(MakeProj(MakeRecord({{"A", MakeInt(1)}}), "B"), {}, {});
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().message(),
            "record " + record.ToString() + " has no field 'B'");
}

TEST_F(RowExprTest, UnboundNameErrorsOnlyWhenEvaluated) {
  auto skipped =
      Eval(MakeBin(BinOp::kAnd, MakeBool(false), MakeVar("nope")), {}, {});
  ASSERT_TRUE(skipped.ok()) << skipped.status().ToString();
  EXPECT_FALSE(skipped->AsBool());

  auto unbound = Eval(MakeVar("nope"), {}, {});
  ASSERT_FALSE(unbound.ok());
  EXPECT_EQ(unbound.status().message(), "unbound variable 'nope'");

  auto array = Eval(MakeVar("A"), {}, {});
  ASSERT_FALSE(array.ok());
  EXPECT_EQ(array.status().message(),
            "distributed array 'A' used as a value inside a row expression");
}

// In a row the same variable errors (UnboundNameErrorsOnlyWhenEvaluated).
TEST_F(RowExprTest, ArrayVariableIsItsCollectedBagOnTheDriver) {
  auto bag = EvalDriverExpr(MakeVar("A"), state_);
  ASSERT_TRUE(bag.ok()) << bag.status().ToString();
  EXPECT_TRUE(runtime::BagEquals(*bag, Value::MakeBag(ARows())));
}

TEST_F(RowExprTest, ShortCircuitOnTheDriverRunsNoStage) {
  auto sum_is_30 = MakeBin(BinOp::kEq,
                           MakeReduce(BinOp::kAdd, ValuesOfAAbove(0)),
                           MakeInt(30));
  auto skipped =
      EvalDriverExpr(MakeBin(BinOp::kAnd, MakeBool(false), sum_is_30), state_);
  ASSERT_TRUE(skipped.ok()) << skipped.status().ToString();
  EXPECT_FALSE(skipped->AsBool());
  EXPECT_TRUE(StageLabels().empty());

  auto taken =
      EvalDriverExpr(MakeBin(BinOp::kAnd, MakeBool(true), sum_is_30), state_);
  ASSERT_TRUE(taken.ok()) << taken.status().ToString();
  EXPECT_TRUE(taken->AsBool());
  EXPECT_FALSE(StageLabels().empty());
}

TEST_F(RowExprTest, ReductionOfAnEmptyNestedComprehensionIsTheIdentity) {
  auto sum = EvalDriverExpr(MakeReduce(BinOp::kAdd, ValuesOfAAbove(100)),
                            state_);
  ASSERT_TRUE(sum.ok()) << sum.status().ToString();
  EXPECT_EQ(*sum, IV(0));
  const std::vector<std::string> labels = StageLabels();
  EXPECT_EQ(std::count(labels.begin(), labels.end(), "reduce[+]"), 1)
      << ::testing::PrintToString(labels);
}

TEST_F(RowExprTest, MergeCollectsOnTheDriverAndErrorsInARow) {
  arrays_["B"] = engine_.Parallelize(
      {Value::MakePair(IV(2), IV(200)), Value::MakePair(IV(3), IV(300))});
  auto merge = comp::MakeMerge(MakeVar("A"), MakeVar("B"));
  auto bag = EvalDriverExpr(merge, state_);
  ASSERT_TRUE(bag.ok()) << bag.status().ToString();
  EXPECT_TRUE(runtime::BagEquals(
      *bag, Value::MakeBag({Value::MakePair(IV(1), IV(10)),
                            Value::MakePair(IV(2), IV(200)),
                            Value::MakePair(IV(3), IV(300))})));

  auto row = Eval(merge, {}, {});
  ASSERT_FALSE(row.ok());
  EXPECT_EQ(row.status().message(), "array merge in a row expression");
}

TEST_F(RowExprTest, WidestRangeIsTooLargeOnTheDriverAsInARow) {
  auto range =
      comp::MakeRange(MakeInt(std::numeric_limits<int64_t>::min()),
                      MakeInt(std::numeric_limits<int64_t>::max()));
  auto on_driver = EvalDriverExpr(range, state_);
  ASSERT_FALSE(on_driver.ok());
  EXPECT_EQ(on_driver.status().message(),
            "range too large to materialize per-row");
  auto in_row = Eval(range, {}, {});
  ASSERT_FALSE(in_row.ok());
  EXPECT_EQ(in_row.status().message(),
            "range too large to materialize per-row");
}

// ------------------------- whole programs ----------------------------------

struct ProgramCase {
  std::string name;
  std::string source;
  std::function<Bindings()> inputs;
  std::vector<std::string> scalars;
  std::vector<std::string> arrays;
  /// A stage-label fragment the program's plan must produce.
  std::string fragment;
  int64_t broadcast_threshold_bytes = 0;
};

Value Words() {
  ValueVec rows;
  const char* words[] = {"a", "b", "a", "c", "b", "a", "d"};
  for (int i = 0; i < 70; ++i) {
    rows.push_back(Value::MakePair(IV(i), Value::MakeString(words[i % 7])));
  }
  return Value::MakeBag(std::move(rows));
}

std::vector<double> Doubles(int n, double scale) {
  std::vector<double> out;
  for (int i = 0; i < n; ++i) out.push_back(scale * ((i * 37) % 101));
  return out;
}

std::vector<ProgramCase> Cases() {
  const std::string dot_source =
      "var S: vector[double] = vector();\n"
      "for i = 0, 7 do\n"
      "  S[i] += V[i] * W[i];\n";
  auto dot_inputs = [] {
    return Bindings{{"V", DoubleVector(Doubles(8, 0.5))},
                    {"W", DoubleVector(Doubles(8, 0.25))}};
  };
  return {
      {"reduce_by_key",
       "var C: map[string,int] = map();\n"
       "for w in words do\n"
       "  C[w] += 1;\n",
       [] { return Bindings{{"words", Words()}}; },
       {},
       {"C"},
       "reduceKey"},
      {"filter_with_captured_scalars",
       "var sum: double = 0.0;\n"
       "for v in V do\n"
       "  if (v < t)\n"
       "    sum += v * k;\n",
       [] {
         return Bindings{{"V", DoubleVector(Doubles(64, 1.0))},
                         {"t", Value::MakeDouble(50.0)},
                         {"k", Value::MakeDouble(2.0)}};
       },
       {"sum"},
       {},
       "filter"},
      {"join", dot_source, dot_inputs, {}, {"S"}, "joinKeyL"},
      {"broadcast_join", dot_source, dot_inputs, {}, {"S"}, "broadcastJoin[",
       /*broadcast_threshold_bytes=*/1 << 20},
      {"cartesian",
       "var R: matrix[double] = matrix();\n"
       "for i = 0, 3 do\n"
       "  for j = 0, 3 do\n"
       "    R[i,j] := A[i] * B[j];\n",
       [] {
         return Bindings{{"A", DoubleVector(Doubles(4, 1.5))},
                         {"B", DoubleVector(Doubles(4, 0.5))}};
       },
       {},
       {"R"},
       "cartesian["},
  };
}

void PrintTo(const ProgramCase& c, std::ostream* os) { *os << c.name; }

class RowProgramTest
    : public ::testing::TestWithParam<std::tuple<ProgramCase, int>> {};

TEST_P(RowProgramTest, MatchesReferenceInterpreter) {
  const auto& [c, threads] = GetParam();
  const Bindings inputs = c.inputs();
  runtime::EngineConfig config;
  config.host_threads = threads;
  config.broadcast_join_threshold_bytes = c.broadcast_threshold_bytes;
  runtime::Engine engine(config);
  auto run = CompileAndRun(c.source, &engine, inputs);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  auto ref = RunReference(c.source, inputs);
  ASSERT_TRUE(ref.ok()) << ref.status().ToString();
  for (const std::string& name : c.scalars) {
    auto got = run->Scalar(name);
    auto want = (*ref)->GetScalar(name);
    ASSERT_TRUE(got.ok() && want.ok()) << name;
    EXPECT_TRUE(runtime::AlmostEquals(*got, *want, 1e-9))
        << name << ": " << got->ToString() << " vs " << want->ToString();
  }
  for (const std::string& name : c.arrays) {
    auto got = run->Array(name);
    auto want = (*ref)->GetArray(name);
    ASSERT_TRUE(got.ok() && want.ok()) << name;
    EXPECT_TRUE(runtime::BagAlmostEquals(*got, *want, 1e-9))
        << name << ": " << got->ToString() << " vs " << want->ToString();
  }
  bool found = false;
  for (const runtime::StageStats& s : engine.metrics().stages()) {
    found = found || s.label.find(c.fragment) != std::string::npos;
  }
  EXPECT_TRUE(found) << "no stage label contains '" << c.fragment << "'";
}

INSTANTIATE_TEST_SUITE_P(
    Segments, RowProgramTest,
    ::testing::Combine(::testing::ValuesIn(Cases()), ::testing::Values(1, 4)),
    [](const ::testing::TestParamInfo<std::tuple<ProgramCase, int>>& info) {
      return std::get<0>(info.param).name + "_t" +
             std::to_string(std::get<1>(info.param));
    });

TEST(PlannerStageTest, RegistryCountsEveryRecordedStage) {
  // A broadcast join's ship and a cartesian product are planner stages,
  // recorded by the evaluator rather than by an operator wave. The
  // registry's stage series must count them like every other stage.
  const std::string source =
      "var S: vector[double] = vector();\n"
      "for i = 0, 7 do\n"
      "  S[i] += V[i] * W[i];\n"
      "var R: matrix[double] = matrix();\n"
      "for i = 0, 3 do\n"
      "  for j = 0, 3 do\n"
      "    R[i,j] := A[i] * B[j];\n";
  const Bindings inputs = {{"V", DoubleVector(Doubles(8, 0.5))},
                           {"W", DoubleVector(Doubles(8, 0.25))},
                           {"A", DoubleVector(Doubles(4, 1.5))},
                           {"B", DoubleVector(Doubles(4, 0.5))}};
  runtime::MetricsRegistry registry;
  runtime::EngineConfig config;
  config.broadcast_join_threshold_bytes = 1 << 20;
  config.registry = &registry;
  runtime::Engine engine(config);
  auto run = CompileAndRun(source, &engine, inputs);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  const runtime::Metrics& m = engine.metrics();
  auto has_stage = [&](const std::string& fragment) {
    return std::any_of(m.stages().begin(), m.stages().end(),
                       [&](const runtime::StageStats& s) {
                         return s.label.find(fragment) != std::string::npos;
                       });
  };
  ASSERT_TRUE(has_stage("].ship")) << m.Report();
  ASSERT_TRUE(has_stage("].product")) << m.Report();
  EXPECT_EQ(registry.CounterValue("diablo_stages_total"),
            static_cast<int64_t>(m.stages().size()));
  EXPECT_EQ(registry.CounterValue("diablo_task_attempts_total"),
            m.total_attempts());
  EXPECT_EQ(registry.CounterValue("diablo_shuffle_bytes_total"),
            m.total_shuffle_bytes());
  EXPECT_EQ(registry.HistogramCount("diablo_stage_shuffle_bytes"),
            static_cast<int64_t>(m.stages().size()));
}

// ------------------------- comprehension plans -----------------------------

/// Runs `comp` over A = {(i, (i * 7) % 13)} and checks it against the
/// local algebra backend; `label` is a stage the run must record.
void ExpectPlanMatchesLocal(const comp::CompPtr& comp,
                            StreamOp::Kind second_op,
                            const std::string& label) {
  ValueVec rows;
  for (int i = 0; i < 40; ++i) {
    rows.push_back(Value::MakePair(IV(i), IV((i * 7) % 13)));
  }
  auto want =
      algebra::EvalComprehension(comp, {}, {{"A", Value::MakeBag(rows)}});
  ASSERT_TRUE(want.ok()) << want.status().ToString();
  for (int threads : {1, 4}) {
    runtime::EngineConfig config;
    config.host_threads = threads;
    runtime::Engine engine(config);
    std::map<std::string, Value> scalars;
    std::map<std::string, runtime::Dataset> arrays{
        {"A", engine.Parallelize(rows)}};
    ExecState state{&engine, &scalars, &arrays};
    auto plan = BuildPlan(comp, state);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    ASSERT_EQ(plan->ops[1].kind, second_op);
    auto ds = ExecutePlan(*plan, state);
    ASSERT_TRUE(ds.ok()) << ds.status().ToString();
    auto got = engine.Collect(*ds);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_TRUE(runtime::BagEquals(Value::MakeBag(*got), *want))
        << "threads " << threads;
    std::vector<std::string> labels;
    for (const runtime::StageStats& s : engine.metrics().stages()) {
      labels.push_back(s.label);
    }
    EXPECT_NE(std::find(labels.begin(), labels.end(), label), labels.end())
        << "threads " << threads;
  }
}

Pattern PairPattern(const std::string& a, const std::string& b) {
  return Pattern::Tuple({Pattern::Var(a), Pattern::Var(b)});
}

/// { (k, (+/v, max/v)) | (i, v) <- A, group by k: i % 3 } — two
/// reductions of one lifted bag keep the planner off reduceByKey.
TEST(RowProgramComprehension, GroupLiftMatchesLocalAlgebra) {
  ExpectPlanMatchesLocal(
      MakeComp(
          MakeTuple({MakeVar("k"),
                     MakeTuple({MakeReduce(BinOp::kAdd, MakeVar("v")),
                                MakeReduce(BinOp::kMax, MakeVar("v"))})}),
          {Qualifier::Generator(PairPattern("i", "v"), MakeVar("A")),
           Qualifier::GroupBy(Pattern::Var("k"),
                              MakeBin(BinOp::kMod, MakeVar("i"),
                                      MakeInt(3)))}),
      StreamOp::Kind::kGroupBy, "scan[A]+groupKey+groupBy");
}

/// { (i, j * v) | (i, v) <- A, j <- range(0, v), j % 2 == 0 } — a
/// generator over a per-row bag, fused with the scan and the filter.
TEST(RowProgramComprehension, IterateMatchesLocalAlgebra) {
  ExpectPlanMatchesLocal(
      MakeComp(
          MakeTuple({MakeVar("i"),
                     MakeBin(BinOp::kMul, MakeVar("j"), MakeVar("v"))}),
          {Qualifier::Generator(PairPattern("i", "v"), MakeVar("A")),
           Qualifier::Generator(Pattern::Var("j"),
                                comp::MakeRange(MakeInt(0), MakeVar("v"))),
           Qualifier::Condition(MakeBin(
               BinOp::kEq, MakeBin(BinOp::kMod, MakeVar("j"), MakeInt(2)),
               MakeInt(0)))}),
      StreamOp::Kind::kIterateBag, "scan[A]+iterate+filter+yield");
}

// ------------------------- integer overflow --------------------------------

/// Runs `source` with `d` bound on the engine and the reference
/// interpreter; both must fail with `message`, or both succeed.
void ExpectSameOutcome(const std::string& source, int64_t d,
                       const std::string& message) {
  const Bindings inputs{{"d", IV(d)}};
  for (int threads : {1, 4}) {
    runtime::EngineConfig config;
    config.host_threads = threads;
    runtime::Engine engine(config);
    auto run = CompileAndRun(source, &engine, inputs);
    auto ref = RunReference(source, inputs);
    if (message.empty()) {
      ASSERT_TRUE(run.ok()) << run.status().ToString();
      ASSERT_TRUE(ref.ok()) << ref.status().ToString();
      auto got = run->Scalar("y");
      auto want = (*ref)->GetScalar("y");
      ASSERT_TRUE(got.ok() && want.ok());
      EXPECT_EQ(*got, *want);
      continue;
    }
    ASSERT_FALSE(run.ok());
    ASSERT_FALSE(ref.ok());
    EXPECT_NE(run.status().message().find(message), std::string::npos)
        << run.status().ToString();
    EXPECT_NE(ref.status().message().find(message), std::string::npos)
        << ref.status().ToString();
  }
}

TEST(IntegerOverflow, MinDividedByMinusOneIsAnError) {
  ExpectSameOutcome(
      "var x: int = -9223372036854775807 - 1;\n"
      "var y: int = x / d;\n",
      -1, "integer division overflow");
}

TEST(IntegerOverflow, MinModuloMinusOneIsZero) {
  ExpectSameOutcome(
      "var x: int = -9223372036854775807 - 1;\n"
      "var y: int = x % d;\n",
      -1, "");
}

TEST(IntegerOverflow, AbsOfMinIsAnError) {
  ExpectSameOutcome(
      "var x: int = -9223372036854775807 - d;\n"
      "var y: int = abs(x);\n",
      1, "integer overflow in abs");
}

TEST(IntegerOverflow, RowProgramsReportDivisionOverflow) {
  const std::string source =
      "var R: vector[int] = vector();\n"
      "for i = 0, 3 do\n"
      "  R[i] := V[i] / d;\n";
  const int64_t min = std::numeric_limits<int64_t>::min();
  const Bindings inputs{{"V", IntVector({4, min, 8, 2})}, {"d", IV(-1)}};
  for (int threads : {1, 4}) {
    runtime::EngineConfig config;
    config.host_threads = threads;
    runtime::Engine engine(config);
    auto run = CompileAndRun(source, &engine, inputs);
    auto ref = RunReference(source, inputs);
    ASSERT_FALSE(run.ok());
    ASSERT_FALSE(ref.ok());
    EXPECT_NE(run.status().message().find("integer division overflow"),
              std::string::npos)
        << run.status().ToString();
    EXPECT_NE(ref.status().message().find("integer division overflow"),
              std::string::npos)
        << ref.status().ToString();
  }
}

}  // namespace
}  // namespace diablo::plan
