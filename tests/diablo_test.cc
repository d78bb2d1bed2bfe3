// Tests for the public facade (diablo/diablo.h): compile/run round
// trips, error propagation from every pipeline stage, and option
// handling.

#include "diablo/diablo.h"

#include <gtest/gtest.h>

#include "tests/test_util.h"

namespace diablo {
namespace {

using testing::Bag;
using testing::DoubleVector;
using testing::DV;
using testing::IV;
using testing::Pair;

TEST(Facade, CompileAndRunRoundTrip) {
  runtime::Engine engine;
  auto run = CompileAndRun(R"(
    var s: double = 0.0;
    for v in V do s += v;
  )",
                           &engine, {{"V", DoubleVector({1, 2, 3})}});
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_DOUBLE_EQ(run->Scalar("s")->ToDouble(), 6.0);
}

TEST(Facade, ParseErrorsSurface) {
  auto compiled = Compile("for i = 0 do x += 1;");
  ASSERT_FALSE(compiled.ok());
  EXPECT_EQ(compiled.status().code(), StatusCode::kParseError);
}

TEST(Facade, RestrictionErrorsSurface) {
  auto compiled = Compile("for i = 1, 8 do V[i] := V[i-1];");
  ASSERT_FALSE(compiled.ok());
  EXPECT_EQ(compiled.status().code(), StatusCode::kRestrictionViolation);
}

TEST(Facade, RestrictionCheckCanBeDisabled) {
  CompileOptions options;
  options.check_restrictions = false;
  // The program violates Definition 3.1 but still translates; the
  // result is then simply not guaranteed to match the sequential
  // semantics (this is the paper's "unsafe mode" for experimentation).
  auto compiled = Compile("for i = 1, 8 do V[i] := V[i-1];", options);
  EXPECT_TRUE(compiled.ok()) << compiled.status().ToString();
}

TEST(Facade, UnsupportedConstructsSurface) {
  auto compiled = Compile("for v in V do { while (v > 0.0) x += 1; }");
  ASSERT_FALSE(compiled.ok());
  EXPECT_EQ(compiled.status().code(), StatusCode::kRestrictionViolation);
}

TEST(Facade, RuntimeErrorsSurface) {
  runtime::Engine engine;
  // Unbound scalar read at runtime.
  auto run = CompileAndRun("x := y + 1;", &engine, {});
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kRuntimeError);
}

// A range too large to materialize is reported at its `for` header, not
// at the statement in the loop body.
TEST(Facade, HugeRangeErrorNamesTheForHeader) {
  runtime::Engine engine;
  auto run = CompileAndRun("var s: int = 0;\n"
                           "  for i = 1, n do\n"
                           "    s += i;\n",
                           &engine, {{"n", IV(int64_t{1} << 62)}});
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kRuntimeError);
  EXPECT_NE(run.status().message().find(
                "range(1, 4611686018427387904) at line 2, column 3 "),
            std::string::npos)
      << run.status().ToString();
}

TEST(Facade, RunRequiresEngine) {
  auto compiled = Compile("var x: int = 1;");
  ASSERT_TRUE(compiled.ok());
  auto run = ::diablo::Run(*compiled, nullptr, {});
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kInvalidArgument);
}

TEST(Facade, MalformedInputArrayRejected) {
  runtime::Engine engine;
  auto compiled = Compile("var s: double = 0.0; for v in V do s += v;");
  ASSERT_TRUE(compiled.ok());
  auto run = ::diablo::Run(*compiled, &engine, {{"V", Bag({IV(3)})}});  // not pairs
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kInvalidArgument);
}

TEST(Facade, TargetCodeIsPrintable) {
  auto compiled = Compile("for i = 0, 9 do V[i] := W[i];");
  ASSERT_TRUE(compiled.ok());
  std::string target = compiled->TargetToString();
  EXPECT_NE(target.find("V := V <|"), std::string::npos) << target;
}

TEST(Facade, VarTableExposed) {
  auto compiled = Compile(R"(
    var s: double = 0.0;
    for v in V do s += v;
  )");
  ASSERT_TRUE(compiled.ok());
  EXPECT_TRUE(compiled->vars.at("V").is_array);
  EXPECT_FALSE(compiled->vars.at("s").is_array);
  EXPECT_TRUE(compiled->vars.at("s").declared);
}

TEST(Facade, ArrayDatasetAccessWithoutCollect) {
  runtime::Engine engine;
  auto run = CompileAndRun(R"(
    var C: map[int,int] = map();
    for v in V do C[1] += 1;
  )",
                           &engine, {{"V", DoubleVector({1, 2, 3})}});
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  auto ds = run->ArrayDataset("C");
  ASSERT_TRUE(ds.ok());
  EXPECT_EQ(ds->TotalRows(), 1);
}

TEST(Facade, ReferenceRunner) {
  auto ref = RunReference(R"(
    var n: int = 0;
    while (n < 3) n += 1;
  )", {});
  ASSERT_TRUE(ref.ok()) << ref.status().ToString();
  EXPECT_EQ((*ref)->GetScalar("n")->AsInt(), 3);
}

TEST(Facade, CompiledProgramIsReusableAcrossRunsAndEngines) {
  auto compiled = Compile(R"(
    var s: double = 0.0;
    for v in V do s += v;
  )");
  ASSERT_TRUE(compiled.ok());
  for (double base : {1.0, 10.0}) {
    runtime::Engine engine;
    auto run = ::diablo::Run(*compiled, &engine,
                   {{"V", DoubleVector({base, base + 1})}});
    ASSERT_TRUE(run.ok());
    EXPECT_DOUBLE_EQ(run->Scalar("s")->ToDouble(), 2 * base + 1);
  }
}

TEST(Facade, ScalarOutputsKeepKinds) {
  runtime::Engine engine;
  auto run = CompileAndRun(R"(
    var i: int = 2;
    var d: double = 0.5;
    var b: bool = false;
    i := i * 3;
    d := d + 1.0;
    b := i == 6;
  )",
                           &engine, {});
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_TRUE(run->Scalar("i")->is_int());
  EXPECT_TRUE(run->Scalar("d")->is_double());
  EXPECT_TRUE(run->Scalar("b")->is_bool());
  EXPECT_TRUE(run->Scalar("b")->AsBool());
}

}  // namespace
}  // namespace diablo
