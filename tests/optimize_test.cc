// Unit tests for the §3.6/§4 optimizations: loop-iteration (range)
// elimination with affine index inversion, Rule (16) constant group-by
// keys, and Rule (17) unique group-by keys.

#include "opt/optimize.h"

#include <gtest/gtest.h>

#include "diablo/diablo.h"
#include "normalize/normalize.h"
#include "parser/parser.h"
#include "translate/translate.h"

namespace diablo::opt {
namespace {

/// Translates, normalizes and optimizes a program; returns printable
/// target code.
std::string Pipeline(const std::string& src,
                     const OptimizeOptions& options = {}) {
  auto p = parser::ParseProgram(src);
  EXPECT_TRUE(p.ok()) << p.status().ToString();
  auto translated = translate::Translate(*p);
  EXPECT_TRUE(translated.ok()) << translated.status().ToString();
  comp::NameGen names("t");
  comp::TargetProgram normalized =
      normalize::NormalizeTarget(translated->program, &names);
  return OptimizeTarget(normalized, &names, options).ToString();
}

TEST(RangeElimination, DirectIndex) {
  // §3.9: the range joins W's traversal and becomes inRange.
  std::string out = Pipeline("for i = 1, 10 do V[i] := W[i];");
  EXPECT_EQ(out.find("range("), std::string::npos) << out;
  EXPECT_NE(out.find("inRange("), std::string::npos) << out;
}

TEST(RangeElimination, InvertsAffineIndex) {
  // §3.6: for V[i] := W[i-1], the inverse of k = i-1 is i = k+1.
  std::string out = Pipeline("for i = 1, 10 do V[i] := W[i-1];");
  EXPECT_EQ(out.find("range("), std::string::npos) << out;
  // inRange over the inverted index (k + 1).
  EXPECT_NE(out.find("+ 1"), std::string::npos) << out;
  EXPECT_NE(out.find("inRange("), std::string::npos) << out;
}

TEST(RangeElimination, KeepsRangeWithoutInverse) {
  // §3.6: "for i = 1,N do V[i] := 0" keeps its range iteration.
  std::string out = Pipeline("for i = 1, 10 do V[i] := 0.0;");
  EXPECT_NE(out.find("range(1,10)"), std::string::npos) << out;
}

TEST(RangeElimination, CanBeDisabled) {
  OptimizeOptions options;
  options.range_elimination = false;
  std::string out = Pipeline("for i = 1, 10 do V[i] := W[i];", options);
  EXPECT_NE(out.find("range(1,10)"), std::string::npos) << out;
}

TEST(Rule16, RemovesConstantKeyGroupBy) {
  // Scalar increments group by (); Rule (16) removes the group-by and
  // lifts the aggregated value into a nested bag.
  std::string out = Pipeline(R"(
    var n: double = 0.0;
    for v in W do n += v;
  )");
  EXPECT_EQ(out.find("group by"), std::string::npos) << out;
  EXPECT_NE(out.find("+/"), std::string::npos) << out;
}

TEST(Rule16, CanBeDisabled) {
  OptimizeOptions options;
  options.rule16_constant_key = false;
  options.rule17_unique_key = false;
  std::string out = Pipeline(R"(
    var n: double = 0.0;
    for v in W do n += v;
  )", options);
  EXPECT_NE(out.find("group by"), std::string::npos) << out;
}

TEST(Rule17, RemovesUniqueKeyGroupBy) {
  // §4: for i do V[i] += W[i] — the group-by key is W's own index, which
  // is unique, so the group-by disappears.
  std::string out = Pipeline("for i = 1, 10 do V[i] += W[i];");
  EXPECT_EQ(out.find("group by"), std::string::npos) << out;
}

TEST(Rule17, KeepsGroupByForIndirectKeys) {
  // W[K[i]] += V[i]: the key K[i] is not unique; the group-by stays.
  std::string out = Pipeline("for i = 1, 10 do W[K[i]] += V[i];");
  EXPECT_NE(out.find("group by"), std::string::npos) << out;
}

TEST(Rule17, KeepsGroupByForMatrixMultiply) {
  // Matrix multiplication reduces over k: key (i,j) does not cover k.
  std::string out = Pipeline(R"(
    var R: matrix[double] = matrix();
    for i = 0, 3 do
      for j = 0, 3 do {
        R[i,j] := 0.0;
        for k = 0, 3 do
          R[i,j] += M[i,k]*N[k,j];
      }
  )");
  EXPECT_NE(out.find("group by"), std::string::npos) << out;
}

TEST(Rule17, RemovesGroupByForMatrixAddition) {
  // R[i,j] := M[i,j] + N[i,j] is non-incremental (no group-by at all);
  // the elementwise *incremental* variant has a unique (i,j) key.
  std::string out = Pipeline(R"(
    for i = 0, 3 do
      for j = 0, 3 do
        R[i,j] += M[i,j] + N[i,j];
  )");
  EXPECT_EQ(out.find("group by"), std::string::npos) << out;
}

TEST(Cse, RemovesRepeatedArrayReads) {
  // (V[i] - W[i]) * (V[i] - W[i]) reads each array twice; CSE keeps one
  // generator per array.
  std::string out = Pipeline(R"(
    for i = 0, 9 do
      R[i] := (V[i] - W[i]) * (V[i] - W[i]);
  )");
  EXPECT_EQ(out.find("<- V", out.find("<- V") + 1), std::string::npos) << out;
  EXPECT_EQ(out.find("<- W", out.find("<- W") + 1), std::string::npos) << out;
}

TEST(Cse, KeepsDistinctIndexReads) {
  // V[i] and V[i+1] are different elements: both generators stay.
  std::string out = Pipeline(R"(
    for i = 1, 9 do
      R[i] := V[i] * V[i-1];
  )");
  size_t first = out.find("<- V");
  ASSERT_NE(first, std::string::npos) << out;
  EXPECT_NE(out.find("<- V", first + 1), std::string::npos) << out;
}

TEST(Cse, CanBeDisabled) {
  OptimizeOptions options;
  options.cse_array_reads = false;
  std::string out = Pipeline(R"(
    for i = 0, 9 do
      R[i] := V[i] * V[i];
  )", options);
  size_t first = out.find("<- V");
  ASSERT_NE(first, std::string::npos) << out;
  EXPECT_NE(out.find("<- V", first + 1), std::string::npos) << out;
}

TEST(Cse, DoesNotMergeDifferentArrays) {
  std::string out = Pipeline(R"(
    for i = 0, 9 do
      R[i] := V[i] * W[i];
  )");
  EXPECT_NE(out.find("<- V"), std::string::npos) << out;
  EXPECT_NE(out.find("<- W"), std::string::npos) << out;
}

TEST(Cse, MergesChainsOfThreeOrMore) {
  std::string out = Pipeline(R"(
    for i = 0, 9 do
      R[i] := V[i] + V[i] + V[i];
  )");
  size_t first = out.find("<- V");
  ASSERT_NE(first, std::string::npos) << out;
  EXPECT_EQ(out.find("<- V", first + 1), std::string::npos) << out;
}

TEST(Cse, MatrixReadsWithSameIndexPairMerge) {
  std::string out = Pipeline(R"(
    for i = 0, 5 do
      for j = 0, 5 do
        R[i,j] := M[i,j] * M[i,j] + M[j,i];
  )");
  // M[i,j] twice merges; M[j,i] is a different key and stays.
  size_t first = out.find("<- M");
  ASSERT_NE(first, std::string::npos);
  size_t second = out.find("<- M", first + 1);
  ASSERT_NE(second, std::string::npos) << out;
  EXPECT_EQ(out.find("<- M", second + 1), std::string::npos) << out;
}

TEST(Cse, PreservesResults) {
  const char* src = R"(
    var s: double = 0.0;
    var R: vector[double] = vector();
    for i = 0, 14 do {
      R[i] := (V[i] - W[i]) * (V[i] - W[i]);
      s += V[i] * V[i];
    }
  )";
  runtime::ValueVec v, w;
  for (int i = 0; i < 15; ++i) {
    v.push_back(runtime::Value::MakePair(runtime::Value::MakeInt(i),
                                         runtime::Value::MakeDouble(i * 0.5)));
    w.push_back(runtime::Value::MakePair(runtime::Value::MakeInt(i),
                                         runtime::Value::MakeDouble(i - 7.0)));
  }
  Bindings inputs = {{"V", runtime::Value::MakeBag(v)},
                     {"W", runtime::Value::MakeBag(w)}};
  CompileOptions with_cse;
  CompileOptions without_cse;
  without_cse.optimize.cse_array_reads = false;
  runtime::Engine e1, e2;
  auto r1 = CompileAndRun(src, &e1, inputs, with_cse);
  ASSERT_TRUE(r1.ok()) << r1.status().ToString();
  auto r2 = CompileAndRun(src, &e2, inputs, without_cse);
  ASSERT_TRUE(r2.ok()) << r2.status().ToString();
  EXPECT_TRUE(
      runtime::BagAlmostEquals(*r1->Array("R"), *r2->Array("R"), 1e-9));
  EXPECT_TRUE(runtime::AlmostEquals(*r1->Scalar("s"), *r2->Scalar("s"),
                                    1e-9));
  EXPECT_LT(e1.metrics().num_wide_stages(), e2.metrics().num_wide_stages());
}

TEST(Cse, SixtyReadsOfOneElementCollapseToOneGenerator) {
  // R[i] := V[i] + V[i] + ... with 60 reads: every read after the first
  // is a duplicate, so normalization and CSE must run to completion and
  // leave a single generator over V, planned like a single read.
  auto program = [](int reads) {
    std::string sum = "V[i]";
    for (int k = 1; k < reads; ++k) sum += " + V[i]";
    return "var R: vector[double] = vector();\nfor i = 0, 9 do R[i] := " +
           sum + ";";
  };
  const std::string src = program(60);
  auto compiled = Compile(src);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  const std::string target = compiled->TargetToString();
  size_t generators = 0;
  for (size_t at = target.find("<- V"); at != std::string::npos;
       at = target.find("<- V", at + 1)) {
    ++generators;
  }
  EXPECT_EQ(generators, 1u) << target;

  runtime::ValueVec v;
  for (int i = 0; i < 10; ++i) {
    v.push_back(runtime::Value::MakePair(runtime::Value::MakeInt(i),
                                         runtime::Value::MakeDouble(i + 0.25)));
  }
  Bindings inputs = {{"V", runtime::Value::MakeBag(v)}};
  runtime::Engine engine;
  auto run = diablo::Run(*compiled, &engine, inputs);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  auto reference = RunReference(src, inputs);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  auto want = (*reference)->GetArray("R");
  ASSERT_TRUE(want.ok()) << want.status().ToString();
  EXPECT_TRUE(runtime::BagAlmostEquals(*run->Array("R"), *want, 1e-9));

  runtime::Engine single;
  ASSERT_TRUE(CompileAndRun(program(1), &single, inputs).ok());
  EXPECT_EQ(engine.metrics().num_stages(), single.metrics().num_stages());
  EXPECT_EQ(engine.metrics().num_wide_stages(),
            single.metrics().num_wide_stages());
}

// Optimizations must preserve results (checked end to end).
TEST(OptimizerSoundness, SameResultsWithAndWithout) {
  const char* src = R"(
    var total: double = 0.0;
    for i = 0, 19 do {
      V[i] += W[i];
      total += W[i];
    }
    for i = 1, 19 do U[i] := W[i-1];
  )";
  runtime::ValueVec w, v, u;
  for (int i = 0; i < 20; ++i) {
    w.push_back(runtime::Value::MakePair(runtime::Value::MakeInt(i),
                                         runtime::Value::MakeDouble(i * 1.5)));
    v.push_back(runtime::Value::MakePair(runtime::Value::MakeInt(i),
                                         runtime::Value::MakeDouble(100)));
    u.push_back(runtime::Value::MakePair(runtime::Value::MakeInt(i),
                                         runtime::Value::MakeDouble(0)));
  }
  Bindings inputs = {{"W", runtime::Value::MakeBag(w)},
                     {"V", runtime::Value::MakeBag(v)},
                     {"U", runtime::Value::MakeBag(u)}};
  CompileOptions with_opt;
  CompileOptions without_opt;
  without_opt.enable_optimizer = false;
  runtime::Engine e1, e2;
  auto r1 = CompileAndRun(src, &e1, inputs, with_opt);
  ASSERT_TRUE(r1.ok()) << r1.status().ToString();
  auto r2 = CompileAndRun(src, &e2, inputs, without_opt);
  ASSERT_TRUE(r2.ok()) << r2.status().ToString();
  EXPECT_TRUE(runtime::AlmostEquals(*r1->Scalar("total"),
                                    *r2->Scalar("total"), 1e-9));
  EXPECT_TRUE(runtime::BagAlmostEquals(*r1->Array("V"), *r2->Array("V"),
                                       1e-9));
  EXPECT_TRUE(runtime::BagAlmostEquals(*r1->Array("U"), *r2->Array("U"),
                                       1e-9));
}

TEST(OptimizerCost, FewerShufflesWithOptimizations) {
  // The optimizer must reduce the number of wide stages for V[i] += W[i].
  const char* src = "for i = 0, 99 do V[i] += W[i];";
  runtime::ValueVec w, v;
  for (int i = 0; i < 100; ++i) {
    w.push_back(runtime::Value::MakePair(runtime::Value::MakeInt(i),
                                         runtime::Value::MakeDouble(1)));
    v.push_back(runtime::Value::MakePair(runtime::Value::MakeInt(i),
                                         runtime::Value::MakeDouble(2)));
  }
  Bindings inputs = {{"W", runtime::Value::MakeBag(w)},
                     {"V", runtime::Value::MakeBag(v)}};
  CompileOptions without_opt;
  without_opt.enable_optimizer = false;
  runtime::Engine e1, e2;
  auto r1 = CompileAndRun(src, &e1, inputs);
  ASSERT_TRUE(r1.ok());
  auto r2 = CompileAndRun(src, &e2, inputs, without_opt);
  ASSERT_TRUE(r2.ok());
  EXPECT_LT(e1.metrics().num_wide_stages(), e2.metrics().num_wide_stages());
}

}  // namespace
}  // namespace diablo::opt
