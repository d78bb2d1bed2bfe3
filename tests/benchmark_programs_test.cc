// Validates all 12 evaluation programs (paper §6 / Appendix B) at small
// scale: the DIABLO-translated distributed execution must agree with the
// sequential reference interpreter, and with the hand-written engine
// implementations where outputs are directly comparable.

#include <gtest/gtest.h>

#include "tests/test_util.h"
#include "workloads/harness.h"
#include "workloads/programs.h"

namespace diablo::testing {
namespace {

using bench::GetProgram;
using bench::ProgramSpec;

int64_t SmallScale(const std::string& name) {
  if (name == "matrix_addition") return 8;
  if (name == "matrix_multiplication") return 6;
  if (name == "pagerank") return 4;  // RMAT scale: 16 vertices
  if (name == "kmeans") return 60;
  if (name == "matrix_factorization") return 8;
  return 200;
}

class BenchmarkProgramTest : public ::testing::TestWithParam<std::string> {};

TEST_P(BenchmarkProgramTest, DiabloMatchesReference) {
  const ProgramSpec& spec = GetProgram(GetParam());
  std::mt19937_64 rng(42);
  Bindings inputs = spec.make_inputs(SmallScale(spec.name), rng);
  PipelineChecker checker(spec.source, inputs);
  for (const std::string& name : spec.scalar_outputs) {
    checker.ExpectScalarAgrees(name, spec.tolerance);
  }
  for (const std::string& name : spec.array_outputs) {
    checker.ExpectArrayAgrees(name, spec.tolerance);
  }
}

TEST_P(BenchmarkProgramTest, CompilesWithoutOptimizer) {
  const ProgramSpec& spec = GetProgram(GetParam());
  CompileOptions options;
  options.enable_optimizer = false;
  auto compiled = Compile(spec.source, options);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
}

TEST_P(BenchmarkProgramTest, UnoptimizedExecutionMatchesReference) {
  // The optimizer is a pure performance layer: the unoptimized target
  // code must compute the same results (at tiny scale — unoptimized
  // plans carry every range join and group-by).
  const ProgramSpec& spec = GetProgram(GetParam());
  std::mt19937_64 rng(31);
  int64_t scale = SmallScale(spec.name) / 2 + 2;
  Bindings inputs = spec.make_inputs(scale, rng);
  CompileOptions options;
  options.enable_optimizer = false;
  auto compiled = Compile(spec.source, options);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  runtime::Engine engine;
  auto run = ::diablo::Run(*compiled, &engine, inputs);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  auto reference = RunReference(spec.source, inputs);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  for (const std::string& name : spec.scalar_outputs) {
    auto got = run->Scalar(name);
    auto want = (*reference)->GetScalar(name);
    ASSERT_TRUE(got.ok() && want.ok()) << name;
    EXPECT_TRUE(runtime::AlmostEquals(*got, *want, spec.tolerance)) << name;
  }
  for (const std::string& name : spec.array_outputs) {
    auto got = run->Array(name);
    auto want = (*reference)->GetArray(name);
    ASSERT_TRUE(got.ok() && want.ok()) << name;
    EXPECT_TRUE(runtime::BagAlmostEquals(*got, *want, spec.tolerance))
        << name;
  }
}

// The end-to-end benchmark runs partition tasks on two host threads.
// That must not change a result (EngineConfig::host_threads): every
// declared output prints as in the one-thread run. Under tsan this also
// races the reference counts of the strings, records, bags and tuples
// real plans share between pool threads.
TEST_P(BenchmarkProgramTest, TwoHostThreadsMatchOneThread) {
  const ProgramSpec& spec = GetProgram(GetParam());
  std::mt19937_64 rng(42);
  Bindings inputs = spec.make_inputs(SmallScale(spec.name), rng);
  auto compiled = Compile(spec.source);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  auto outputs = [&](int host_threads) {
    runtime::EngineConfig config;
    config.host_threads = host_threads;
    runtime::Engine engine(config);
    std::vector<std::string> texts;
    auto run = ::diablo::Run(*compiled, &engine, inputs);
    if (!run.ok()) return std::vector<std::string>{run.status().ToString()};
    for (const std::string& name : spec.scalar_outputs) {
      auto v = run->Scalar(name);
      texts.push_back(name + " = " + (v.ok() ? v->ToString() : v.status().ToString()));
    }
    for (const std::string& name : spec.array_outputs) {
      auto v = run->Array(name);
      texts.push_back(name + " = " + (v.ok() ? v->ToString() : v.status().ToString()));
    }
    return texts;
  };
  const std::vector<std::string> one = outputs(1);
  ASSERT_EQ(one.size(), spec.scalar_outputs.size() + spec.array_outputs.size())
      << one.front();
  EXPECT_EQ(outputs(2), one);
}

INSTANTIATE_TEST_SUITE_P(
    AllPrograms, BenchmarkProgramTest,
    ::testing::Values("conditional_sum", "equal", "string_match",
                      "word_count", "histogram", "linear_regression",
                      "group_by", "matrix_addition", "matrix_multiplication",
                      "pagerank", "kmeans", "matrix_factorization"),
    [](const ::testing::TestParamInfo<std::string>& info) {
      return info.param;
    });

class HandwrittenAgreementTest
    : public ::testing::TestWithParam<std::string> {};

TEST_P(HandwrittenAgreementTest, HandwrittenMatchesDiablo) {
  const ProgramSpec& spec = GetProgram(GetParam());
  std::mt19937_64 rng(7);
  Bindings inputs = spec.make_inputs(SmallScale(spec.name), rng);
  runtime::EngineConfig config;

  auto diablo_stats = bench::RunDiablo(spec, inputs, config);
  ASSERT_TRUE(diablo_stats.ok()) << diablo_stats.status().ToString();
  auto hw_stats = bench::MeasureHandwritten(spec, inputs, config);
  ASSERT_TRUE(hw_stats.ok()) << hw_stats.status().ToString();

  const Value& expected = diablo_stats->output;
  const Value& got = hw_stats->output;
  if (expected.is_bag()) {
    EXPECT_TRUE(runtime::BagAlmostEquals(got, expected, 1e-6))
        << "handwritten: " << got.ToString()
        << "\nDIABLO: " << expected.ToString();
  } else {
    EXPECT_TRUE(runtime::AlmostEquals(got, expected, 1e-6))
        << "handwritten: " << got.ToString()
        << "\nDIABLO: " << expected.ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(
    ComparablePrograms, HandwrittenAgreementTest,
    ::testing::Values("conditional_sum", "equal", "string_match",
                      "word_count", "group_by", "matrix_addition",
                      "matrix_multiplication", "pagerank", "kmeans",
                      "matrix_factorization"),
    [](const ::testing::TestParamInfo<std::string>& info) {
      return info.param;
    });

}  // namespace
}  // namespace diablo::testing
