// Tests for the Table-1 baseline translators (MOLD-like template search,
// Casper-like synthesize-and-verify): success on the flat loops, failure
// on the complex programs, and the effort gap against DIABLO.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <limits>

#include "baselines/casper_like.h"
#include "baselines/mold_like.h"
#include "diablo/diablo.h"
#include "workloads/programs.h"

namespace diablo::baselines {
namespace {

const std::string& Source(const std::string& name) {
  for (const auto& entry : bench::Table1Programs()) {
    if (entry.name == name) return entry.source;
  }
  static const std::string kEmpty;
  ADD_FAILURE() << "unknown program " << name;
  return kEmpty;
}

TEST(MoldLike, TranslatesSimpleFold) {
  BaselineResult r = MoldLikeTranslate(Source("sum"));
  EXPECT_TRUE(r.success) << r.failure_reason;
  EXPECT_NE(r.output.find(".reduce(_+_)"), std::string::npos) << r.output;
}

TEST(MoldLike, TranslatesFilteredFold) {
  BaselineResult r = MoldLikeTranslate(Source("conditional_sum"));
  EXPECT_TRUE(r.success) << r.failure_reason;
  EXPECT_NE(r.output.find(".filter("), std::string::npos) << r.output;
}

TEST(MoldLike, TranslatesGroupBy) {
  BaselineResult r = MoldLikeTranslate(Source("word_count"));
  EXPECT_TRUE(r.success) << r.failure_reason;
  EXPECT_NE(r.output.find(".reduceByKey(_+_)"), std::string::npos)
      << r.output;
}

TEST(MoldLike, TranslatesHistogramViaLoopSplitting) {
  BaselineResult r = MoldLikeTranslate(Source("histogram"));
  EXPECT_TRUE(r.success) << r.failure_reason;
  // Three reduceByKey pipelines, one per channel.
  size_t count = 0, pos = 0;
  while ((pos = r.output.find("reduceByKey", pos)) != std::string::npos) {
    ++count;
    ++pos;
  }
  EXPECT_EQ(count, 3u);
}

TEST(MoldLike, FailsOnComplexPrograms) {
  for (const char* name :
       {"pagerank", "matrix_factorization", "kmeans",
        "matrix_multiplication"}) {
    BaselineResult r = MoldLikeTranslate(Source(name));
    EXPECT_FALSE(r.success) << name << " unexpectedly translated:\n"
                            << r.output;
  }
}

TEST(CasperLike, SynthesizesSum) {
  BaselineResult r = CasperLikeTranslate(Source("sum"));
  EXPECT_TRUE(r.success) << r.failure_reason;
  EXPECT_NE(r.output.find(".reduce(_+_)"), std::string::npos) << r.output;
  EXPECT_GT(r.states_explored, 0);
}

TEST(CasperLike, SynthesizesCount) {
  BaselineResult r = CasperLikeTranslate(Source("count"));
  EXPECT_TRUE(r.success) << r.failure_reason;
}

TEST(CasperLike, SynthesizesConditionalSum) {
  BaselineResult r = CasperLikeTranslate(Source("conditional_sum"));
  EXPECT_TRUE(r.success) << r.failure_reason;
}

TEST(CasperLike, SynthesizesWordCount) {
  BaselineResult r = CasperLikeTranslate(Source("word_count"));
  EXPECT_TRUE(r.success) << r.failure_reason;
  EXPECT_NE(r.output.find("reduceByKey"), std::string::npos) << r.output;
}

TEST(CasperLike, FailsOutsideSynthesizableFragment) {
  for (const char* name :
       {"matrix_multiplication", "pagerank", "kmeans",
        "linear_regression", "matrix_factorization", "pca"}) {
    BaselineResult r = CasperLikeTranslate(Source(name));
    EXPECT_FALSE(r.success) << name;
  }
}

TEST(CasperLike, SynthesisCostExceedsDiabloByOrdersOfMagnitude) {
  // The Table-1 headline: compositional translation is a linear pass;
  // synthesis explores a candidate space. Compare explored candidates
  // against the size of the program (a proxy independent of wall-clock
  // noise), and wall-clock as a sanity check.
  const std::string& src = Source("conditional_sum");
  // Warm both paths once (first-call static initialization), then time
  // interleaved runs and compare the fastest of each: a preemption
  // inflates single runs, never the minimum over several.
  ASSERT_TRUE(Compile(src).ok());
  BaselineResult casper = CasperLikeTranslate(src);
  ASSERT_TRUE(casper.success) << casper.failure_reason;
  EXPECT_GT(casper.states_explored, 100);

  constexpr int kRuns = 5;
  using Clock = std::chrono::steady_clock;
  double diablo_s = std::numeric_limits<double>::infinity();
  double casper_s = std::numeric_limits<double>::infinity();
  for (int i = 0; i < kRuns; ++i) {
    auto t0 = Clock::now();
    ASSERT_TRUE(Compile(src).ok());
    auto t1 = Clock::now();
    ASSERT_TRUE(CasperLikeTranslate(src).success);
    auto t2 = Clock::now();
    diablo_s =
        std::min(diablo_s, std::chrono::duration<double>(t1 - t0).count());
    casper_s =
        std::min(casper_s, std::chrono::duration<double>(t2 - t1).count());
  }
  EXPECT_GT(casper_s, diablo_s)
      << "casper " << casper_s << "s vs diablo " << diablo_s << "s";
}

TEST(Baselines, DiabloHandlesEveryTable1Program) {
  for (const auto& entry : bench::Table1Programs()) {
    auto compiled = Compile(entry.source);
    EXPECT_TRUE(compiled.ok())
        << entry.name << ": " << compiled.status().ToString();
  }
}

}  // namespace
}  // namespace diablo::baselines
