// Merge elision (opt::OptimizeTarget): the first update of a freshly
// declared array builds it straight from the update's delta instead of
// merging the delta into nothing. Generated programs cover every shape
// the rewrite touches and the three it must leave alone; each runs on the
// engine (1 and 4 host threads, and under injected faults with
// wire-format shuffles) and on the local backend, and must agree with the
// reference interpreter as bags. The optimized target text shows which
// merges were dropped.

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <sstream>

#include "tests/test_util.h"

namespace diablo::testing {
namespace {

/// One generated program: its source, inputs, the arrays to compare, and
/// per updated array how many of its updates keep their merge and how
/// many are built directly.
struct Case {
  std::string source;
  Bindings inputs;
  std::vector<std::string> arrays;
  std::vector<std::string> scalars;
  struct Updates {
    std::string array;
    int dropped = 0;
    int kept = 0;
  };
  std::vector<Updates> updates;
};

enum class Shape {
  kAssign1D,
  kAssign2D,
  kIncrement,
  kArgmin,
  kConditional,
  kRedeclaredInWhile,
  kRefilledAfterWhile,
  // The three shapes that keep their merge follow.
  kDeclaredBeforeWhile,
  kTwoUpdatesOneLoop,
  kForInAssign,
};

const char* ShapeName(Shape s) {
  switch (s) {
    case Shape::kAssign1D:
      return "assign_1d";
    case Shape::kAssign2D:
      return "assign_2d";
    case Shape::kIncrement:
      return "increment";
    case Shape::kArgmin:
      return "argmin";
    case Shape::kConditional:
      return "conditional";
    case Shape::kRedeclaredInWhile:
      return "redeclared_in_while";
    case Shape::kRefilledAfterWhile:
      return "refilled_after_while";
    case Shape::kDeclaredBeforeWhile:
      return "declared_before_while";
    case Shape::kTwoUpdatesOneLoop:
      return "two_updates_one_loop";
    case Shape::kForInAssign:
      return "for_in_assign";
  }
  return "?";
}

int64_t Pick(std::mt19937_64& rng, int64_t lo, int64_t hi) {
  return lo + static_cast<int64_t>(rng() % static_cast<uint64_t>(hi - lo + 1));
}

Value RandomDoubles(std::mt19937_64& rng, int64_t n) {
  ValueVec rows;
  for (int64_t i = 0; i < n; ++i) {
    rows.push_back(Pair(IV(i), DV(static_cast<double>(Pick(rng, -40, 40)) / 4)));
  }
  return Bag(std::move(rows));
}

Value RandomMatrix(std::mt19937_64& rng, int64_t n, int64_t m) {
  ValueVec rows;
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t j = 0; j < m; ++j) {
      rows.push_back(Pair(Tup({IV(i), IV(j)}),
                          DV(static_cast<double>(Pick(rng, -40, 40)) / 4)));
    }
  }
  return Bag(std::move(rows));
}

/// Int keys in [0, buckets): with n > buckets some repeat.
Value RandomKeys(std::mt19937_64& rng, int64_t n, int64_t buckets) {
  ValueVec rows;
  for (int64_t i = 0; i < n; ++i) {
    rows.push_back(Pair(IV(i), IV(Pick(rng, 0, buckets - 1))));
  }
  return Bag(std::move(rows));
}

Case Generate(Shape shape, uint64_t seed) {
  std::mt19937_64 rng(seed * 104729 + static_cast<uint64_t>(shape));
  const int64_t n = Pick(rng, 5, 24);
  const int64_t m = Pick(rng, 2, 6);
  // Dense vectors reject negative subscripts, so offsets keep them >= 0.
  const int64_t c = Pick(rng, 0, 3);
  Case out;
  out.inputs = {{"V", RandomDoubles(rng, n)},
                {"W", RandomDoubles(rng, n)},
                {"K", RandomKeys(rng, n, Pick(rng, 2, 5))},
                {"M", RandomMatrix(rng, n, m)},
                {"n", IV(n)},
                {"m", IV(m)}};
  std::ostringstream src;
  switch (shape) {
    case Shape::kAssign1D: {
      // Coefficient ±1 or ±2 with an offset: injective in i.
      const int64_t a = std::vector<int64_t>{-2, -1, 1, 2}[rng() % 4];
      src << "var A: vector[double] = vector();\n"
          << "for i = 0, n - 1 do\n"
          << "  A[" << a << " * i + " << std::max<int64_t>(0, -a) << " * n + "
          << c << "] := V[i] * 2.0 + W[i];\n";
      out.arrays = {"A"};
      out.updates = {{"A", 1, 0}};
      break;
    }
    case Shape::kAssign2D: {
      // Transposed with offsets, or skewed: both have full column rank.
      src << "var R: matrix[double] = matrix();\n"
          << "for i = 0, n - 1 do\n"
          << "  for j = 0, m - 1 do\n";
      if (rng() % 2 == 0) {
        src << "    R[j + " << c << ", i + 1] := M[i,j] + V[i];\n";
      } else {
        src << "    R[i + j, i - j + m] := M[i,j] * 2.0;\n";
      }
      out.arrays = {"R"};
      out.updates = {{"R", 1, 0}};
      break;
    }
    case Shape::kIncrement: {
      const char* op = std::vector<const char*>{"+", "min", "max"}[rng() % 3];
      src << "var C: vector[double] = vector();\n"
          << "var D: matrix[double] = matrix();\n"
          << "for i = 0, n - 1 do\n"
          << "  C[K[i]] " << op << "= V[i];\n"
          << "for i = 0, n - 1 do\n"
          << "  for j = 0, m - 1 do\n"
          << "    D[K[i], j] " << op << "= M[i,j];\n";
      out.arrays = {"C", "D"};
      out.updates = {{"C", 1, 0}, {"D", 1, 0}};
      break;
    }
    case Shape::kArgmin: {
      src << "var best: vector[(double,int)] = vector();\n"
          << "for i = 0, n - 1 do\n"
          << "  for j = 0, m - 1 do\n"
          << "    best[i] argmin= (M[i,j], j);\n";
      out.arrays = {"best"};
      out.updates = {{"best", 1, 0}};
      break;
    }
    case Shape::kConditional: {
      const int64_t t = Pick(rng, -5, 5);
      src << "var A: vector[double] = vector();\n"
          << "var C: vector[double] = vector();\n"
          << "for i = 0, n - 1 do\n"
          << "  if (V[i] < " << t << ".0)\n"
          << "    A[i + " << c << "] := V[i];\n"
          << "for i = 0, n - 1 do\n"
          << "  if (W[i] > " << t << ".0)\n"
          << "    C[K[i]] += W[i];\n";
      out.arrays = {"A", "C"};
      out.updates = {{"A", 1, 0}, {"C", 1, 0}};
      break;
    }
    case Shape::kRedeclaredInWhile: {
      // T is empty again at the top of every iteration.
      src << "var k: int = 0;\n"
          << "var s: double = 0.0;\n"
          << "while (k < " << Pick(rng, 1, 3) << ") {\n"
          << "  var T: vector[double] = vector();\n"
          << "  k += 1;\n"
          << "  for i = 0, n - 1 do\n"
          << "    T[i + k] := V[i] + s;\n"
          << "  for i = 0, n - 1 do\n"
          << "    s += T[i];\n"
          << "}\n";
      out.arrays = {"T"};
      out.scalars = {"s"};
      out.updates = {{"T", 1, 0}};
      break;
    }
    case Shape::kRefilledAfterWhile: {
      // The loop may run zero times and leave A as filled before it, so
      // only the first fill is built directly.
      src << "var A: vector[double] = vector();\n"
          << "var k: int = 0;\n"
          << "for i = 0, n - 1 do\n"
          << "  A[i] := V[i];\n"
          << "while (k < " << Pick(rng, 0, 2) << ") {\n"
          << "  var A: vector[double] = vector();\n"
          << "  k += 1;\n"
          << "}\n"
          << "for i = 0, n - 1 do\n"
          << "  A[i + n] := W[i];\n";
      out.arrays = {"A"};
      out.updates = {{"A", 1, 1}};
      break;
    }
    case Shape::kDeclaredBeforeWhile: {
      // From the second iteration on A holds the previous rows.
      src << "var A: vector[double] = vector();\n"
          << "var k: int = 0;\n"
          << "while (k < " << Pick(rng, 1, 3) << ") {\n"
          << "  k += 1;\n"
          << "  for i = 0, n - 1 do\n"
          << "    A[i + k] := V[i];\n"
          << "}\n";
      out.arrays = {"A"};
      out.updates = {{"A", 0, 1}};
      break;
    }
    case Shape::kTwoUpdatesOneLoop: {
      // The first update builds A; the second merges into it.
      src << "var A: vector[double] = vector();\n"
          << "for i = 0, n - 1 do {\n"
          << "  A[2 * i] := V[i];\n"
          << "  A[2 * i + 1] := W[i];\n"
          << "}\n";
      out.arrays = {"A"};
      out.updates = {{"A", 1, 1}};
      break;
    }
    case Shape::kForInAssign: {
      // K's values repeat, so the delta repeats keys: the merge stays.
      src << "var C: vector[int] = vector();\n"
          << "for v in K do\n"
          << "  C[v] := v * " << Pick(rng, 1, 3) << ";\n";
      out.arrays = {"C"};
      out.updates = {{"C", 0, 1}};
      break;
    }
  }
  out.source = src.str();
  return out;
}

/// Occurrences of `needle` in `text`.
int Count(const std::string& text, const std::string& needle) {
  int count = 0;
  for (size_t at = text.find(needle); at != std::string::npos;
       at = text.find(needle, at + 1)) {
    ++count;
  }
  return count;
}

runtime::EngineConfig Config(int threads, bool faults) {
  runtime::EngineConfig config;
  config.host_threads = threads;
  config.num_partitions = 4;
  if (faults) {
    config.serialize_shuffles = true;
    config.faults.seed = 11;
    config.faults.task_failure_rate = 0.15;
    config.faults.straggler_rate = 0.05;
    config.faults.corrupt_shuffle_rate = 0.002;
    config.faults.max_task_attempts = 8;
  }
  return config;
}

class MergeElisionTest
    : public ::testing::TestWithParam<std::tuple<Shape, int>> {};

TEST_P(MergeElisionTest, DroppedMergesMatchReference) {
  const auto [shape, seed] = GetParam();
  const Case c = Generate(shape, static_cast<uint64_t>(seed));
  SCOPED_TRACE(c.source);

  auto compiled = Compile(c.source);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  const std::string text = compiled->TargetToString();
  for (const Case::Updates& u : c.updates) {
    EXPECT_EQ(Count(text, u.array + " := {"), u.dropped) << text;
    EXPECT_EQ(Count(text, u.array + " := " + u.array + " <|"), u.kept)
        << text;
  }
  // --no-opt keeps the raw translation: every update merges.
  CompileOptions raw_options;
  raw_options.enable_optimizer = false;
  auto raw = Compile(c.source, raw_options);
  ASSERT_TRUE(raw.ok()) << raw.status().ToString();
  for (const Case::Updates& u : c.updates) {
    EXPECT_EQ(Count(raw->TargetToString(), u.array + " := " + u.array + " <|"),
              u.dropped + u.kept);
  }

  auto ref = RunReference(c.source, c.inputs);
  ASSERT_TRUE(ref.ok()) << ref.status().ToString();
  auto local = RunLocal(*compiled, c.inputs);
  ASSERT_TRUE(local.ok()) << local.status().ToString();
  for (const std::string& a : c.arrays) {
    auto want = (*ref)->GetArray(a);
    ASSERT_TRUE(want.ok()) << want.status().ToString();
    auto got = (*local)->GetArray(a);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_TRUE(runtime::BagAlmostEquals(*got, *want, 1e-9))
        << "local " << a << ": " << got->ToString()
        << "\nreference: " << want->ToString();
  }
  for (const auto& [threads, faults] :
       std::vector<std::pair<int, bool>>{{1, false}, {4, false}, {4, true}}) {
    SCOPED_TRACE(StrCat("threads=", threads, " faults=", faults));
    runtime::Engine engine(Config(threads, faults));
    auto run = diablo::Run(*compiled, &engine, c.inputs);
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    for (const std::string& a : c.arrays) {
      auto want = (*ref)->GetArray(a);
      auto got = run->Array(a);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      EXPECT_TRUE(runtime::BagAlmostEquals(*got, *want, 1e-9))
          << "engine " << a << ": " << got->ToString()
          << "\nreference: " << want->ToString();
    }
    for (const std::string& s : c.scalars) {
      auto want = (*ref)->GetScalar(s);
      auto got = run->Scalar(s);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      EXPECT_TRUE(runtime::AlmostEquals(*got, *want, 1e-9))
          << "engine " << s << ": " << got->ToString()
          << "\nreference: " << want->ToString();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Generated, MergeElisionTest,
    ::testing::Combine(
        ::testing::Values(Shape::kAssign1D, Shape::kAssign2D,
                          Shape::kIncrement, Shape::kArgmin,
                          Shape::kConditional, Shape::kRedeclaredInWhile,
                          Shape::kRefilledAfterWhile,
                          Shape::kDeclaredBeforeWhile,
                          Shape::kTwoUpdatesOneLoop, Shape::kForInAssign),
        ::testing::Range(1, 5)),
    [](const ::testing::TestParamInfo<std::tuple<Shape, int>>& info) {
      return StrCat(ShapeName(std::get<0>(info.param)), "_seed",
                    std::get<1>(info.param));
    });

}  // namespace
}  // namespace diablo::testing
