// Unit tests for the dependence analysis building blocks: reader/writer/
// aggregator sets (paper §3.2), overlap, indexes(d), and the affine
// checks.

#include <gtest/gtest.h>

#include "analysis/affine.h"
#include "analysis/lvalues.h"
#include "parser/parser.h"

namespace diablo::analysis {
namespace {

ast::Program MustParse(const std::string& src) {
  auto p = parser::ParseProgram(src);
  EXPECT_TRUE(p.ok()) << p.status().ToString();
  return *p;
}

std::vector<std::string> Names(const std::vector<ast::LValuePtr>& ds) {
  std::vector<std::string> out;
  for (const auto& d : ds) out.push_back(d->ToString());
  std::sort(out.begin(), out.end());
  return out;
}

TEST(Rwa, PaperExample) {
  // V[W[i]] += n * C[i] * C[i+1]:
  //   A = {V[W[i]]}, R = {W[i], n, C[i], C[i+1]}, W = {}.
  ast::Program p = MustParse("for i = 0, 9 do V[W[i]] += n * C[i] * C[i+1];");
  auto accesses = CollectAccesses(*p.stmts[0]);
  ASSERT_EQ(accesses.size(), 1u);
  const StmtAccessInfo& info = accesses[0];
  EXPECT_EQ(Names(info.aggregators),
            (std::vector<std::string>{"V[W[i]]"}));
  EXPECT_TRUE(info.writers.empty());
  // `i` is read once inside the destination index W[i] and once in each
  // of C[i] and C[i+1].
  EXPECT_EQ(Names(info.readers),
            (std::vector<std::string>{"C[(i + 1)]", "C[i]", "W[i]", "i",
                                      "i", "i", "n"}));
  EXPECT_EQ(info.context, (std::vector<std::string>{"i"}));
}

TEST(Rwa, ContextsOfNestedLoops) {
  ast::Program p = MustParse(R"(
    for i = 0, 9 do {
      for j = 0, 9 do
        V[i] += 1;
      W[i] := V[i];
    }
  )");
  auto accesses = CollectAccesses(*p.stmts[0]);
  ASSERT_EQ(accesses.size(), 2u);
  EXPECT_EQ(accesses[0].context, (std::vector<std::string>{"i", "j"}));
  EXPECT_EQ(accesses[1].context, (std::vector<std::string>{"i"}));
  EXPECT_LT(accesses[0].seq, accesses[1].seq);
}

TEST(Rwa, WritersVsAggregators) {
  ast::Program p = MustParse("for i = 0, 9 do { A[i] := 1; B[i] += 2; }");
  auto accesses = CollectAccesses(*p.stmts[0]);
  ASSERT_EQ(accesses.size(), 2u);
  EXPECT_EQ(accesses[0].writers.size(), 1u);
  EXPECT_TRUE(accesses[0].aggregators.empty());
  EXPECT_EQ(accesses[1].aggregators.size(), 1u);
  EXPECT_TRUE(accesses[1].writers.empty());
}

TEST(Overlap, SameRootOnly) {
  auto v1 = ast::LValue::MakeIndex(
      "V", {ast::Expr::MakeVar("i")});
  auto v2 = ast::LValue::MakeIndex(
      "V", {ast::Expr::MakeBin(runtime::BinOp::kSub, ast::Expr::MakeVar("i"),
                               ast::Expr::MakeInt(1))});
  auto w = ast::LValue::MakeIndex("W", {ast::Expr::MakeVar("i")});
  EXPECT_TRUE(Overlap(v1, v2));
  EXPECT_FALSE(Overlap(v1, w));
  // Projections overlap through their base.
  auto proj = ast::LValue::MakeProj(v1, "K");
  EXPECT_TRUE(Overlap(proj, v2));
}

TEST(LValueEquals, Structural) {
  ast::Program p = MustParse(
      "for i = 0, 9 do { V[i] := 0.0; V[i] += 1.0; V[i+1] += 1.0; }");
  auto accesses = CollectAccesses(*p.stmts[0]);
  ASSERT_EQ(accesses.size(), 3u);
  EXPECT_TRUE(LValueEquals(accesses[0].writers[0],
                           accesses[1].aggregators[0]));
  EXPECT_FALSE(LValueEquals(accesses[0].writers[0],
                            accesses[2].aggregators[0]));
}

TEST(Affine, Expressions) {
  std::set<std::string> idx = {"i", "j"};
  auto expr = [](const std::string& s) {
    auto e = parser::ParseExpr(s);
    EXPECT_TRUE(e.ok());
    return *e;
  };
  EXPECT_TRUE(IsAffineExpr(expr("i"), idx));
  EXPECT_TRUE(IsAffineExpr(expr("i + 1"), idx));
  EXPECT_TRUE(IsAffineExpr(expr("2*i + 3*j - 4"), idx));
  EXPECT_TRUE(IsAffineExpr(expr("n"), idx));        // loop constant
  EXPECT_TRUE(IsAffineExpr(expr("n*m + 7"), idx));  // constant expression
  EXPECT_TRUE(IsAffineExpr(expr("n*i"), idx));      // constant coefficient
  EXPECT_FALSE(IsAffineExpr(expr("i*j"), idx));
  EXPECT_FALSE(IsAffineExpr(expr("i/2"), idx));
  EXPECT_FALSE(IsAffineExpr(expr("V[i]"), idx));
}

TEST(Affine, Destinations) {
  auto parse_dest = [](const std::string& s) {
    auto p = parser::ParseProgram(s + " := 0;");
    EXPECT_TRUE(p.ok()) << p.status().ToString();
    return p->stmts[0]->as<ast::Stmt::Assign>().dest;
  };
  // affine(d, s) requires covering all loop indexes of the context.
  EXPECT_TRUE(IsAffineDest(parse_dest("V[i]"), {"i"}));
  EXPECT_TRUE(IsAffineDest(parse_dest("M[i,j]"), {"i", "j"}));
  EXPECT_TRUE(IsAffineDest(parse_dest("M[i+1,j-2]"), {"i", "j"}));
  EXPECT_FALSE(IsAffineDest(parse_dest("V[i]"), {"i", "j"}));  // j missing
  EXPECT_FALSE(IsAffineDest(parse_dest("V[W[i]]"), {"i"}));    // not affine
  EXPECT_FALSE(IsAffineDest(parse_dest("n"), {"i"}));  // scalar in a loop
  EXPECT_TRUE(IsAffineDest(parse_dest("n"), {}));      // scalar outside
  // Projections check their base: closest[i]._2 is affine in {i}.
  EXPECT_TRUE(IsAffineDest(parse_dest("closest[i]._2"), {"i"}));
}

TEST(Affine, InjectiveDestinations) {
  auto parse_dest = [](const std::string& s) {
    auto p = parser::ParseProgram(s + " := 0;");
    EXPECT_TRUE(p.ok()) << p.status().ToString();
    return p->stmts[0]->as<ast::Stmt::Assign>().dest;
  };
  // Full column rank: distinct iterations write distinct elements.
  EXPECT_TRUE(IsInjectiveDest(parse_dest("V[i]"), {"i"}));
  EXPECT_TRUE(IsInjectiveDest(parse_dest("V[2*i + n]"), {"i"}));
  EXPECT_TRUE(IsInjectiveDest(parse_dest("M[i,j]"), {"i", "j"}));
  EXPECT_TRUE(IsInjectiveDest(parse_dest("M[j+1,i-2]"), {"i", "j"}));
  EXPECT_TRUE(IsInjectiveDest(parse_dest("M[i+j,i-j]"), {"i", "j"}));
  EXPECT_TRUE(IsInjectiveDest(parse_dest("T[i,j,i+j]"), {"i", "j"}));
  EXPECT_TRUE(IsInjectiveDest(parse_dest("closest[i]._2"), {"i"}));
  EXPECT_TRUE(IsInjectiveDest(parse_dest("n"), {}));  // one iteration
  // Rank-deficient: some pair of iterations may meet.
  EXPECT_FALSE(IsInjectiveDest(parse_dest("V[i+j]"), {"i", "j"}));
  EXPECT_FALSE(IsInjectiveDest(parse_dest("M[i+j,2*i+2*j]"), {"i", "j"}));
  EXPECT_FALSE(IsInjectiveDest(parse_dest("V[10*i+j]"), {"i", "j"}));
  EXPECT_FALSE(IsInjectiveDest(parse_dest("V[0*i]"), {"i"}));
  EXPECT_FALSE(IsInjectiveDest(parse_dest("V[i]"), {"i", "j"}));
  EXPECT_FALSE(IsInjectiveDest(parse_dest("n"), {"i"}));
  // Not provable: a variable coefficient may be 0, and a non-affine
  // subscript has no coefficient matrix.
  EXPECT_FALSE(IsInjectiveDest(parse_dest("V[n*i]"), {"i"}));
  EXPECT_FALSE(IsInjectiveDest(parse_dest("V[W[i]]"), {"i"}));
  EXPECT_FALSE(
      IsInjectiveDest(parse_dest("V[4611686018427387904*i*4]"), {"i"}));
}

TEST(Indexes, OfDestination) {
  auto p = MustParse("for i = 0, 9 do for j = 0, 9 do M[i,j] += V[k];");
  auto accesses = CollectAccesses(*p.stmts[0]);
  std::set<std::string> loop_indexes = {"i", "j"};
  EXPECT_EQ(IndexesOf(accesses[0].aggregators[0], loop_indexes),
            (std::set<std::string>{"i", "j"}));
  // V[k] uses no loop indexes.
  for (const auto& r : accesses[0].readers) {
    if (r->ToString() == "V[k]") {
      EXPECT_TRUE(IndexesOf(r, loop_indexes).empty());
    }
  }
}

}  // namespace
}  // namespace diablo::analysis
