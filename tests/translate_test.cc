// Tests for the Figure-2 translation rules, following the paper's worked
// derivations (§3.4, §3.9). Rule outputs are compared after
// normalization, which performs the same unnesting steps the paper does
// by hand.

#include "translate/translate.h"

#include <gtest/gtest.h>

#include <string>

#include "common/strings.h"
#include "normalize/normalize.h"
#include "parser/parser.h"

namespace diablo::translate {
namespace {

using comp::CExpr;

std::map<std::string, VarInfo> ArrayVars(std::vector<std::string> names) {
  std::map<std::string, VarInfo> vars;
  for (const std::string& n : names) vars[n].is_array = true;
  return vars;
}

std::string NormalizedE(const std::string& expr_src,
                        std::vector<std::string> arrays) {
  auto e = parser::ParseExpr(expr_src);
  EXPECT_TRUE(e.ok()) << e.status().ToString();
  Rules rules(ArrayVars(std::move(arrays)));
  auto lifted = rules.E(**e);
  EXPECT_TRUE(lifted.ok()) << lifted.status().ToString();
  comp::NameGen names("t");
  return normalize::NormalizeExpr(*lifted, &names)->ToString();
}

TEST(RuleE, ConstantsLiftToSingletons) {
  EXPECT_EQ(NormalizedE("42", {}), "{42}");
  EXPECT_EQ(NormalizedE("true", {}), "{true}");
}

TEST(RuleE, VariableLiftsToSingleton) {
  EXPECT_EQ(NormalizedE("x", {}), "{x}");
}

TEST(RuleE, MatrixIndexing) {
  // Paper §3.8: E[M[1,2]] = { v | ((i,j),v) <- M, i = 1, j = 2 }.
  std::string out = NormalizedE("M[1,2]", {"M"});
  EXPECT_NE(out.find("<- M"), std::string::npos) << out;
  EXPECT_NE(out.find("== 1)"), std::string::npos) << out;
  EXPECT_NE(out.find("== 2)"), std::string::npos) << out;
}

TEST(RuleE, ProductOfMatrixAccessesBecomesJoinShape) {
  // §3.4: M[i,k]*N[k,j] normalizes to a single comprehension over both
  // matrices with equality conditions — the join form.
  std::string out = NormalizedE("M[i,k] * N[k,j]", {"M", "N"});
  EXPECT_NE(out.find("<- M"), std::string::npos) << out;
  EXPECT_NE(out.find("<- N"), std::string::npos) << out;
  // The head multiplies the two matrix values.
  EXPECT_NE(out.find(" * "), std::string::npos) << out;
  // No nested comprehension braces beyond the outer one: flattened.
  EXPECT_EQ(out.find("{", 1), std::string::npos) << out;
}

TEST(RuleK, Shapes) {
  Rules rules(ArrayVars({"V", "M"}));
  auto parse_dest = [](const std::string& s) {
    auto p = parser::ParseProgram(s + " := 0;");
    EXPECT_TRUE(p.ok());
    return p->stmts[0]->as<ast::Stmt::Assign>().dest;
  };
  comp::NameGen names("t");
  // K[n] = {()}.
  auto k_scalar = rules.K(*parse_dest("n"));
  ASSERT_TRUE(k_scalar.ok());
  EXPECT_EQ(normalize::NormalizeExpr(*k_scalar, &names)->ToString(), "{()}");
  // K[V[i]] = E[i] = {i}.
  auto k_vec = rules.K(*parse_dest("V[i]"));
  ASSERT_TRUE(k_vec.ok());
  EXPECT_EQ(normalize::NormalizeExpr(*k_vec, &names)->ToString(), "{i}");
  // K[M[i,j]] = {(i,j)}.
  auto k_mat = rules.K(*parse_dest("M[i,j]"));
  ASSERT_TRUE(k_mat.ok());
  EXPECT_EQ(normalize::NormalizeExpr(*k_mat, &names)->ToString(), "{(i,j)}");
  // K[d.A] = K[d].
  auto k_proj = rules.K(*parse_dest("V[i].A"));
  ASSERT_TRUE(k_proj.ok());
  EXPECT_EQ(normalize::NormalizeExpr(*k_proj, &names)->ToString(), "{i}");
}

TEST(RuleD, RecoversValueFromKey) {
  Rules rules(ArrayVars({"V"}));
  auto p = parser::ParseProgram("V[i] := 0;");
  ASSERT_TRUE(p.ok());
  auto d = rules.D(*p->stmts[0]->as<ast::Stmt::Assign>().dest,
                   comp::MakeVar("k"));
  ASSERT_TRUE(d.ok());
  // D[V[i]](k) = { v | (i,v) <- V, i = k }.
  std::string out = (*d)->ToString();
  EXPECT_NE(out.find("<- V"), std::string::npos) << out;
  EXPECT_NE(out.find("== k"), std::string::npos) << out;
}

// ----------------------- whole-statement translations ----------------------

std::string TranslateAndNormalize(const std::string& src) {
  auto p = parser::ParseProgram(src);
  EXPECT_TRUE(p.ok()) << p.status().ToString();
  auto result = Translate(*p);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  comp::NameGen names("t");
  return normalize::NormalizeTarget(result->program, &names).ToString();
}

TEST(RuleS, NonIncrementalVectorCopy) {
  // §3.9 example 1: for i = 1,10 do V[i] := W[i]
  //   => V := V ⊳ { (i,w) | i <- range(1,10), (j,w) <- W, j = i }.
  std::string out = TranslateAndNormalize("for i = 1, 10 do V[i] := W[i];");
  EXPECT_NE(out.find("V := V <| "), std::string::npos) << out;
  EXPECT_NE(out.find("range(1,10)"), std::string::npos) << out;
  EXPECT_NE(out.find("<- W"), std::string::npos) << out;
}

TEST(RuleS, IncrementalIndirectUpdate) {
  // §3.9 example 2: for i = 1,10 do W[K[i]] += V[i] becomes a group-by
  // comprehension merged into W with +.
  std::string out =
      TranslateAndNormalize("for i = 1, 10 do W[K[i]] += V[i];");
  EXPECT_NE(out.find("W := W <|+ "), std::string::npos) << out;
  EXPECT_NE(out.find("group by"), std::string::npos) << out;
  EXPECT_NE(out.find("+/"), std::string::npos) << out;
  EXPECT_NE(out.find("<- K"), std::string::npos) << out;
  EXPECT_NE(out.find("<- V"), std::string::npos) << out;
}

TEST(RuleS, ScalarIncrementGetsUnitGroup) {
  std::string out = TranslateAndNormalize(R"(
    var n: int = 0;
    for v in W do n += v;
  )");
  // n := { n + (+/...) | ... } with the group-by on () (later removed by
  // Rule 16, which is not run here).
  EXPECT_NE(out.find("n := "), std::string::npos) << out;
  EXPECT_NE(out.find("group by"), std::string::npos) << out;
}

TEST(RuleS, WhileLoopsStaySequential) {
  std::string out = TranslateAndNormalize(R"(
    var k: int = 0;
    while (k < 10) k += 1;
  )");
  EXPECT_NE(out.find("while ("), std::string::npos) << out;
}

TEST(RuleS, IfSplitsIntoGuardedStatements) {
  std::string out = TranslateAndNormalize(R"(
    var a: int = 0;
    var b: int = 0;
    for v in V do
      if (v > 0.0) a += 1; else b += 1;
  )");
  // Both branches appear as separate guarded assignments (15g).
  EXPECT_NE(out.find("a := "), std::string::npos) << out;
  EXPECT_NE(out.find("b := "), std::string::npos) << out;
  EXPECT_NE(out.find("!"), std::string::npos) << out;
}

TEST(RuleS, MatrixMultiplicationMatchesIntroduction) {
  // The introduction's headline translation: R gets one bulk assignment
  // with a join between M and N and a group-by over (i,j).
  std::string out = TranslateAndNormalize(R"(
    var R: matrix[double] = matrix();
    for i = 0, 9 do
      for j = 0, 9 do {
        R[i,j] := 0.0;
        for k = 0, 9 do
          R[i,j] += M[i,k]*N[k,j];
      }
  )");
  EXPECT_NE(out.find("R := R <|+ "), std::string::npos) << out;
  EXPECT_NE(out.find("<- M"), std::string::npos) << out;
  EXPECT_NE(out.find("<- N"), std::string::npos) << out;
  EXPECT_NE(out.find("group by"), std::string::npos) << out;
}

TEST(RuleS, UnsupportedConstructsAreReported) {
  auto p = parser::ParseProgram("for v in V do { while (v > 0.0) x += 1; }");
  ASSERT_TRUE(p.ok());
  auto result = Translate(*p);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kUnsupported);
}

TEST(RuleS, EveryErrorNamesItsLine) {
  struct Case {
    const char* src;
    const char* what;
    int line;  ///< of the rejected statement
  };
  // A declaration makes an indexed name a scalar, before or after the
  // indexing.
  const Case cases[] = {
      {"var x: int = 0;\nx := f(3);", "unknown function 'f'", 2},
      {"var c: double = 0.0;\nc.y += 1.0;", "record field c.y", 2},
      {"x[1] := 2;\nvar x: int = 0;", "indexing non-array variable 'x'", 1},
      {"x[1] += 2;\nvar x: int = 0;", "indexing non-array variable 'x'", 1},
      {"var y: int = x[1];\nvar x: int = 0;",
       "indexing non-array variable 'x'", 1},
      {"var x: int = 0;\nx[1] := 2;", "indexing non-array variable 'x'", 2},
      {"var x: int = 0;\nx[1] += 2;", "indexing non-array variable 'x'", 2},
      {"var x: int = 5;\nvar y: int = x[1];",
       "indexing non-array variable 'x'", 2},
      {"var V: vector[int] = vector();\nV += 1;",
       "incremental update to whole array 'V'", 2},
      {"var V: vector[int] = vector();\nvar x: int = 0;\nV := x;",
       "assigning scalar 'x' to array 'V'", 3},
      {"var x: int = 0;\nfor i = 1, 3 do\n  var y: int = i;",
       "declaration of 'y' inside a for-loop", 3},
      {"var x: int = 0;\nfor v in V do { while (v > 0.0) x += 1; }",
       "for-in loop containing a while-loop", 2},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.src);
    auto p = parser::ParseProgram(c.src);
    ASSERT_TRUE(p.ok()) << p.status().ToString();
    auto result = Translate(*p);
    ASSERT_FALSE(result.ok());
    const std::string& msg = result.status().message();
    EXPECT_NE(msg.find(c.what), std::string::npos) << msg;
    EXPECT_NE(msg.find(StrCat("(line ", c.line, ", column ")),
              std::string::npos)
        << msg;
  }
}

TEST(InferVars, ClassifiesNames) {
  auto p = parser::ParseProgram(R"(
    var n: int = 0;
    var C: map[int,int] = map();
    for v in V do
      C[M[v,v]] += n;
  )");
  ASSERT_TRUE(p.ok());
  auto vars = InferVars(*p);
  EXPECT_FALSE(vars.at("n").is_array);
  EXPECT_TRUE(vars.at("n").declared);
  EXPECT_TRUE(vars.at("C").is_array);
  EXPECT_TRUE(vars.at("V").is_array);   // for-in domain
  EXPECT_TRUE(vars.at("M").is_array);   // indexed
  EXPECT_FALSE(vars.at("V").declared);  // host input
}

TEST(InferVars, IndexingKeepsADeclaredScalarScalar) {
  auto p = parser::ParseProgram(R"(
    var x: int = 0;
    x[1] := 2;
    var y: int = x[2];
  )");
  ASSERT_TRUE(p.ok());
  auto vars = InferVars(*p);
  EXPECT_FALSE(vars.at("x").is_array);
  EXPECT_TRUE(vars.at("x").declared);
}

}  // namespace
}  // namespace diablo::translate
