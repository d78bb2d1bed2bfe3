// Unit tests for the comprehension normalizer: Rule (2) unnesting,
// singleton-generator elimination, let-inlining (with group-by blocking
// and shadowing), condition simplification, and static projections.
// The golden test pins the normalized and optimized target text of every
// paper program and accepted example, compared up to the numbering of
// fresh names (regenerate with DIABLO_REGOLD=1).

#include "normalize/normalize.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "diablo/diablo.h"
#include "workloads/programs.h"

namespace diablo::normalize {
namespace {

using comp::CExpr;
using comp::CExprPtr;
using comp::CompPtr;
using comp::MakeBag;
using comp::MakeBin;
using comp::MakeComp;
using comp::MakeInt;
using comp::MakeNested;
using comp::MakeReduce;
using comp::MakeTuple;
using comp::MakeVar;
using comp::Pattern;
using comp::Qualifier;
using runtime::BinOp;

std::string Normalize(const CExprPtr& e) {
  comp::NameGen names("t");
  return NormalizeExpr(e, &names)->ToString();
}

TEST(Normalize, EmptyQualifiersBecomeBagLiteral) {
  // { h | } = {h}.
  EXPECT_EQ(Normalize(MakeNested(MakeComp(MakeInt(7), {}))), "{7}");
}

TEST(Normalize, SingletonGeneratorBecomesLetAndInlines) {
  // { v + 1 | v <- {3} } => {(3 + 1)}.
  CompPtr comp = MakeComp(
      MakeBin(BinOp::kAdd, MakeVar("v"), MakeInt(1)),
      {Qualifier::Generator(Pattern::Var("v"), MakeBag({MakeInt(3)}))});
  EXPECT_EQ(Normalize(MakeNested(comp)), "{(3 + 1)}");
}

TEST(Normalize, EmptyGeneratorCollapsesComprehension) {
  CompPtr comp = MakeComp(
      MakeVar("v"),
      {Qualifier::Generator(Pattern::Var("v"), MakeBag({}))});
  EXPECT_EQ(Normalize(MakeNested(comp)), "{}");
}

TEST(Normalize, Rule2UnnestsGeneratorOverComprehension) {
  // { x | x <- { y * 2 | (i,y) <- A } } => { y*2 flattened | (i,y) <- A }.
  CompPtr inner = MakeComp(
      MakeBin(BinOp::kMul, MakeVar("y"), MakeInt(2)),
      {Qualifier::Generator(
          Pattern::Tuple({Pattern::Var("i"), Pattern::Var("y")}),
          MakeVar("A"))});
  CompPtr outer = MakeComp(
      MakeVar("x"),
      {Qualifier::Generator(Pattern::Var("x"), MakeNested(inner))});
  std::string out = Normalize(MakeNested(outer));
  EXPECT_NE(out.find("<- A"), std::string::npos) << out;
  // Only one comprehension remains.
  EXPECT_EQ(out.find('{', 1), std::string::npos) << out;
  EXPECT_NE(out.find("* 2"), std::string::npos) << out;
}

TEST(Normalize, Rule2DoesNotUnnestGroupBy) {
  CompPtr inner = MakeComp(
      MakeVar("k"),
      {Qualifier::Generator(
           Pattern::Tuple({Pattern::Var("i"), Pattern::Var("y")}),
           MakeVar("A")),
       Qualifier::GroupBy(Pattern::Var("k"), MakeVar("i"))});
  CompPtr outer = MakeComp(
      MakeVar("x"),
      {Qualifier::Generator(Pattern::Var("x"), MakeNested(inner))});
  std::string out = Normalize(MakeNested(outer));
  // The nested comprehension survives as a generator domain.
  EXPECT_NE(out.find("group by"), std::string::npos) << out;
  EXPECT_NE(out.find("x <- {"), std::string::npos) << out;
}

TEST(Normalize, TupleLetSplitsComponentwise) {
  // { i + j | let (i,j) = (1,2) } => {(1 + 2)}.
  CompPtr comp = MakeComp(
      MakeBin(BinOp::kAdd, MakeVar("i"), MakeVar("j")),
      {Qualifier::Let(Pattern::Tuple({Pattern::Var("i"), Pattern::Var("j")}),
                      MakeTuple({MakeInt(1), MakeInt(2)}))});
  EXPECT_EQ(Normalize(MakeNested(comp)), "{(1 + 2)}");
}

TEST(Normalize, LetNotInlinedAcrossGroupByWhenUsedAfter) {
  // { +/v | (i,v0) <- A, let v = v0, group by k : i } — v is lifted to a
  // bag by the group-by; inlining v := v0 into the head would be wrong.
  CompPtr comp = MakeComp(
      MakeReduce(BinOp::kAdd, MakeVar("v")),
      {Qualifier::Generator(
           Pattern::Tuple({Pattern::Var("i"), Pattern::Var("v0")}),
           MakeVar("A")),
       Qualifier::Let(Pattern::Var("v"), MakeVar("v0")),
       Qualifier::GroupBy(Pattern::Var("k"), MakeVar("i"))});
  std::string out = Normalize(MakeNested(comp));
  EXPECT_NE(out.find("let v = v0"), std::string::npos) << out;
  EXPECT_NE(out.find("+/v"), std::string::npos) << out;
}

TEST(Normalize, LetInlinedIntoGroupByKeyItself) {
  // The key expression is evaluated pre-lift, so inlining into it is fine.
  CompPtr comp = MakeComp(
      MakeVar("k"),
      {Qualifier::Generator(
           Pattern::Tuple({Pattern::Var("i"), Pattern::Var("v")}),
           MakeVar("A")),
       Qualifier::Let(Pattern::Var("kk"), MakeVar("i")),
       Qualifier::GroupBy(Pattern::Var("k"), MakeVar("kk"))});
  std::string out = Normalize(MakeNested(comp));
  EXPECT_NE(out.find("group by k : i"), std::string::npos) << out;
}

TEST(Normalize, SubstitutionRespectsShadowing) {
  // { +/v | let v = 1, let v = {v}, group by k : () } — the second let
  // rebinds v; inlining the first must not reach past it.
  CompPtr comp = MakeComp(
      MakeReduce(BinOp::kAdd, MakeVar("v")),
      {Qualifier::Let(Pattern::Var("v"), MakeInt(1)),
       Qualifier::Let(Pattern::Var("v"), MakeBag({MakeVar("v")}))});
  std::string out = Normalize(MakeNested(comp));
  // v was inlined into the rebinding ({1}) and +/{1} folded to 1.
  EXPECT_EQ(out, "{1}");
}

TEST(Normalize, DeadLetsRemoved) {
  // { v | (i,v) <- A, let dead = i + 1 } — dead is unused.
  CompPtr comp = MakeComp(
      MakeVar("v"),
      {Qualifier::Generator(
           Pattern::Tuple({Pattern::Var("i"), Pattern::Var("v")}),
           MakeVar("A")),
       Qualifier::Let(Pattern::Var("dead"),
                      MakeBin(BinOp::kAdd, MakeVar("i"), MakeInt(1)))});
  EXPECT_EQ(Normalize(MakeNested(comp)), "{ v | (i,v) <- A }");
}

TEST(Normalize, CapturedLetNotInlined) {
  // let a = i, then i is rebound; a's rhs must not be substituted past
  // the rebinding of i.
  CompPtr comp = MakeComp(
      MakeBin(BinOp::kAdd, MakeVar("a"), MakeVar("i")),
      {Qualifier::Generator(
           Pattern::Tuple({Pattern::Var("i"), Pattern::Var("v")}),
           MakeVar("A")),
       Qualifier::Let(Pattern::Var("a"),
                      MakeBin(BinOp::kMul, MakeVar("i"), MakeInt(10))),
       Qualifier::Generator(
           Pattern::Tuple({Pattern::Var("i"), Pattern::Var("w")}),
           MakeVar("B"))});
  std::string out = Normalize(MakeNested(comp));
  // The let survives (its rhs reads the outer i).
  EXPECT_NE(out.find("let a = (i * 10)"), std::string::npos) << out;
  // And it is positioned before B's generator rebinds i.
  EXPECT_LT(out.find("let a"), out.find("<- B")) << out;
}

TEST(Normalize, TrivialConditionsDropped) {
  CompPtr comp = MakeComp(
      MakeVar("v"),
      {Qualifier::Generator(Pattern::Var("v"), MakeVar("A")),
       Qualifier::Condition(comp::MakeBool(true)),
       Qualifier::Condition(MakeBin(BinOp::kEq, MakeVar("v"), MakeVar("v")))});
  std::string out = Normalize(MakeNested(comp));
  EXPECT_EQ(out, "{ v | v <- A }");
}

TEST(Normalize, FalseConditionEmptiesComprehension) {
  CompPtr comp = MakeComp(
      MakeVar("v"),
      {Qualifier::Generator(Pattern::Var("v"), MakeVar("A")),
       Qualifier::Condition(comp::MakeBool(false))});
  EXPECT_EQ(Normalize(MakeNested(comp)), "{}");
}

TEST(Normalize, StaticTupleProjection) {
  EXPECT_EQ(Normalize(comp::MakeProj(MakeTuple({MakeInt(1), MakeInt(2)}),
                                     "_2")),
            "2");
}

TEST(Normalize, ReduceOfSingletonFolds) {
  EXPECT_EQ(Normalize(MakeReduce(BinOp::kAdd, MakeBag({MakeVar("w")}))),
            "w");
}

TEST(RenameBound, FreshensAllBinders) {
  CompPtr comp = MakeComp(
      MakeVar("v"),
      {Qualifier::Generator(
           Pattern::Tuple({Pattern::Var("i"), Pattern::Var("v")}),
           MakeVar("A")),
       Qualifier::Condition(MakeBin(BinOp::kEq, MakeVar("i"), MakeVar("k")))});
  comp::NameGen names("r");
  CompPtr renamed = RenameBound(comp, &names);
  // Bound names changed, the free k and the domain A did not.
  EXPECT_EQ(renamed->qualifiers[0].pattern.Vars()[0].substr(0, 2), "r$");
  EXPECT_NE(renamed->head->ToString(), "v");
  EXPECT_NE(renamed->qualifiers[1].expr->ToString().find("k"),
            std::string::npos);
  EXPECT_EQ(renamed->qualifiers[0].expr->ToString(), "A");
}

// ---- golden target text of the paper programs and examples ----

/// Renames the compiler's fresh names n$k to n$1, n$2, ... in order of
/// first appearance. Fresh-name numbering depends on the order in which
/// rewrites fire, so the golden compares target text up to it.
std::string RenumberFresh(const std::string& text) {
  auto ident = [](char c) {
    return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_' ||
           c == '$';
  };
  std::map<std::string, std::string> renamed;
  std::string out;
  size_t i = 0;
  while (i < text.size()) {
    if ((i == 0 || !ident(text[i - 1])) && text.compare(i, 2, "n$") == 0 &&
        i + 2 < text.size() &&
        std::isdigit(static_cast<unsigned char>(text[i + 2])) != 0) {
      size_t j = i + 2;
      while (j < text.size() &&
             std::isdigit(static_cast<unsigned char>(text[j])) != 0) {
        ++j;
      }
      auto [it, fresh] = renamed.emplace(text.substr(i, j - i), "");
      if (fresh) it->second = "n$" + std::to_string(renamed.size());
      out += it->second;
      i = j;
    } else {
      out += text[i++];
    }
  }
  return out;
}

struct GoldenProgram {
  std::string label;
  std::string source;
};

/// The 16 Table-1 programs, the Figure-3 programs not among them, and
/// every accepted example program.
std::vector<GoldenProgram> GoldenPrograms() {
  std::vector<GoldenProgram> out;
  for (const auto& entry : bench::Table1Programs()) {
    out.push_back({"table1/" + entry.name, entry.source});
  }
  for (const auto& spec : bench::BenchmarkPrograms()) {
    bool listed = std::any_of(out.begin(), out.end(), [&](const auto& p) {
      return p.source == spec.source;
    });
    if (!listed) out.push_back({"fig3/" + spec.name, spec.source});
  }
  std::vector<std::filesystem::path> examples;
  for (const auto& f : std::filesystem::directory_iterator(EXAMPLES_DIR)) {
    if (f.is_regular_file() && f.path().extension() == ".diablo") {
      examples.push_back(f.path());
    }
  }
  std::sort(examples.begin(), examples.end());
  for (const auto& path : examples) {
    std::ifstream in(path);
    std::ostringstream source;
    source << in.rdbuf();
    out.push_back({"examples/" + path.filename().string(), source.str()});
  }
  return out;
}

TEST(NormalizeGolden, PaperProgramsAndExamples) {
  std::string got;
  for (const GoldenProgram& program : GoldenPrograms()) {
    SCOPED_TRACE(program.label);
    CompileOptions unoptimized;
    unoptimized.enable_optimizer = false;
    auto normalized = Compile(program.source, unoptimized);
    ASSERT_TRUE(normalized.ok()) << normalized.status().ToString();
    auto optimized = Compile(program.source);
    ASSERT_TRUE(optimized.ok()) << optimized.status().ToString();
    got += RenumberFresh("== " + program.label + "\n-- normalized\n" +
                         normalized->TargetToString() + "\n-- optimized\n" +
                         optimized->TargetToString() + "\n");

    // Both outputs are normal forms: normalizing them again changes no
    // text and draws no fresh name.
    for (const auto* target : {&normalized->target, &optimized->target}) {
      comp::NameGen names("z");
      EXPECT_EQ(NormalizeTarget(*target, &names).ToString(),
                target->ToString());
      EXPECT_EQ(names.Fresh(), "z$1");
    }
  }

  const std::string golden_path =
      std::string(GOLDEN_DIR) + "/normalized_targets.txt";
  if (std::getenv("DIABLO_REGOLD") != nullptr) {
    std::ofstream out(golden_path);
    ASSERT_TRUE(out.good()) << "cannot write " << golden_path;
    out << got;
    GTEST_SKIP() << "regenerated " << golden_path;
  }
  std::ifstream in(golden_path);
  ASSERT_TRUE(in.good()) << "missing golden file " << golden_path
                         << " (regenerate with DIABLO_REGOLD=1)";
  std::ostringstream want;
  want << in.rdbuf();
  EXPECT_EQ(got, want.str())
      << "normalized or optimized target text changed; if intended, rerun "
         "with DIABLO_REGOLD=1";
}

}  // namespace
}  // namespace diablo::normalize
