// diablo_lint's two analysis levels: loop-level diagnostics with race
// witnesses (golden codes, witness confirmation against the reference
// interpreter, JSON schema stability) and plan-level shuffle lints
// (advisories P101-P105, and wide-stage totals validated against the
// metrics of real engine runs).

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/absint.h"
#include "analysis/diagnostics.h"
#include "analysis/loop_lint.h"
#include "analysis/plan_lint.h"
#include "analysis/restrictions.h"
#include "diablo/diablo.h"
#include "parser/parser.h"
#include "workloads/programs.h"

namespace diablo::analysis {
namespace {

using runtime::BinOp;
using runtime::Value;

std::vector<Diagnostic> Lint(const std::string& src) {
  auto p = parser::ParseProgram(src);
  EXPECT_TRUE(p.ok()) << p.status().ToString();
  return LintLoops(CanonicalizeIncrements(*p));
}

const Diagnostic* FindCode(const std::vector<Diagnostic>& diags,
                           const std::string& code,
                           const std::string& message_fragment = "") {
  for (const Diagnostic& d : diags) {
    if (d.code != code) continue;
    if (!message_fragment.empty() &&
        d.message.find(message_fragment) == std::string::npos) {
      continue;
    }
    return &d;
  }
  return nullptr;
}

bool HasCode(const std::vector<Diagnostic>& diags, const std::string& code) {
  return FindCode(diags, code) != nullptr;
}

constexpr const char kStencil[] = R"(
for i = 1, 8 do
  V[i] := (V[i-1] + V[i+1]) / 2.0;
)";

constexpr const char kNonAffineWrite[] = R"(
for i = 0, 4 do
  A[i*i - 2*i] := V[i] * 2.0;
)";

constexpr const char kBubbleSort[] = R"(
var t: double = 0.0;
for i = 0, 6 do {
  t := V[i];
  V[i] := V[i+1];
  V[i+1] := t;
}
)";

/// Evaluates an integer index expression with the reference interpreter,
/// binding the witness iteration's loop indexes as scalar inputs. This
/// is the ground-truth check that a reported witness really makes both
/// subscripts collide.
int64_t RefEval(const std::string& expr,
                const std::vector<std::pair<std::string, int64_t>>& env) {
  auto p = parser::ParseProgram("var out: int = " + expr + ";");
  EXPECT_TRUE(p.ok()) << p.status().ToString();
  exec::ReferenceInterpreter interp;
  exec::ReferenceInterpreter::Bindings inputs;
  for (const auto& [var, val] : env) inputs[var] = Value::MakeInt(val);
  Status st = interp.Run(*p, inputs);
  EXPECT_TRUE(st.ok()) << st.ToString();
  auto out = interp.GetScalar("out");
  EXPECT_TRUE(out.ok()) << out.status().ToString();
  return out->AsInt();
}

// ------------------------- loop-level witnesses ----------------------------

TEST(LoopLint, StencilReportsWriteReadWitness) {
  std::vector<Diagnostic> diags = Lint(kStencil);
  EXPECT_TRUE(HasErrors(diags));
  // The paper's example race: the write at i=1 and the read of V[i-1]
  // at i'=2 both touch V[1].
  const Diagnostic* d = FindCode(diags, diag::kWriteReadRecurrence, "i - 1");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::kError);
  ASSERT_TRUE(d->witness.has_value());
  const Witness& w = *d->witness;
  EXPECT_EQ(w.array, "V");
  ASSERT_EQ(w.write_iteration.size(), 1u);
  EXPECT_EQ(w.write_iteration[0].first, "i");
  EXPECT_EQ(w.write_iteration[0].second, 1);
  ASSERT_EQ(w.read_iteration.size(), 1u);
  EXPECT_EQ(w.read_iteration[0].second, 2);
  ASSERT_EQ(w.element.size(), 1u);
  EXPECT_EQ(w.element[0], 1);
  EXPECT_FALSE(w.conflict_is_write);
  EXPECT_EQ(w.ToString(), "write at i=1 and read at i=2 both touch V[1]");
}

TEST(LoopLint, StencilWitnessConfirmedByReferenceInterpreter) {
  std::vector<Diagnostic> diags = Lint(kStencil);
  const Diagnostic* d = FindCode(diags, diag::kWriteReadRecurrence, "i - 1");
  ASSERT_NE(d, nullptr);
  ASSERT_TRUE(d->witness.has_value());
  // Written destination is V[i] under the write iteration, read
  // destination is V[i-1] under the read iteration; both must evaluate
  // to the witness element.
  int64_t write_elem = RefEval("i", d->witness->write_iteration);
  int64_t read_elem = RefEval("i - 1", d->witness->read_iteration);
  EXPECT_EQ(write_elem, d->witness->element[0]);
  EXPECT_EQ(read_elem, d->witness->element[0]);
  // And the two iterations are genuinely distinct.
  EXPECT_NE(d->witness->write_iteration[0].second,
            d->witness->read_iteration[0].second);
}

TEST(LoopLint, NonAffineWriteReportsSelfConflictWitness) {
  std::vector<Diagnostic> diags = Lint(kNonAffineWrite);
  const Diagnostic* d = FindCode(diags, diag::kNonAffineDest);
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::kError);
  ASSERT_TRUE(d->witness.has_value());
  const Witness& w = *d->witness;
  EXPECT_TRUE(w.conflict_is_write);
  EXPECT_EQ(w.array, "A");
  // i=0 and i=2 both write A[0].
  ASSERT_EQ(w.write_iteration.size(), 1u);
  ASSERT_EQ(w.read_iteration.size(), 1u);
  EXPECT_EQ(w.write_iteration[0].second, 0);
  EXPECT_EQ(w.read_iteration[0].second, 2);
  ASSERT_EQ(w.element.size(), 1u);
  EXPECT_EQ(w.element[0], 0);
  // Confirm with the reference interpreter: the quadratic subscript
  // really collides at the two witness iterations.
  EXPECT_EQ(RefEval("i*i - 2*i", w.write_iteration), w.element[0]);
  EXPECT_EQ(RefEval("i*i - 2*i", w.read_iteration), w.element[0]);
}

TEST(LoopLint, NonInjectiveWriteReportsWriteWriteWitness) {
  // A[i+j] is affine and covers both indexes, but it is not injective:
  // the engine kept A[1] = 1 and the reference interpreter A[1] = 2.
  std::vector<Diagnostic> diags = Lint(R"(
    for i = 0, 3 do
      for j = 0, 3 do
        A[i+j] := V[i];
  )");
  const Diagnostic* d = FindCode(diags, diag::kNonAffineDest, "injective");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::kError);
  ASSERT_TRUE(d->witness.has_value());
  const Witness& w = *d->witness;
  EXPECT_TRUE(w.conflict_is_write);
  using Iteration = std::vector<std::pair<std::string, int64_t>>;
  EXPECT_EQ(w.write_iteration, (Iteration{{"i", 0}, {"j", 1}}));
  EXPECT_EQ(w.read_iteration, (Iteration{{"i", 1}, {"j", 0}}));
  ASSERT_EQ(w.element.size(), 1u);
  EXPECT_EQ(RefEval("i + j", w.write_iteration), w.element[0]);
  EXPECT_EQ(RefEval("i + j", w.read_iteration), w.element[0]);
}

TEST(LoopLint, RankDeficientButInjectiveOnBoundsIsAccepted) {
  // [10 1] has rank 1 < 2, but with j in 0..9 no two iterations meet.
  EXPECT_FALSE(HasErrors(Lint(R"(
    for i = 0, 9 do
      for j = 0, 9 do
        A[10*i+j] := M[i,j];
  )")));
  // Full rank, no search needed.
  EXPECT_FALSE(HasErrors(Lint(R"(
    for i = 0, 9 do
      for j = 0, 9 do
        A[i+j, i-j] := M[i,j];
  )")));
  // With j in 0..3, A[2*i+j] is written at i=0,j=2 and at i=1,j=0.
  std::vector<Diagnostic> diags = Lint(R"(
    for i = 0, 9 do
      for j = 0, 3 do
        A[2*i+j] := M[i,j];
  )");
  const Diagnostic* d = FindCode(diags, diag::kNonAffineDest);
  ASSERT_NE(d, nullptr);
  ASSERT_TRUE(d->witness.has_value());
  EXPECT_EQ(d->witness->element, std::vector<int64_t>{2});
  // With j in 0..10 the collision needs j=10, beyond the max_domain
  // values a pair search tries; the search over differences is exact on
  // known bounds.
  diags = Lint(R"(
    for i = 0, 9 do
      for j = 0, 10 do
        A[10*i+j] := M[i,j];
  )");
  d = FindCode(diags, diag::kNonAffineDest);
  ASSERT_NE(d, nullptr);
  ASSERT_TRUE(d->witness.has_value());
  using Iteration = std::vector<std::pair<std::string, int64_t>>;
  EXPECT_EQ(d->witness->write_iteration, (Iteration{{"i", 0}, {"j", 10}}));
  EXPECT_EQ(d->witness->read_iteration, (Iteration{{"i", 1}, {"j", 0}}));
  EXPECT_EQ(d->witness->element, std::vector<int64_t>{10});
  // A scalar offset cancels between the two iterations: still a race,
  // reported without a witness since the element depends on n.
  diags = Lint(R"(
    for i = 0, 3 do
      for j = 0, 3 do
        A[i+j+n] := M[i,j];
  )");
  d = FindCode(diags, diag::kNonAffineDest);
  ASSERT_NE(d, nullptr);
  EXPECT_FALSE(d->witness.has_value());
}

TEST(LoopLint, BubbleSortReportsRecurrenceAndScalarDest) {
  std::vector<Diagnostic> diags = Lint(kBubbleSort);
  EXPECT_TRUE(HasErrors(diags));
  // The swap's loop-carried read of V[i+1] gets a concrete witness.
  const Diagnostic* swap =
      FindCode(diags, diag::kWriteReadRecurrence, "V[(i + 1)] is read but V[i]");
  ASSERT_NE(swap, nullptr);
  ASSERT_TRUE(swap->witness.has_value());
  EXPECT_EQ(RefEval("i", swap->witness->write_iteration),
            RefEval("i + 1", swap->witness->read_iteration));
  // The scalar temporary misses the loop index entirely (D004): every
  // iteration writes the same location.
  const Diagnostic* scalar = FindCode(diags, diag::kDestMissesIndexes);
  ASSERT_NE(scalar, nullptr);
  ASSERT_TRUE(scalar->witness.has_value());
  EXPECT_TRUE(scalar->witness->conflict_is_write);
  EXPECT_EQ(scalar->witness->ElementString(), "t");
}

TEST(LoopLint, GcdFilterSuppressesWitnessForDisjointLattices) {
  // 2i and 2i'+1 never collide (parity): the recurrence is still flagged
  // conservatively (name overlap), but no witness can exist.
  std::vector<Diagnostic> diags = Lint(R"(
    for i = 0, 9 do
      V[2*i] := V[2*i + 1] * 0.5;
  )");
  const Diagnostic* d = FindCode(diags, diag::kWriteReadRecurrence);
  ASSERT_NE(d, nullptr);
  EXPECT_FALSE(d->witness.has_value());
}

TEST(LoopLint, TwoDimensionalWitness) {
  std::vector<Diagnostic> diags = Lint(R"(
    for i = 0, 4 do
      for j = 0, 4 do
        M[i,j] := M[j,i] + 1.0;
  )");
  const Diagnostic* d = FindCode(diags, diag::kWriteReadRecurrence);
  ASSERT_NE(d, nullptr);
  ASSERT_TRUE(d->witness.has_value());
  const Witness& w = *d->witness;
  ASSERT_EQ(w.write_iteration.size(), 2u);
  ASSERT_EQ(w.read_iteration.size(), 2u);
  ASSERT_EQ(w.element.size(), 2u);
  // write M[i,j] at (i,j), read M[j',i'] at (i',j'): same element.
  EXPECT_EQ(w.write_iteration[0].second, w.element[0]);
  EXPECT_EQ(w.write_iteration[1].second, w.element[1]);
  EXPECT_EQ(w.read_iteration[1].second, w.element[0]);
  EXPECT_EQ(w.read_iteration[0].second, w.element[1]);
}

// ------------------------- structural and advisory lints -------------------

TEST(LoopLint, StructuralCodes) {
  EXPECT_TRUE(HasCode(Lint("for i = 0, 3 do { var x: double = 0.0; "
                           "W[i] := x; }"),
                      diag::kDeclInLoop));
  EXPECT_TRUE(HasCode(Lint("for i = 0, 3 do for i = 0, 3 do "
                           "M[i,i] := 1.0;"),
                      diag::kDuplicateIndex));
  EXPECT_TRUE(HasCode(Lint("for v in V do while (v > 0.0) v := v - 1.0;"),
                      diag::kForInWhile));
}

TEST(LoopLint, ShadowedIndexWarning) {
  std::vector<Diagnostic> diags = Lint(R"(
    var i: int = 7;
    for i = 0, 3 do
      V[i] := W[i];
  )");
  const Diagnostic* d = FindCode(diags, diag::kShadowedIndex);
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::kWarning);
  EXPECT_FALSE(HasErrors(diags));
}

TEST(LoopLint, NonCommutativeSelfUpdateWarning) {
  std::vector<Diagnostic> diags =
      Lint("for i = 0, 3 do V[i] := V[i] - W[i];");
  const Diagnostic* d = FindCode(diags, diag::kNonCommutativeUpdate);
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::kWarning);
}

TEST(LoopLint, NonAffineReadAdvisory) {
  std::vector<Diagnostic> diags =
      Lint("for i = 0, 3 do W[i] := V[i*i];");
  EXPECT_FALSE(HasErrors(diags));
  const Diagnostic* d = FindCode(diags, diag::kNonAffineRead);
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::kWarning);
}

TEST(LoopLint, AcceptedBenchmarksHaveNoErrors) {
  std::vector<std::pair<std::string, std::string>> programs;
  for (const auto& spec : bench::BenchmarkPrograms()) {
    programs.emplace_back(spec.name, spec.source);
  }
  for (const auto& entry : bench::Table1Programs()) {
    programs.emplace_back(entry.name, entry.source);
  }
  for (const auto& file :
       std::filesystem::directory_iterator(EXAMPLES_DIR)) {
    if (file.path().extension() != ".diablo") continue;
    std::ifstream in(file.path());
    std::stringstream text;
    text << in.rdbuf();
    programs.emplace_back(file.path().filename().string(), text.str());
  }
  ASSERT_GE(programs.size(), 12u + 16u + 6u);
  for (const auto& [name, source] : programs) {
    std::vector<Diagnostic> diags = Lint(source);
    EXPECT_FALSE(HasErrors(diags))
        << name << ":\n" << RenderTextAll(diags, source, name);
  }
}

// ------------------------- determinism and rendering -----------------------

TEST(LoopLint, ReportIsSortedAndDeterministic) {
  const std::string src = R"(
    for i = 0, 3 do
      V[i] := V[i+1];
    for j = 0, 3 do
      W[j] := W[j+1];
  )";
  std::vector<Diagnostic> first = Lint(src);
  std::vector<Diagnostic> second = Lint(src);
  ASSERT_FALSE(first.empty());
  EXPECT_EQ(RenderTextAll(first, src, "t"), RenderTextAll(second, src, "t"));
  for (size_t i = 1; i < first.size(); ++i) {
    EXPECT_LE(first[i - 1].loc.line, first[i].loc.line);
  }
}

TEST(LoopLint, RestrictionReportMatchesErrorDiagnostics) {
  // The legacy checker is now a projection of the linter: same errors,
  // same order, same (deduplicated) count.
  auto p = parser::ParseProgram(kBubbleSort);
  ASSERT_TRUE(p.ok());
  ast::Program canon = CanonicalizeIncrements(*p);
  RestrictionReport report = CheckProgram(canon);
  EXPECT_FALSE(report.ok);
  std::vector<Diagnostic> diags = LintLoops(canon);
  EXPECT_EQ(report.violations.size(),
            static_cast<size_t>(CountSeverity(diags, Severity::kError)));
  size_t k = 0;
  for (const Diagnostic& d : diags) {
    if (d.severity != Severity::kError) continue;
    EXPECT_EQ(report.violations[k].message, d.message);
    EXPECT_EQ(report.violations[k].loc.line, d.loc.line);
    ++k;
  }
}

TEST(Diagnostics, JsonSchemaIsStable) {
  Diagnostic d;
  d.code = diag::kWriteReadRecurrence;
  d.severity = Severity::kError;
  d.loc = {3, 5};
  d.message = "recurrence: \"x\"";
  d.hint = "copy first";
  Witness w;
  w.array = "V";
  w.write_iteration = {{"i", 1}};
  w.read_iteration = {{"i", 2}};
  w.element = {1};
  d.witness = w;
  EXPECT_EQ(RenderJson(d),
            "{\"code\":\"D001\",\"severity\":\"error\",\"line\":3,"
            "\"column\":5,\"message\":\"recurrence: \\\"x\\\"\","
            "\"hint\":\"copy first\",\"witness\":{\"array\":\"V\","
            "\"element\":[1],\"element_string\":\"V[1]\","
            "\"conflict\":\"read\",\"write\":{\"i\":1},"
            "\"read\":{\"i\":2}}}");
}

TEST(Diagnostics, JsonGoldenForStencil) {
  std::vector<Diagnostic> diags = Lint(kStencil);
  std::string json = RenderJsonAll(diags, "stencil.diablo");
  EXPECT_NE(json.find("\"file\":\"stencil.diablo\""), std::string::npos);
  EXPECT_NE(json.find("\"code\":\"D001\""), std::string::npos);
  EXPECT_NE(json.find("\"write\":{\"i\":1},\"read\":{\"i\":2}"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"element\":[1]"), std::string::npos);
  EXPECT_NE(json.find("\"errors\":2"), std::string::npos);
}

TEST(Diagnostics, TextRenderingHasCaretAndWitness) {
  std::vector<Diagnostic> diags = Lint(kStencil);
  std::string text = RenderTextAll(diags, kStencil, "stencil.diablo");
  EXPECT_NE(text.find("stencil.diablo:3:3: error: D001"), std::string::npos)
      << text;
  EXPECT_NE(text.find("  ^"), std::string::npos);
  EXPECT_NE(text.find("witness: write at i=1 and read at i=2 both touch "
                      "V[1]"),
            std::string::npos)
      << text;
}

// ------------------------- plan-level lints --------------------------------

PlanLintResult PlanLintSource(const std::string& src,
                              bool optimize = true) {
  CompileOptions options;
  options.enable_optimizer = optimize;
  auto compiled = Compile(src, options);
  EXPECT_TRUE(compiled.ok()) << compiled.status().ToString();
  std::set<std::string> array_vars;
  for (const auto& [name, info] : compiled->vars) {
    if (info.is_array) array_vars.insert(name);
  }
  return LintTargetProgram(compiled->target, array_vars);
}

TEST(PlanLint, WordCountTotalMatchesEngineRun) {
  const auto& spec = bench::GetProgram("word_count");
  // One reduceByKey: C is declared empty, so the optimizer builds it from
  // the delta and drops the ⊳+ merge's coGroup.
  PlanLintResult lint = PlanLintSource(spec.source);
  EXPECT_EQ(lint.total_wide_stages, 1);
  runtime::Engine engine;
  std::mt19937_64 rng(7);
  auto run = CompileAndRun(spec.source, &engine, spec.make_inputs(64, rng));
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(lint.total_wide_stages, engine.metrics().num_wide_stages());
}

TEST(PlanLint, PageRankTotalMatchesEngineRun) {
  const auto& spec = bench::GetProgram("pagerank");
  // The first updates of the fresh C, P and Q drop their merges: 7 of
  // the translation's 10 wide stages remain.
  PlanLintResult lint = PlanLintSource(spec.source);
  EXPECT_EQ(lint.total_wide_stages, 7);
  runtime::Engine engine;
  std::mt19937_64 rng(7);
  // make_inputs binds num_steps=1, so the while body runs exactly once —
  // the same convention the static count uses.
  auto run = CompileAndRun(spec.source, &engine, spec.make_inputs(3, rng));
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(lint.total_wide_stages, engine.metrics().num_wide_stages());
}

TEST(PlanLint, EmitsPerStatementShuffleNotes) {
  PlanLintResult lint = PlanLintSource(
      "for w in words do C[w] += 1;");
  const Diagnostic* stmt = FindCode(lint.diagnostics, diag::kStmtShuffles);
  ASSERT_NE(stmt, nullptr);
  EXPECT_NE(stmt->message.find("reduceByKey"), std::string::npos);
  EXPECT_NE(stmt->message.find("B/row"), std::string::npos);
  const Diagnostic* total = FindCode(lint.diagnostics,
                                     diag::kProgramShuffles);
  ASSERT_NE(total, nullptr);
  EXPECT_NE(total->message.find("2 wide"), std::string::npos);
}

TEST(PlanLint, EmptyMergeAdvisoryOnFirstUpdate) {
  // C is declared empty and immediately merged into: the coGroup's left
  // side is provably empty. The optimizer drops that merge, so the
  // advisory shows on the raw translation.
  const std::string src =
      "var C: map[string,int] = map();\n"
      "for w in words do C[w] += 1;";
  EXPECT_TRUE(HasCode(PlanLintSource(src, /*optimize=*/false).diagnostics,
                      diag::kEmptyMerge));
  EXPECT_FALSE(HasCode(PlanLintSource(src).diagnostics, diag::kEmptyMerge));
}

TEST(PlanLint, EmptyMergeKeptWhenKeysMayRepeat) {
  // A for-in index is an element value: "spark" may come twice, so the
  // merge stays to keep one value per key, and P104 still reports it.
  PlanLintResult lint = PlanLintSource(
      "var C: map[string,int] = map();\n"
      "for w in words do C[w] := 1;");
  EXPECT_TRUE(HasCode(lint.diagnostics, diag::kEmptyMerge));
}

TEST(PlanLint, EmptyMergeWidensThroughWhileLoops) {
  // Vold is assigned inside the while body, so from the second iteration
  // on it is not empty: no P104 for it.
  const std::string src = R"(
    var d: double = 1.0;
    var Vold: vector[double] = vector();
    while (d > 0.1) {
      for i = 0, 3 do
        Vold[i] := V[i];
      d := d / 2.0;
    }
  )";
  PlanLintResult lint = PlanLintSource(src);
  EXPECT_FALSE(HasCode(lint.diagnostics, diag::kEmptyMerge));
}

TEST(PlanLint, CartesianProductAdvisory) {
  PlanLintResult lint = PlanLintSource(R"(
    for i = 0, 3 do
      for j = 0, 3 do
        R[i,j] := A[i] * B[j];
  )");
  EXPECT_TRUE(HasCode(lint.diagnostics, diag::kCartesianProduct));
}

TEST(PlanLint, GroupByOnlyReducedAdvisory) {
  // Hand-built: { (k, +/v) | (k,v) <- V, group by k, +/v > 0 }. The
  // trailing condition keeps the planner from using its reduceByKey
  // special form, so the plan materializes per-key bags that are then
  // only ever reduced — exactly what P101 flags.
  using comp::Pattern;
  using comp::Qualifier;
  auto comp = comp::MakeComp(
      comp::MakeTuple({comp::MakeVar("k"),
                       comp::MakeReduce(BinOp::kAdd, comp::MakeVar("v"))}),
      {Qualifier::Generator(
           Pattern::Tuple({Pattern::Var("k"), Pattern::Var("v")}),
           comp::MakeVar("V")),
       Qualifier::GroupBy(Pattern::Var("k"), comp::MakeVar("k")),
       Qualifier::Condition(comp::MakeBin(
           BinOp::kGt, comp::MakeReduce(BinOp::kAdd, comp::MakeVar("v")),
           comp::MakeInt(0)))});
  comp::TargetProgram target;
  target.stmts.push_back(comp::MakeAssign(
      "out", comp::MakeNested(comp), /*is_array=*/true, {2, 1}));
  PlanLintResult lint = LintTargetProgram(target, {"V", "out"});
  const Diagnostic* d = FindCode(lint.diagnostics, diag::kGroupByReduce);
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::kWarning);
}

TEST(PlanLint, FilterAboveJoinAdvisory) {
  // { a | (i,a) <- A, (j,b) <- B, j == i, a > 0 }: the a > 0 condition
  // lands above the join but only reads pre-join variables.
  using comp::Pattern;
  using comp::Qualifier;
  auto comp = comp::MakeComp(
      comp::MakeVar("a"),
      {Qualifier::Generator(
           Pattern::Tuple({Pattern::Var("i"), Pattern::Var("a")}),
           comp::MakeVar("A")),
       Qualifier::Generator(
           Pattern::Tuple({Pattern::Var("j"), Pattern::Var("b")}),
           comp::MakeVar("B")),
       Qualifier::Condition(
           comp::MakeBin(BinOp::kEq, comp::MakeVar("j"),
                         comp::MakeVar("i"))),
       Qualifier::Condition(comp::MakeBin(BinOp::kGt, comp::MakeVar("a"),
                                          comp::MakeInt(0)))});
  comp::TargetProgram target;
  target.stmts.push_back(comp::MakeAssign(
      "out", comp::MakeNested(comp), /*is_array=*/true, {3, 1}));
  PlanLintResult lint = LintTargetProgram(target, {"A", "B", "out"});
  const Diagnostic* d = FindCode(lint.diagnostics, diag::kFilterAboveJoin);
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::kWarning);
}

TEST(PlanLint, MissedFusionAdvisory) {
  // T is built by a narrow map over A and scanned exactly once: the
  // materialization between the two narrow pipelines is flagged.
  using comp::Pattern;
  using comp::Qualifier;
  auto produce = comp::MakeComp(
      comp::MakeTuple({comp::MakeVar("i"),
                       comp::MakeBin(BinOp::kMul, comp::MakeVar("a"),
                                     comp::MakeInt(2))}),
      {Qualifier::Generator(
          Pattern::Tuple({Pattern::Var("i"), Pattern::Var("a")}),
          comp::MakeVar("A"))});
  auto consume = comp::MakeComp(
      comp::MakeVar("t"),
      {Qualifier::Generator(
          Pattern::Tuple({Pattern::Var("j"), Pattern::Var("t")}),
          comp::MakeVar("T"))});
  comp::TargetProgram target;
  target.stmts.push_back(comp::MakeAssign(
      "T", comp::MakeMerge(comp::MakeVar("T"), comp::MakeNested(produce)),
      /*is_array=*/true, {1, 1}));
  target.stmts.push_back(comp::MakeAssign(
      "s", comp::MakeNested(consume), /*is_array=*/false, {2, 1}));
  PlanLintResult lint = LintTargetProgram(target, {"A", "T"});
  const Diagnostic* d = FindCode(lint.diagnostics, diag::kMissedFusion);
  ASSERT_NE(d, nullptr);
  EXPECT_NE(d->message.find("'T'"), std::string::npos);
}

// --------------------- interval-backed cost advisories ---------------------

TEST(PlanLint, TypedShuffleBytesMatchEngineRun) {
  // The reduceByKey rows here are int-keyed int pairs, so the typed byte
  // model prices each at 4 (pair tag) + 8 (key) + 8 (value) = 20 B —
  // not the flat bytes_per_slot guess — and the two range generators
  // bound the key cardinality at 100. Every key is distinct, so the
  // map-side combine collapses nothing and the engine must report
  // exactly the predicted bytes across its reduceByKey shuffle.
  const std::string src =
      "var C: map[int,int] = map();\n"
      "for i = 0, 9 do\n"
      "  for j = 0, 9 do\n"
      "    C[i * 10 + j] += 1;\n";
  PlanLintResult lint = PlanLintSource(src);
  const Diagnostic* card = FindCode(lint.diagnostics, diag::kKeyCardinality);
  ASSERT_NE(card, nullptr);
  EXPECT_EQ(card->severity, Severity::kNote);
  EXPECT_NE(card->message.find("bounded by 100"), std::string::npos)
      << card->message;
  EXPECT_NE(card->message.find("~2000 B"), std::string::npos)
      << card->message;

  runtime::Engine engine;
  auto run = CompileAndRun(src, &engine, {});
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  int64_t engine_bytes = 0;
  for (const auto& stage : engine.metrics().stages()) {
    if (stage.label.find("reduceByKey") != std::string::npos) {
      engine_bytes += stage.shuffle_bytes;
    }
  }
  EXPECT_EQ(engine_bytes, 2000);
}

TEST(PlanLint, BroadcastJoinHintOnProvablySmallSide) {
  // W is provably at most 8 rows (constant range bounds), so the join
  // in the S loop gets the P202 broadcast hint; the merge targets do
  // not (they are coGroups, not joins).
  PlanLintResult lint = PlanLintSource(
      "var W: vector[double] = vector();\n"
      "for i = 0, 7 do\n"
      "  W[i] := 0.5 * i;\n"
      "var S: vector[double] = vector();\n"
      "for i = 0, 7 do\n"
      "  S[i] += V[i] * W[i];\n");
  const Diagnostic* hint = FindCode(lint.diagnostics,
                                    diag::kBroadcastJoinHint);
  ASSERT_NE(hint, nullptr);
  EXPECT_EQ(hint->severity, Severity::kWarning);
  EXPECT_NE(hint->message.find("'W'"), std::string::npos);
  EXPECT_NE(hint->message.find("8 row"), std::string::npos);
}

TEST(PlanLint, NoBroadcastHintWithoutRowBound) {
  // V is a host input with no static bound: both join sides are
  // unbounded, so no hint.
  PlanLintResult lint = PlanLintSource(
      "var S: vector[double] = vector();\n"
      "for i = 0, 7 do\n"
      "  S[i] += V[i] * W[i];\n");
  EXPECT_FALSE(HasCode(lint.diagnostics, diag::kBroadcastJoinHint));
}

TEST(PlanLint, AbsintScalarsFeedRowBounds) {
  // The loop bound is the scalar n, constant only through the abstract
  // interpreter's facts: without them W is unbounded (no P202), with
  // them the planner-level lint proves |W| <= 8.
  const std::string src =
      "var n: int = 8;\n"
      "var W: vector[double] = vector();\n"
      "for i = 0, n - 1 do\n"
      "  W[i] := 0.5 * i;\n"
      "var S: vector[double] = vector();\n"
      "for i = 0, n - 1 do\n"
      "  S[i] += V[i] * W[i];\n";
  auto parsed = parser::ParseProgram(src);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  AbsintResult absint = AnalyzeProgram(CanonicalizeIncrements(*parsed));
  ASSERT_TRUE(absint.int_scalars.count("n"));
  EXPECT_EQ(absint.int_scalars.at("n"), Interval::Const(8));

  auto compiled = Compile(src);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  std::set<std::string> array_vars;
  for (const auto& [name, info] : compiled->vars) {
    if (info.is_array) array_vars.insert(name);
  }
  PlanLintResult without =
      LintTargetProgram(compiled->target, array_vars);
  EXPECT_FALSE(HasCode(without.diagnostics, diag::kBroadcastJoinHint));

  PlanLintOptions options;
  options.int_scalars = &absint.int_scalars;
  PlanLintResult with =
      LintTargetProgram(compiled->target, array_vars, options);
  const Diagnostic* hint = FindCode(with.diagnostics,
                                    diag::kBroadcastJoinHint);
  ASSERT_NE(hint, nullptr);
  EXPECT_NE(hint->message.find("8 row"), std::string::npos);
}

}  // namespace
}  // namespace diablo::analysis
