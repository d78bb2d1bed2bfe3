#include "analysis/restrictions.h"

#include "analysis/absint.h"
#include "analysis/loop_lint.h"
#include "analysis/lvalues.h"
#include "analysis/merge_algebra.h"
#include "common/strings.h"

namespace diablo::analysis {

using ast::Expr;
using ast::Stmt;
using ast::StmtPtr;

// --------------------------- canonicalization ------------------------------

namespace {

StmtPtr CanonicalizeStmt(const StmtPtr& s) {
  if (s->is<Stmt::Assign>()) {
    const auto& node = s->as<Stmt::Assign>();
    // d := d ⊕ e  or  d := e ⊕ d  (⊕ commutative)  =>  d ⊕= e.
    if (node.value->is<Expr::Bin>()) {
      const auto& bin = node.value->as<Expr::Bin>();
      if (runtime::IsCommutativeMonoid(bin.op)) {
        auto side_matches = [&](const ast::ExprPtr& side) {
          return side->is<Expr::LVal>() &&
                 LValueEquals(side->as<Expr::LVal>().lvalue, node.dest);
        };
        if (side_matches(bin.lhs)) {
          return Stmt::MakeIncr(node.dest, bin.op, bin.rhs, s->loc);
        }
        if (side_matches(bin.rhs)) {
          return Stmt::MakeIncr(node.dest, bin.op, bin.lhs, s->loc);
        }
      }
    }
    return s;
  }
  if (s->is<Stmt::ForRange>()) {
    const auto& node = s->as<Stmt::ForRange>();
    return Stmt::MakeForRange(node.var, node.lo, node.hi,
                              CanonicalizeStmt(node.body), s->loc);
  }
  if (s->is<Stmt::ForEach>()) {
    const auto& node = s->as<Stmt::ForEach>();
    return Stmt::MakeForEach(node.var, node.collection,
                             CanonicalizeStmt(node.body), s->loc);
  }
  if (s->is<Stmt::While>()) {
    const auto& node = s->as<Stmt::While>();
    return Stmt::MakeWhile(node.cond, CanonicalizeStmt(node.body), s->loc);
  }
  if (s->is<Stmt::If>()) {
    const auto& node = s->as<Stmt::If>();
    return Stmt::MakeIf(node.cond, CanonicalizeStmt(node.then_branch),
                        node.else_branch != nullptr
                            ? CanonicalizeStmt(node.else_branch)
                            : nullptr,
                        s->loc);
  }
  if (s->is<Stmt::Block>()) {
    std::vector<StmtPtr> stmts;
    for (const auto& child : s->as<Stmt::Block>().stmts) {
      stmts.push_back(CanonicalizeStmt(child));
    }
    return Stmt::MakeBlock(std::move(stmts), s->loc);
  }
  return s;
}

}  // namespace

ast::Program CanonicalizeIncrements(const ast::Program& program) {
  ast::Program out;
  for (const auto& s : program.stmts) out.stmts.push_back(CanonicalizeStmt(s));
  return out;
}

// --------------------------- helpers ----------------------------------------

bool ContainsWhile(const Stmt& stmt) {
  if (stmt.is<Stmt::While>()) return true;
  if (stmt.is<Stmt::ForRange>()) {
    return ContainsWhile(*stmt.as<Stmt::ForRange>().body);
  }
  if (stmt.is<Stmt::ForEach>()) {
    return ContainsWhile(*stmt.as<Stmt::ForEach>().body);
  }
  if (stmt.is<Stmt::If>()) {
    const auto& node = stmt.as<Stmt::If>();
    if (ContainsWhile(*node.then_branch)) return true;
    return node.else_branch != nullptr && ContainsWhile(*node.else_branch);
  }
  if (stmt.is<Stmt::Block>()) {
    for (const auto& child : stmt.as<Stmt::Block>().stmts) {
      if (ContainsWhile(*child)) return true;
    }
  }
  return false;
}

// --------------------------- checking ---------------------------------------

std::string RestrictionReport::ToString() const {
  if (ok) return "OK";
  std::vector<std::string> lines;
  for (const auto& v : violations) {
    lines.push_back(StrCat(v.message, " (", LocationString(v.loc), ")"));
  }
  return Join(lines, "\n");
}

std::vector<Diagnostic> RestrictionDiagnostics(const ast::Program& program) {
  // The Definition 3.1 checker proper lives in the loop linter, which
  // reports rich diagnostics (stable codes, race witnesses, hints).
  std::vector<Diagnostic> diags = LintLoops(program);
  // Proven semantic errors (D2xx): statically out-of-bounds writes and
  // zero divisors from the abstract interpreter, non-associative merges
  // from the algebra checker. Each carries a concrete witness.
  for (Diagnostic& d : AnalyzeProgram(program).diagnostics) {
    diags.push_back(std::move(d));
  }
  for (Diagnostic& d : LintMergeOperators(program)) {
    diags.push_back(std::move(d));
  }
  SortAndDedupe(&diags);
  return diags;
}

RestrictionReport CheckProgram(const ast::Program& program) {
  // The report keeps only the error-severity subset as plain messages,
  // already sorted by source location and deduplicated.
  RestrictionReport report;
  for (const Diagnostic& d : RestrictionDiagnostics(program)) {
    if (d.severity != Severity::kError) continue;
    report.ok = false;
    report.violations.push_back({d.message, d.loc});
  }
  return report;
}

Status CheckRestrictions(const ast::Program& program) {
  RestrictionReport report = CheckProgram(program);
  if (report.ok) return Status::OK();
  return Status::RestrictionViolation(report.ToString());
}

}  // namespace diablo::analysis
