#ifndef DIABLO_ANALYSIS_RESTRICTIONS_H_
#define DIABLO_ANALYSIS_RESTRICTIONS_H_

#include <string>
#include <vector>

#include "analysis/diagnostics.h"
#include "ast/ast.h"
#include "common/status.h"

namespace diablo::analysis {

/// Rewrites assignments of the form `d := d ⊕ e` (for a commutative
/// monoid ⊕ and syntactically equal destinations) into the incremental
/// update `d ⊕= e`, as §3.5 classifies them. This runs before restriction
/// checking and translation so that the paper's own benchmark programs
/// (e.g. `eq := eq && v == x`) are recognized as incremental.
ast::Program CanonicalizeIncrements(const ast::Program& program);

/// One Definition 3.1 violation, with the offending statement rendered.
struct RestrictionViolation {
  std::string message;
  SourceLocation loc;
};

/// The outcome of checking a program against the parallelization
/// restrictions of Definition 3.1.
struct RestrictionReport {
  bool ok = true;
  std::vector<RestrictionViolation> violations;

  std::string ToString() const;
};

/// Checks every parallelizable for-loop of `program` against
/// Definition 3.1:
///
///  1. the destination of every non-incremental update is affine and
///     covers all enclosing loop indexes;
///  2. no two statements have overlapping write/aggregate vs read
///     destinations, except
///     (a) a read of the same location after a write, and
///     (b) a read of the same location after an increment whose shared
///         context equals the destination's indexes.
///
/// Additional structural rules enforced here:
///  * declarations may not appear inside for-loops;
///  * nested for-loops must use distinct index variables (the paper
///    renames duplicates; we require the programmer to);
///  * a for-range loop containing a while-loop is treated as sequential
///    (not checked, translated to sequential target code);
///  * a for-in loop containing a while-loop is rejected as unsupported.
///
/// Call with the canonicalized program (CanonicalizeIncrements).
RestrictionReport CheckProgram(const ast::Program& program);

/// Every diagnostic the restriction check weighs, sorted by source
/// location and deduplicated: LintLoops' Definition 3.1 checks, then the
/// proven semantic errors (D2xx) of AnalyzeProgram and
/// LintMergeOperators, each with its witness. CheckProgram keeps the
/// error-severity subset; diablo_run renders all of them when it
/// rejects a program. Call with the canonicalized program.
std::vector<Diagnostic> RestrictionDiagnostics(const ast::Program& program);

/// Convenience wrapper returning a RestrictionViolation status listing
/// all violations, or OK.
Status CheckRestrictions(const ast::Program& program);

/// True when `stmt` (a for-loop) contains a while-loop anywhere in its
/// body, which forces sequential execution of the whole loop nest.
bool ContainsWhile(const ast::Stmt& stmt);

}  // namespace diablo::analysis

#endif  // DIABLO_ANALYSIS_RESTRICTIONS_H_
