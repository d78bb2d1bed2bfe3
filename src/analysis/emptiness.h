#ifndef DIABLO_ANALYSIS_EMPTINESS_H_
#define DIABLO_ANALYSIS_EMPTINESS_H_

#include <set>
#include <string>
#include <vector>

#include "comp/comp.h"

namespace diablo::analysis {

/// The merge of an array assignment `V := V ⊳ Y` or `V := V ⊳⊕ Y` (rules
/// 15a and 15b) into the array it assigns; null for any other statement.
const comp::CExpr::Merge* SelfMerge(const comp::TargetStmt& stmt);

/// The array assignments under `stmts` whose destination is provably
/// empty when they run, found by one walk in program order over a
/// three-value lattice (empty, non-empty, unknown). A declaration without
/// an initializer makes an array empty and an assignment makes it
/// non-empty. A while-loop widens every variable its body assigns or
/// declares to unknown on entry (a declaration inside the body resets it
/// to empty each time round), and after the loop keeps a variable's
/// value only where the body's exit agrees with the state before the
/// loop, which may run zero times. The optimizer drops the merges these
/// statements make (opt::OptimizeTarget) and plan_lint reports the ones
/// left (P104).
std::set<const comp::TargetStmt*> AssignmentsToEmptyArrays(
    const std::vector<comp::TargetStmtPtr>& stmts);

/// The variables assigned or declared anywhere under `stmts`: the ones a
/// while-loop with body `stmts` widens.
std::set<std::string> WrittenVars(
    const std::vector<comp::TargetStmtPtr>& stmts);

}  // namespace diablo::analysis

#endif  // DIABLO_ANALYSIS_EMPTINESS_H_
