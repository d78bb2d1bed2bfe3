#ifndef DIABLO_NORMALIZE_NORMALIZE_H_
#define DIABLO_NORMALIZE_NORMALIZE_H_

#include "comp/comp.h"

namespace diablo::normalize {

/// Normalizes a comprehension expression to the flat form used by the
/// optimizer and planner:
///
///  * Rule (2): a generator over a nested comprehension is unnested into
///    the outer qualifier list (with alpha-renaming to avoid capture);
///    only applied when the nested comprehension has no group-by.
///  * A generator over a singleton bag {e} becomes `let p = e`; a
///    generator over the empty bag collapses the whole comprehension to
///    the empty bag.
///  * `let v = e` with a simple right-hand side (variable, constant,
///    projection or tuple of simple terms) is inlined into later
///    qualifiers and the head — but never across a group-by that still
///    uses the variable afterwards, since group-by lifts variables to
///    bags.
///  * `let (p1,...,pn) = (e1,...,en)` is split componentwise.
///  * Trivial conditions (`true`, `x == x`) are dropped; a constant
///    `false` condition collapses the comprehension to the empty bag.
///  * `{ h | }` becomes the bag literal {h}; `⊕/{e}` becomes e.
///
/// Normalization is bottom-up: the children of a comprehension are
/// normalized first, so a nested comprehension is already normal when
/// Rule (2) splices it in. Then one left-to-right sweep applies the rules
/// to the qualifiers in place; inlined lets become a pending substitution
/// applied to each later qualifier and the head as the sweep reaches
/// them, and one backward liveness pass drops dead lets. The sweep is
/// repeated only while it changed something after a let whose inlining
/// was blocked (by capture or by a post-group use), since the change may
/// have lifted the block. The result is a normal form: normalizing it
/// again returns it unchanged and draws no fresh name. Subtrees that need
/// no rewrite are shared with the input.
comp::CExprPtr NormalizeExpr(const comp::CExprPtr& e, comp::NameGen* names);

/// Normalizes every comprehension inside a target program.
comp::TargetProgram NormalizeTarget(const comp::TargetProgram& program,
                                    comp::NameGen* names);

/// Alpha-renames all variables bound inside `c` to fresh names (used
/// before splicing a nested comprehension into an outer one).
comp::CompPtr RenameBound(const comp::CompPtr& c, comp::NameGen* names);

}  // namespace diablo::normalize

#endif  // DIABLO_NORMALIZE_NORMALIZE_H_
