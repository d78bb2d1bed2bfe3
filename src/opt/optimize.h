#ifndef DIABLO_OPT_OPTIMIZE_H_
#define DIABLO_OPT_OPTIMIZE_H_

#include "comp/comp.h"

namespace diablo::opt {

/// Switches for the comprehension optimizations of §3.6 and §4. All on by
/// default; the ablation benchmark flips them individually.
struct OptimizeOptions {
  /// §3.6: eliminate `v <- range(lo,hi)` joined to an array traversal by
  /// inverting the affine index term and adding an inRange predicate.
  bool range_elimination = true;
  /// Rule (16): remove group-bys with a constant key (total aggregation).
  bool rule16_constant_key = true;
  /// Rule (17): remove group-bys whose key is provably unique (injective
  /// over the generators).
  bool rule17_unique_key = true;
  /// Extension (the paper's future-work "more effective query
  /// optimization"): common-subexpression elimination of repeated array
  /// accesses. Two generators over the same array whose index variables
  /// are equated to identical expressions draw the same single element
  /// (sparse-array keys are unique), so the second generator — and the
  /// join it would plan to — is removed. This collapses the redundant
  /// self-joins in expressions like `(P[i]._1 - C[j]._1) * (P[i]._1 -
  /// C[j]._1)` (KMeans) that the paper attributes DIABLO's KMeans gap to.
  bool cse_array_reads = true;
};

/// Optimizes all comprehensions inside `e`. Expects normalized input
/// (normalize::NormalizeExpr) and leaves the result un-normalized; run the
/// normalizer again afterwards to fold the residue (`⊕/{v}` etc.).
comp::CExprPtr OptimizeExpr(const comp::CExprPtr& e, comp::NameGen* names,
                            const OptimizeOptions& options = {});

/// Optimizes every comprehension in a target program and renormalizes.
/// Also drops the merge of `V := V ⊳ Y` (or `V ⊳⊕ Y`) when V is provably
/// empty at that statement (analysis::AssignmentsToEmptyArrays) and the
/// translator proved Y's keys unique (CExpr::Merge::unique_keys): the
/// statement becomes `V := Y`, which is exact, and V keeps Y's
/// partitioning instead of the merge's hash-by-key layout.
comp::TargetProgram OptimizeTarget(const comp::TargetProgram& program,
                                   comp::NameGen* names,
                                   const OptimizeOptions& options = {});

}  // namespace diablo::opt

#endif  // DIABLO_OPT_OPTIMIZE_H_
