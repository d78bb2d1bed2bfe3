#ifndef DIABLO_ANALYSIS_AFFINE_H_
#define DIABLO_ANALYSIS_AFFINE_H_

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "ast/ast.h"

namespace diablo::analysis {

/// True when `e` is an affine expression in the given loop indexes:
/// c0 + c1*i1 + ... + ck*ik, where the c are loop-invariant (constants or
/// variables that are not loop indexes) and the i are loop indexes.
bool IsAffineExpr(const ast::ExprPtr& e,
                  const std::set<std::string>& loop_indexes);

/// True when `e` mentions any of the given loop indexes.
bool UsesLoopIndex(const ast::ExprPtr& e,
                   const std::set<std::string>& loop_indexes);

/// The paper's affine(d, s): every loop index in `context` is used in d,
/// and every array index expression in d is affine. A destination that is
/// a plain variable is affine only when the context is empty.
bool IsAffineDest(const ast::LValuePtr& d,
                  const std::vector<std::string>& context);

/// An affine form c0 + Σ coeff[i]·i over integer loop indexes.
struct AffineForm {
  std::map<std::string, int64_t> coeff;
  /// The loop-invariant term; nullopt when it is not a literal (a scalar,
  /// an array read, a call).
  std::optional<int64_t> c0 = 0;
};

/// `e` as an affine form in `loop_indexes` whose coefficients are integer
/// literals; nullopt for any other shape, for a coefficient that is a
/// variable, and when a coefficient or c0 overflows int64.
std::optional<AffineForm> ExtractAffine(
    const ast::ExprPtr& e, const std::set<std::string>& loop_indexes);

/// True when distinct iterations of the loops with indexes `context`
/// provably write distinct elements of `d` (projections are stripped):
/// every subscript is an ExtractAffine form, and the coefficient matrix,
/// one row per subscript and one column per index, has full column rank.
/// A plain variable is injective only under no loop. False proves
/// nothing: `A[10*i+j]` with j in 0..9 is injective but rank-deficient.
bool IsInjectiveDest(const ast::LValuePtr& d,
                     const std::vector<std::string>& context);

}  // namespace diablo::analysis

#endif  // DIABLO_ANALYSIS_AFFINE_H_
