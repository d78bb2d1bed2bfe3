#ifndef DIABLO_PLAN_PLAN_H_
#define DIABLO_PLAN_PLAN_H_

#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "comp/comp.h"
#include "runtime/dataset.h"
#include "runtime/engine.h"

namespace diablo::runtime {
class ProfileData;  // runtime/profile.h (--profile-in feedback)
}  // namespace diablo::runtime

namespace diablo::plan {

/// One operator of a comprehension plan. A plan is a linear pipeline over
/// a stream of environment rows (tuples of bound-variable values, ordered
/// by `schema_after`).
struct StreamOp {
  enum class Kind {
    /// First generator over a distributed array: destructure (key, value)
    /// rows by `pattern`.
    kSourceArray,
    /// First generator over range(lo, hi) with driver-evaluable bounds.
    kSourceRange,
    /// Subsequent generator over an array joined to the stream on
    /// equality keys (a distributed hash join).
    kJoinArray,
    /// Same join, but the array is small enough (engine config
    /// broadcast_join_threshold_bytes) to ship to every worker: the
    /// stream is probed in place, without shuffling (paper §7 future
    /// work).
    kBroadcastJoinArray,
    /// Subsequent generator over an array with no linking condition: the
    /// array is broadcast and nested-looped (a cartesian product).
    kCartesianArray,
    /// Generator over a bag-valued expression of the current row (or a
    /// driver bag when the stream is empty): flatMap.
    kIterateBag,
    /// Condition: filter rows.
    kFilter,
    /// Let-binding: extend rows with a computed value.
    kLet,
    /// Group rows by a key, lifting `lifted` variables to bags.
    kGroupBy,
    /// Group rows by a key and reduce one expression with a commutative
    /// operator (Spark reduceByKey, with map-side combine).
    kReduceByKey,
  };

  Kind kind;

  /// kSourceArray/kJoinArray/kCartesianArray: the array name.
  std::string array;
  /// Generator/let/group-by binding pattern.
  comp::Pattern pattern;
  /// kSourceRange/kIterateBag/kFilter/kLet: the operand expression.
  /// kGroupBy/kReduceByKey: the key expression.
  comp::CExprPtr expr;
  comp::CExprPtr expr2;  // kSourceRange: hi bound
  /// kJoinArray: key expressions over the existing stream (left) and over
  /// the new generator's pattern variables (right).
  std::vector<comp::CExprPtr> left_keys;
  std::vector<comp::CExprPtr> right_keys;
  /// kGroupBy: variables lifted to bags. kReduceByKey: `lifted[0]` names
  /// the result variable.
  std::vector<std::string> lifted;
  /// kReduceByKey: the reduced expression and operator.
  comp::CExprPtr reduce_value;
  runtime::BinOp reduce_op = runtime::BinOp::kAdd;
  /// kReduceByKey: static (key, value) column types inferred from the
  /// comprehension by AnnotatePlanSchemas (plan/schema.h). kUnknown
  /// fields make the engine detect types from the data; a definitely
  /// non-numeric value type lets it skip the typed attempt entirely.
  runtime::ColumnSchema schema;

  /// Variables in scope after this operator, in row order.
  std::vector<std::string> schema_after;

  /// Source location of the loop statement this operator was translated
  /// from (line 0 = unknown): a range source's own `for` header, the
  /// plan's statement for every other operator.
  SourceLocation loc{0, 0};

  std::string ToString() const;
};

/// An executable comprehension plan: a pipeline and a head expression
/// evaluated per surviving row.
struct CompPlan {
  std::vector<StreamOp> ops;
  comp::CExprPtr head;
  /// True when the comprehension touches no distributed array: it can be
  /// evaluated entirely on the driver.
  bool driver_only = false;
  /// Source location of the originating loop statement (line 0 =
  /// unknown), stamped by BuildPlan from the executor's current
  /// statement.
  SourceLocation loc{0, 0};

  /// Number of shuffling (wide) operators in the pipeline.
  int NumShuffles() const;
  std::string ToString() const;
};

/// Read-only view of the executor state a plan runs against.
struct ExecState {
  runtime::Engine* engine = nullptr;
  const std::map<std::string, runtime::Value>* scalars = nullptr;
  const std::map<std::string, runtime::Dataset>* arrays = nullptr;
  /// Prior-run profile (--profile-in), or null. When set, plan-time cost
  /// decisions (broadcast-vs-hash join) weigh the profile's measured
  /// stage facts against static estimates; a stale profile simply fails
  /// every provenance lookup and the static rules stand.
  const runtime::ProfileData* profile = nullptr;
};

/// Compiles a flat (normalized) comprehension into a plan. `is_array`
/// decides which generator domains are distributed datasets.
StatusOr<CompPlan> BuildPlan(const comp::CompPtr& comp,
                             const ExecState& state);

/// Runs a plan, returning the result dataset (one row per head value).
StatusOr<runtime::Dataset> ExecutePlan(const CompPlan& plan,
                                       const ExecState& state);

/// Evaluates a comprehension-calculus expression on the driver: no row
/// context; nested comprehensions are planned and executed, and bags are
/// materialized. `Reduce` over a distributed nested comprehension is
/// evaluated with a distributed reduce (no collect).
StatusOr<runtime::Value> EvalDriverExpr(const comp::CExprPtr& e,
                                        const ExecState& state);

/// Evaluates a dataset-valued expression (array variable, comprehension,
/// merge, empty bag) to a Dataset of (key, value) rows.
StatusOr<runtime::Dataset> EvalArrayExpr(const comp::CExprPtr& e,
                                         const ExecState& state);

}  // namespace diablo::plan

#endif  // DIABLO_PLAN_PLAN_H_
