#ifndef DIABLO_PLAN_ROW_PROGRAM_H_
#define DIABLO_PLAN_ROW_PROGRAM_H_

#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "common/strings.h"
#include "comp/comp.h"
#include "plan/plan.h"
#include "runtime/dataset.h"
#include "runtime/value.h"

namespace diablo::plan {

/// Compiled row programs (DESIGN.md §19). ExecutePlan compiles the run
/// of narrow qualifiers between two stage boundaries of a comprehension
/// plan into one *segment*: a binder that lays the incoming row out as
/// an environment, the qualifiers (let, filter, iterate, broadcast
/// probe), and the key/value extraction of the next wide operator or the
/// head. The engine runs a segment as one fused operator per row.

/// The environment one row is evaluated in. `slots[i]` points at the
/// value of the i-th schema variable: into the incoming row, into a
/// captured constant, or into `cells`, which own what the segment
/// computed for this row (let values, iterated bags, lifted columns).
struct RowFrame {
  const runtime::Value** slots;
  runtime::Value* cells;
};

/// A comprehension expression compiled against a row schema. A variable
/// resolves to the slot of the first schema entry with its name, else to
/// the driver scalar's value when the expression is compiled. Literals
/// are boxed and builtins resolved once. A name that resolves to nothing
/// compiles to a node that errors only when it is evaluated.
///
/// Four constructs need the engine: a distributed array used as a value,
/// a nested comprehension, an array merge, and ⊕/ over a nested
/// comprehension. In a row they compile to nodes that error when
/// evaluated. `on_driver` compiles an expression the driver evaluates
/// once per statement: each runs on the engine when the node is
/// evaluated (so a short-circuited operand starts no stage), the first
/// three collected to a bag, the reduction as a distributed reduce with
/// no collect (the monoid identity when empty).
class RowExpr {
 public:
  virtual ~RowExpr() = default;
  /// Evaluates against `frame`. On success `*out` points either at a
  /// value that outlives the call (a slot, a constant, or a component of
  /// one; returned without copying) or at `*tmp`, which the node filled.
  virtual Status Eval(const RowFrame& frame, runtime::Value* tmp,
                      const runtime::Value** out) const = 0;
};
using RowExprPtr = std::unique_ptr<const RowExpr>;

RowExprPtr CompileRowExpr(const comp::CExprPtr& e,
                          const std::vector<std::string>& schema,
                          const ExecState& state, bool on_driver = false);

/// Evaluates `e` with slot i bound to env[i].
StatusOr<runtime::Value> EvalRowExpr(const RowExpr& e,
                                     const runtime::ValueVec& env);

/// Destructures `value` by `pattern`, handing each bound component (in
/// Pattern::Vars() order, "_" skipped) to `bind(const Value&)`.
template <typename Bind>
Status DestructurePattern(const comp::Pattern& pattern,
                          const runtime::Value& value, Bind&& bind) {
  if (!pattern.is_tuple) {
    if (pattern.var != "_") bind(value);
    return Status::OK();
  }
  if (!value.is_tuple() || value.tuple().size() != pattern.elems.size()) {
    return Status::RuntimeError(StrCat("pattern ", pattern.ToString(),
                                       " does not match value ",
                                       value.ToString()));
  }
  for (size_t i = 0; i < pattern.elems.size(); ++i) {
    DIABLO_RETURN_IF_ERROR(
        DestructurePattern(pattern.elems[i], value.tuple()[i], bind));
  }
  return Status::OK();
}

/// Build side of a broadcast join: key -> the bound right-pattern values
/// of every matching array row, in array order.
using ProbeTable = std::unordered_map<runtime::Value,
                                      std::vector<runtime::ValueVec>,
                                      runtime::ValueHash>;

/// Destructures every build row by `pattern` and keys it by `keys`,
/// evaluated over the pattern's variables (and driver scalars).
StatusOr<std::shared_ptr<const ProbeTable>> BuildProbeTable(
    const runtime::ValueVec& rows, const comp::Pattern& pattern,
    const std::vector<comp::CExprPtr>& keys, const ExecState& state);

/// How a segment lays its input row out as the environment.
struct SegmentBinder {
  enum class Kind {
    kRows,        ///< rows already are environment tuples
    kScan,        ///< array rows destructured by `pattern` after `prefix`
    kRange,       ///< range integers bound by `pattern` after `prefix`
    kJoinMerge,   ///< join rows (k, (left env, right bound values))
    kGroupLift,   ///< groupByKey rows (k, bag of lifted tuples)
    kReduceBind,  ///< reduceByKey rows (k, v)
    kCartesian,   ///< environment tuples, each extended by every `product` row
  };
  Kind kind = Kind::kRows;
  /// Stage-label fragment; empty when the binder is no plan operator.
  std::string label;
  /// kScan, kRange, kGroupLift, kReduceBind: binds the row (or its key);
  /// kCartesian: binds the `product` rows.
  comp::Pattern pattern;
  runtime::ValueVec prefix;  ///< kScan, kRange: driver-bound variables
  size_t lifted = 0;         ///< kGroupLift: number of lifted columns
  /// kCartesian: the broadcast rows' bound values.
  std::shared_ptr<const std::vector<runtime::ValueVec>> product;
};

class RowSegment;  // row_program.cc

/// Compiles one segment qualifier by qualifier. Each qualifier appends
/// its pattern's variables to the schema, as the planner does. A
/// Finish* call ends the segment with its output and returns the fused
/// operator: its label joins the fragments of the plan operators it
/// replaced with '+', and its plan_ops counts them.
class RowSegmentBuilder {
 public:
  /// `schema` is the environment layout right after the binder.
  RowSegmentBuilder(SegmentBinder binder, std::vector<std::string> schema,
                    const ExecState& state);

  const std::vector<std::string>& schema() const { return schema_; }

  void Let(const comp::Pattern& pattern, const comp::CExprPtr& expr);
  void Filter(const comp::CExprPtr& expr);
  void Iterate(const comp::Pattern& pattern, const comp::CExprPtr& expr);
  /// Broadcast-join probe: rows whose `keys` hit `table` continue once
  /// per match with `pattern`'s variables bound to the match.
  void Probe(std::string label, std::shared_ptr<const ProbeTable> table,
             const std::vector<comp::CExprPtr>& keys,
             const comp::Pattern& pattern);

  /// Outputs the environment tuple. Nullopt when the segment replaced no
  /// plan operator (its output would be its input).
  std::optional<runtime::FusedOp> FinishEnv() &&;
  /// Outputs the head per row ("yield").
  runtime::FusedOp FinishHead(const comp::CExprPtr& head) &&;
  /// Outputs (key, environment tuple): either side of a hash join.
  runtime::FusedOp FinishKeyRow(std::string label,
                                const std::vector<comp::CExprPtr>& keys) &&;
  /// Outputs (key, tuple of the slots at `positions`) ("groupKey").
  runtime::FusedOp FinishGroupKey(const comp::CExprPtr& key,
                                  std::vector<size_t> positions) &&;
  /// Outputs (key, value) ("reduceKey").
  runtime::FusedOp FinishReduceKey(const comp::CExprPtr& key,
                                   const comp::CExprPtr& value) &&;

 private:
  runtime::FusedOp Finish();

  std::shared_ptr<RowSegment> seg_;
  std::vector<std::string> schema_;
  const ExecState* state_;
};

}  // namespace diablo::plan

#endif  // DIABLO_PLAN_ROW_PROGRAM_H_
