#include "plan/schema.h"

namespace diablo::plan {

namespace {

using comp::CExpr;
using comp::CExprPtr;
using runtime::BinOp;
using runtime::ColumnTag;
using runtime::UnOp;

bool IsNumericTag(ColumnTag t) {
  return t == ColumnTag::kInt64 || t == ColumnTag::kDouble;
}

/// The tag of a binary operation, mirroring EvalBinOp's promotion rules
/// (runtime/operators.cc): comparisons and logic yield bool; arithmetic
/// over two ints stays int64, over any double promotes to double; `+`
/// concatenates strings. Anything whose operand types are unknown (or
/// whose semantics vary by kind, like tuple lifting) stays kUnknown.
ColumnTag InferBinType(const CExpr::Bin& bin, const TypeEnv& env) {
  switch (bin.op) {
    case BinOp::kEq:
    case BinOp::kNe:
    case BinOp::kLt:
    case BinOp::kLe:
    case BinOp::kGt:
    case BinOp::kGe:
    case BinOp::kAnd:
    case BinOp::kOr:
      return ColumnTag::kBool;
    default:
      break;
  }
  ColumnTag l = InferExprType(bin.lhs, env);
  ColumnTag r = InferExprType(bin.rhs, env);
  if (bin.op == BinOp::kAdd && l == ColumnTag::kString &&
      r == ColumnTag::kString) {
    return ColumnTag::kString;
  }
  if (!IsNumericTag(l) || !IsNumericTag(r)) return ColumnTag::kUnknown;
  if (l == ColumnTag::kInt64 && r == ColumnTag::kInt64) {
    return ColumnTag::kInt64;
  }
  return ColumnTag::kDouble;
}

ColumnTag InferCallType(const CExpr::Call& call, const TypeEnv& env) {
  // Builtins of runtime::EvalBuiltin.
  if (call.function == "inRange") return ColumnTag::kBool;
  if (call.function == "sqrt" || call.function == "exp" ||
      call.function == "log" || call.function == "pow" ||
      call.function == "floor") {
    return ColumnTag::kDouble;
  }
  if (call.function == "abs" && call.args.size() == 1) {
    // abs keeps int64 ints; anything else lands on the double branch.
    ColumnTag a = InferExprType(call.args[0], env);
    return IsNumericTag(a) ? a : ColumnTag::kUnknown;
  }
  return ColumnTag::kUnknown;
}

}  // namespace

ColumnTag InferExprType(const CExprPtr& e, const TypeEnv& env) {
  if (e == nullptr) return ColumnTag::kUnknown;
  if (e->is<CExpr::IntConst>()) return ColumnTag::kInt64;
  if (e->is<CExpr::DoubleConst>()) return ColumnTag::kDouble;
  if (e->is<CExpr::BoolConst>()) return ColumnTag::kBool;
  if (e->is<CExpr::StringConst>()) return ColumnTag::kString;
  if (e->is<CExpr::Var>()) {
    auto it = env.find(e->as<CExpr::Var>().name);
    return it == env.end() ? ColumnTag::kUnknown : it->second;
  }
  if (e->is<CExpr::Bin>()) return InferBinType(e->as<CExpr::Bin>(), env);
  if (e->is<CExpr::Un>()) {
    const auto& un = e->as<CExpr::Un>();
    if (un.op == UnOp::kNot) return ColumnTag::kBool;
    // kNeg preserves the numeric kind of its operand.
    ColumnTag t = InferExprType(un.operand, env);
    return IsNumericTag(t) ? t : ColumnTag::kUnknown;
  }
  if (e->is<CExpr::Call>()) return InferCallType(e->as<CExpr::Call>(), env);
  // Tuples, records, projections, reductions, nested comprehensions,
  // bags: not scalar columns (or not statically resolvable).
  return ColumnTag::kUnknown;
}

void AnnotatePlanSchemas(CompPlan* plan) {
  TypeEnv env;
  for (StreamOp& op : plan->ops) {
    switch (op.kind) {
      case StreamOp::Kind::kSourceRange:
        // range(lo, hi) binds an int64 counter.
        if (!op.pattern.is_tuple) env[op.pattern.var] = ColumnTag::kInt64;
        break;
      case StreamOp::Kind::kIterateBag:
        // A flatMap over an explicit range(lo,hi) domain binds an int64
        // counter, exactly like kSourceRange (the planner's form for
        // inner range loops).
        if (op.expr != nullptr && op.expr->is<CExpr::Range>() &&
            !op.pattern.is_tuple) {
          env[op.pattern.var] = ColumnTag::kInt64;
          break;
        }
        [[fallthrough]];
      case StreamOp::Kind::kSourceArray:
      case StreamOp::Kind::kJoinArray:
      case StreamOp::Kind::kBroadcastJoinArray:
      case StreamOp::Kind::kCartesianArray:
        // Element types come from runtime data: bind the pattern's
        // variables as unknown (overwriting any shadowed binding).
        for (const std::string& v : op.pattern.Vars()) {
          env[v] = ColumnTag::kUnknown;
        }
        break;
      case StreamOp::Kind::kFilter:
        break;
      case StreamOp::Kind::kLet:
        if (!op.pattern.is_tuple) {
          env[op.pattern.var] = InferExprType(op.expr, env);
        } else {
          for (const std::string& v : op.pattern.Vars()) {
            env[v] = ColumnTag::kUnknown;
          }
        }
        break;
      case StreamOp::Kind::kGroupBy: {
        ColumnTag key = InferExprType(op.expr, env);
        env.clear();
        if (!op.pattern.is_tuple) env[op.pattern.var] = key;
        // Lifted variables become bags — never scalar columns.
        for (const std::string& v : op.lifted) {
          env[v] = ColumnTag::kUnknown;
        }
        break;
      }
      case StreamOp::Kind::kReduceByKey: {
        op.schema.key = InferExprType(op.expr, env);
        op.schema.value = InferExprType(op.reduce_value, env);
        env.clear();
        if (!op.pattern.is_tuple) env[op.pattern.var] = op.schema.key;
        if (!op.lifted.empty()) env[op.lifted[0]] = op.schema.value;
        break;
      }
    }
  }
}

}  // namespace diablo::plan
