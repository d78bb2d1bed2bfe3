#include "runtime/array.h"

#include <algorithm>
#include <map>

#include "common/strings.h"
#include "runtime/operators.h"

namespace diablo::runtime {

namespace {

Status CheckPair(const Value& row) {
  if (!row.is_tuple() || row.tuple().size() != 2) {
    return Status::RuntimeError(
        StrCat("sparse array row is not a (key,value) pair: ",
               row.ToString()));
  }
  return Status::OK();
}

}  // namespace

StatusOr<ValueVec> ArrayMergeLocal(const ValueVec& x, const ValueVec& y) {
  std::map<Value, Value> merged;
  for (const Value& row : x) {
    DIABLO_RETURN_IF_ERROR(CheckPair(row));
    merged.insert_or_assign(row.tuple()[0], row.tuple()[1]);
  }
  for (const Value& row : y) {
    DIABLO_RETURN_IF_ERROR(CheckPair(row));
    merged.insert_or_assign(row.tuple()[0], row.tuple()[1]);
  }
  ValueVec out;
  out.reserve(merged.size());
  for (auto& [k, v] : merged) out.push_back(Value::MakePair(k, v));
  return out;
}

StatusOr<Dataset> ArrayMerge(Engine& engine, const Dataset& x,
                             const Dataset& y, std::optional<BinOp> op) {
  const std::string label = op.has_value() ? "mergeInc" : "arrayMerge";
  DIABLO_ASSIGN_OR_RETURN(Dataset grouped, engine.CoGroup(x, y, label));
  return engine.FlatMap(
      grouped,
      [op](const Value& row) -> StatusOr<ValueVec> {
        const Value& key = row.tuple()[0];
        const Value& sides = row.tuple()[1];
        const ValueVec& xs = sides.tuple()[0].bag();
        const ValueVec& ys = sides.tuple()[1].bag();
        ValueVec out;
        if (ys.empty()) {
          if (!xs.empty()) out.push_back(Value::MakePair(key, xs.back()));
          return out;
        }
        if (!op.has_value()) {
          out.push_back(Value::MakePair(key, ys.back()));
          return out;
        }
        DIABLO_ASSIGN_OR_RETURN(Value acc, ReduceBag(*op, ys));
        if (!xs.empty()) {
          DIABLO_ASSIGN_OR_RETURN(acc, EvalBinOp(*op, xs.back(), acc));
        }
        out.push_back(Value::MakePair(key, std::move(acc)));
        return out;
      },
      label + (op.has_value() ? ".combine" : ".choose"));
}

Value MatrixKey(int64_t i, int64_t j) {
  return Value::MakePair(Value::MakeInt(i), Value::MakeInt(j));
}

}  // namespace diablo::runtime
