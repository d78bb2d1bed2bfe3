#include "algebra/local.h"

#include <algorithm>
#include <cmath>

#include "common/strings.h"
#include "runtime/array.h"
#include "runtime/operators.h"

namespace diablo::algebra {

using comp::CExpr;
using comp::CExprPtr;
using comp::CompPtr;
using comp::Pattern;
using comp::Qualifier;
using runtime::BinOp;
using runtime::Value;
using runtime::ValueVec;

namespace {

constexpr int64_t kMaxRange = 1 << 24;

Status BindPattern(const Pattern& pattern, const Value& value, Env* env) {
  if (!pattern.is_tuple) {
    if (pattern.var != "_") env->emplace_back(pattern.var, value);
    return Status::OK();
  }
  if (!value.is_tuple() || value.tuple().size() != pattern.elems.size()) {
    return Status::RuntimeError(
        StrCat("pattern ", pattern.ToString(), " does not match ",
               value.ToString()));
  }
  for (size_t i = 0; i < pattern.elems.size(); ++i) {
    DIABLO_RETURN_IF_ERROR(BindPattern(pattern.elems[i], value.tuple()[i], env));
  }
  return Status::OK();
}

const Value* Lookup(const Env& env, const std::string& name) {
  for (auto it = env.rbegin(); it != env.rend(); ++it) {
    if (it->first == name) return &it->second;
  }
  return nullptr;
}

/// Local combining merge X ⊳⊕ Y.
StatusOr<Value> MergeWithOp(BinOp op, const Value& left, const Value& right) {
  if (!left.is_bag() || !right.is_bag()) {
    return Status::RuntimeError("array merge applied to non-bags");
  }
  std::map<Value, Value> merged;
  for (const Value& row : left.bag()) {
    merged.insert_or_assign(row.tuple()[0], row.tuple()[1]);
  }
  for (const Value& row : right.bag()) {
    auto it = merged.find(row.tuple()[0]);
    if (it == merged.end()) {
      merged.emplace(row.tuple()[0], row.tuple()[1]);
    } else {
      DIABLO_ASSIGN_OR_RETURN(it->second,
                              runtime::EvalBinOp(op, it->second,
                                                 row.tuple()[1]));
    }
  }
  ValueVec out;
  out.reserve(merged.size());
  for (auto& [k, v] : merged) out.push_back(Value::MakePair(k, v));
  return Value::MakeBag(std::move(out));
}

}  // namespace

StatusOr<Value> EvalExpr(const CExprPtr& e, const Env& env,
                         const std::map<std::string, Value>& globals) {
  if (e->is<CExpr::Var>()) {
    const std::string& name = e->as<CExpr::Var>().name;
    if (const Value* v = Lookup(env, name)) return *v;
    auto it = globals.find(name);
    if (it != globals.end()) return it->second;
    return Status::RuntimeError(StrCat("unbound variable '", name, "'"));
  }
  if (e->is<CExpr::IntConst>()) {
    return Value::MakeInt(e->as<CExpr::IntConst>().value);
  }
  if (e->is<CExpr::DoubleConst>()) {
    return Value::MakeDouble(e->as<CExpr::DoubleConst>().value);
  }
  if (e->is<CExpr::BoolConst>()) {
    return Value::MakeBool(e->as<CExpr::BoolConst>().value);
  }
  if (e->is<CExpr::StringConst>()) {
    return Value::MakeString(e->as<CExpr::StringConst>().value);
  }
  if (e->is<CExpr::Bin>()) {
    const auto& b = e->as<CExpr::Bin>();
    DIABLO_ASSIGN_OR_RETURN(Value l, EvalExpr(b.lhs, env, globals));
    if (b.op == BinOp::kAnd && l.is_bool() && !l.AsBool()) {
      return Value::MakeBool(false);
    }
    if (b.op == BinOp::kOr && l.is_bool() && l.AsBool()) {
      return Value::MakeBool(true);
    }
    DIABLO_ASSIGN_OR_RETURN(Value r, EvalExpr(b.rhs, env, globals));
    return runtime::EvalBinOp(b.op, l, r);
  }
  if (e->is<CExpr::Un>()) {
    const auto& u = e->as<CExpr::Un>();
    DIABLO_ASSIGN_OR_RETURN(Value v, EvalExpr(u.operand, env, globals));
    return runtime::EvalUnOp(u.op, v);
  }
  if (e->is<CExpr::TupleCons>()) {
    ValueVec elems;
    for (const auto& c : e->as<CExpr::TupleCons>().elems) {
      DIABLO_ASSIGN_OR_RETURN(Value v, EvalExpr(c, env, globals));
      elems.push_back(std::move(v));
    }
    return Value::MakeTuple(std::move(elems));
  }
  if (e->is<CExpr::RecordCons>()) {
    runtime::FieldVec fields;
    for (const auto& [n, c] : e->as<CExpr::RecordCons>().fields) {
      DIABLO_ASSIGN_OR_RETURN(Value v, EvalExpr(c, env, globals));
      fields.emplace_back(n, std::move(v));
    }
    return Value::MakeRecord(std::move(fields));
  }
  if (e->is<CExpr::Proj>()) {
    const auto& p = e->as<CExpr::Proj>();
    DIABLO_ASSIGN_OR_RETURN(Value base, EvalExpr(p.base, env, globals));
    if (base.is_record()) {
      const Value* f = base.FindField(p.field);
      if (f == nullptr) {
        return Status::RuntimeError(StrCat("record has no field '",
                                           p.field, "'"));
      }
      return *f;
    }
    if (base.is_tuple() && p.field.size() >= 2 && p.field[0] == '_') {
      int idx = std::atoi(p.field.c_str() + 1);
      if (idx >= 1 && static_cast<size_t>(idx) <= base.tuple().size()) {
        return base.tuple()[static_cast<size_t>(idx) - 1];
      }
    }
    return Status::RuntimeError(
        StrCat("cannot project .", p.field, " out of ", base.ToString()));
  }
  if (e->is<CExpr::Call>()) {
    const auto& call = e->as<CExpr::Call>();
    std::vector<Value> args;
    for (const auto& a : call.args) {
      DIABLO_ASSIGN_OR_RETURN(Value v, EvalExpr(a, env, globals));
      args.push_back(std::move(v));
    }
    std::optional<runtime::Builtin> fn = runtime::FindBuiltin(call.function);
    if (!fn.has_value()) {
      return Status::RuntimeError(
          StrCat("unknown builtin '", call.function, "'"));
    }
    return runtime::EvalBuiltin(*fn, args);
  }
  if (e->is<CExpr::Reduce>()) {
    const auto& r = e->as<CExpr::Reduce>();
    DIABLO_ASSIGN_OR_RETURN(Value bag, EvalExpr(r.arg, env, globals));
    if (!bag.is_bag()) {
      return Status::RuntimeError(
          StrCat("reduction applied to ", bag.ToString()));
    }
    return runtime::ReduceBag(r.op, bag.bag());
  }
  if (e->is<CExpr::Nested>()) {
    return EvalComprehension(e->as<CExpr::Nested>().comp, env, globals);
  }
  if (e->is<CExpr::Range>()) {
    const auto& r = e->as<CExpr::Range>();
    DIABLO_ASSIGN_OR_RETURN(Value lo, EvalExpr(r.lo, env, globals));
    DIABLO_ASSIGN_OR_RETURN(Value hi, EvalExpr(r.hi, env, globals));
    if (!lo.is_int() || !hi.is_int()) {
      return Status::RuntimeError("range bounds must be integers");
    }
    if (hi.AsInt() - lo.AsInt() + 1 > kMaxRange) {
      return Status::RuntimeError("range too large");
    }
    ValueVec out;
    for (int64_t i = lo.AsInt(); i <= hi.AsInt(); ++i) {
      out.push_back(Value::MakeInt(i));
    }
    return Value::MakeBag(std::move(out));
  }
  if (e->is<CExpr::Merge>()) {
    const auto& m = e->as<CExpr::Merge>();
    DIABLO_ASSIGN_OR_RETURN(Value left, EvalExpr(m.left, env, globals));
    DIABLO_ASSIGN_OR_RETURN(Value right, EvalExpr(m.right, env, globals));
    if (m.has_op) return MergeWithOp(m.op, left, right);
    if (!left.is_bag() || !right.is_bag()) {
      return Status::RuntimeError("array merge applied to non-bags");
    }
    DIABLO_ASSIGN_OR_RETURN(ValueVec merged,
                            runtime::ArrayMergeLocal(left.bag(), right.bag()));
    return Value::MakeBag(std::move(merged));
  }
  // BagCons.
  ValueVec elems;
  for (const auto& c : e->as<CExpr::BagCons>().elems) {
    DIABLO_ASSIGN_OR_RETURN(Value v, EvalExpr(c, env, globals));
    elems.push_back(std::move(v));
  }
  return Value::MakeBag(std::move(elems));
}

StatusOr<Value> EvalComprehension(
    const CompPtr& comp, const Env& env,
    const std::map<std::string, Value>& globals) {
  // §3.3 semantics: a list of environments threaded through the
  // qualifiers left to right.
  std::vector<Env> envs = {env};
  // Variables bound by this comprehension so far (lifted by group-bys).
  std::vector<std::string> bound;

  auto note_bound = [&](const Pattern& p) {
    for (const std::string& v : p.Vars()) {
      if (std::find(bound.begin(), bound.end(), v) == bound.end()) {
        bound.push_back(v);
      }
    }
  };

  for (const Qualifier& q : comp->qualifiers) {
    switch (q.kind) {
      case Qualifier::Kind::kGenerator: {
        std::vector<Env> next;
        for (const Env& cur : envs) {
          DIABLO_ASSIGN_OR_RETURN(Value domain,
                                  EvalExpr(q.expr, cur, globals));
          if (!domain.is_bag()) {
            return Status::RuntimeError(
                StrCat("generator domain is not a bag: ",
                       domain.ToString()));
          }
          for (const Value& elem : domain.bag()) {
            Env extended = cur;
            DIABLO_RETURN_IF_ERROR(BindPattern(q.pattern, elem, &extended));
            next.push_back(std::move(extended));
          }
        }
        envs = std::move(next);
        note_bound(q.pattern);
        break;
      }
      case Qualifier::Kind::kCondition: {
        std::vector<Env> next;
        for (const Env& cur : envs) {
          DIABLO_ASSIGN_OR_RETURN(Value keep, EvalExpr(q.expr, cur, globals));
          if (!keep.is_bool()) {
            return Status::RuntimeError(
                StrCat("condition evaluated to ", keep.ToString()));
          }
          if (keep.AsBool()) next.push_back(cur);
        }
        envs = std::move(next);
        break;
      }
      case Qualifier::Kind::kLet: {
        for (Env& cur : envs) {
          DIABLO_ASSIGN_OR_RETURN(Value v, EvalExpr(q.expr, cur, globals));
          DIABLO_RETURN_IF_ERROR(BindPattern(q.pattern, v, &cur));
        }
        note_bound(q.pattern);
        break;
      }
      case Qualifier::Kind::kGroupBy: {
        if (q.expr == nullptr) {
          return Status::RuntimeError("group-by without a key expression");
        }
        // Partition the environments by key.
        std::map<Value, std::vector<const Env*>> groups;
        std::vector<Value> keys_in_order;
        for (const Env& cur : envs) {
          DIABLO_ASSIGN_OR_RETURN(Value key, EvalExpr(q.expr, cur, globals));
          auto [it, inserted] = groups.try_emplace(key);
          if (inserted) keys_in_order.push_back(key);
          it->second.push_back(&cur);
        }
        // Lift every comprehension-bound variable (except the group-by
        // pattern's) to the bag of its values in the group.
        std::vector<std::string> pattern_vars = q.pattern.Vars();
        std::vector<std::string> lifted;
        for (const std::string& v : bound) {
          if (std::find(pattern_vars.begin(), pattern_vars.end(), v) ==
              pattern_vars.end()) {
            lifted.push_back(v);
          }
        }
        std::vector<Env> next;
        for (const Value& key : keys_in_order) {
          Env grouped = env;  // the enclosing environment survives
          DIABLO_RETURN_IF_ERROR(BindPattern(q.pattern, key, &grouped));
          for (const std::string& v : lifted) {
            ValueVec column;
            for (const Env* member : groups[key]) {
              const Value* val = Lookup(*member, v);
              if (val != nullptr) column.push_back(*val);
            }
            grouped.emplace_back(v, Value::MakeBag(std::move(column)));
          }
          next.push_back(std::move(grouped));
        }
        envs = std::move(next);
        bound = pattern_vars;
        for (const std::string& v : lifted) bound.push_back(v);
        break;
      }
    }
  }

  ValueVec out;
  out.reserve(envs.size());
  for (const Env& cur : envs) {
    DIABLO_ASSIGN_OR_RETURN(Value v, EvalExpr(comp->head, cur, globals));
    out.push_back(std::move(v));
  }
  return Value::MakeBag(std::move(out));
}

// ----------------------------- LocalExecutor --------------------------------

Status LocalExecutor::Run(const comp::TargetProgram& program,
                          const Bindings& inputs) {
  globals_.clear();
  is_array_.clear();
  for (const auto& [name, value] : inputs) {
    globals_[name] = value;
    is_array_[name] = value.is_bag();
  }
  for (const auto& stmt : program.stmts) {
    DIABLO_RETURN_IF_ERROR(ExecStmt(stmt));
  }
  return Status::OK();
}

Status LocalExecutor::ExecStmt(const comp::TargetStmtPtr& stmt) {
  using comp::TargetStmt;
  if (stmt->is<TargetStmt::Declare>()) {
    const auto& d = stmt->as<TargetStmt::Declare>();
    if (d.is_array) {
      globals_[d.var] = Value::EmptyBag();
      is_array_[d.var] = true;
      return Status::OK();
    }
    is_array_[d.var] = false;
    if (d.init == nullptr) {
      globals_[d.var] = Value::MakeUnit();
      return Status::OK();
    }
    DIABLO_ASSIGN_OR_RETURN(Value bag, EvalExpr(d.init, {}, globals_));
    if (!bag.is_bag() || bag.bag().size() != 1) {
      return Status::RuntimeError(
          StrCat("initializer of '", d.var, "' is not a single value"));
    }
    globals_[d.var] = bag.bag()[0];
    return Status::OK();
  }
  if (stmt->is<TargetStmt::Assign>()) {
    const auto& a = stmt->as<TargetStmt::Assign>();
    DIABLO_ASSIGN_OR_RETURN(Value v, EvalExpr(a.value, {}, globals_));
    if (a.is_array) {
      if (!v.is_bag()) {
        return Status::RuntimeError(
            StrCat("array assignment to '", a.var,
                   "' produced a non-bag value"));
      }
      globals_[a.var] = std::move(v);
      is_array_[a.var] = true;
      return Status::OK();
    }
    if (!v.is_bag()) {
      return Status::RuntimeError("scalar assignment did not lift to a bag");
    }
    if (v.bag().empty()) return Status::OK();
    if (v.bag().size() > 1) {
      return Status::RuntimeError(
          StrCat("scalar assignment to '", a.var, "' produced ",
                 v.bag().size(), " values"));
    }
    globals_[a.var] = v.bag()[0];
    is_array_[a.var] = false;
    return Status::OK();
  }
  const auto& w = stmt->as<TargetStmt::While>();
  for (;;) {
    DIABLO_ASSIGN_OR_RETURN(Value cond, EvalExpr(w.cond, {}, globals_));
    if (!cond.is_bag()) {
      return Status::RuntimeError("while condition did not lift to a bag");
    }
    if (cond.bag().empty()) return Status::OK();
    if (!cond.bag()[0].is_bool()) {
      return Status::RuntimeError("while condition is not boolean");
    }
    if (!cond.bag()[0].AsBool()) return Status::OK();
    for (const auto& child : w.body) {
      DIABLO_RETURN_IF_ERROR(ExecStmt(child));
    }
  }
}

StatusOr<Value> LocalExecutor::GetScalar(const std::string& name) const {
  auto it = globals_.find(name);
  auto kind = is_array_.find(name);
  if (it == globals_.end() || (kind != is_array_.end() && kind->second)) {
    return Status::InvalidArgument(StrCat("no scalar variable '", name, "'"));
  }
  return it->second;
}

StatusOr<Value> LocalExecutor::GetArray(const std::string& name) const {
  auto it = globals_.find(name);
  auto kind = is_array_.find(name);
  if (it == globals_.end() || kind == is_array_.end() || !kind->second) {
    return Status::InvalidArgument(StrCat("no array variable '", name, "'"));
  }
  ValueVec rows = it->second.bag();
  std::sort(rows.begin(), rows.end());
  return Value::MakeBag(std::move(rows));
}

}  // namespace diablo::algebra
