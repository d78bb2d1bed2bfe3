#include "exec/reference_interpreter.h"

#include <cmath>
#include <optional>

#include "common/strings.h"

namespace diablo::exec {

using ast::Expr;
using ast::LValue;
using ast::Stmt;
using runtime::BinOp;
using runtime::Value;
using runtime::ValueVec;

namespace {

/// Projects a field out of a record, or `_N` out of a tuple.
StatusOr<Value> ProjectField(const Value& v, const std::string& field) {
  if (v.is_record()) {
    const Value* f = v.FindField(field);
    if (f == nullptr) {
      return Status::RuntimeError(
          StrCat("record ", v.ToString(), " has no field '", field, "'"));
    }
    return *f;
  }
  if (v.is_tuple() && field.size() >= 2 && field[0] == '_') {
    int idx = std::atoi(field.c_str() + 1);
    if (idx >= 1 && static_cast<size_t>(idx) <= v.tuple().size()) {
      return v.tuple()[static_cast<size_t>(idx) - 1];
    }
    return Status::RuntimeError(
        StrCat("tuple ", v.ToString(), " has no component ", field));
  }
  return Status::RuntimeError(StrCat("projection .", field,
                                     " applied to non-record value ",
                                     v.ToString()));
}

/// Rebuilds `cur` with the value at `path` replaced by `v`.
StatusOr<Value> UpdateFieldPath(const Value& cur,
                                const std::vector<std::string>& path,
                                size_t at, const Value& v) {
  if (at == path.size()) return v;
  const std::string& field = path[at];
  if (cur.is_record()) {
    runtime::FieldVec fields = cur.fields();
    for (auto& [name, val] : fields) {
      if (name == field) {
        DIABLO_ASSIGN_OR_RETURN(val, UpdateFieldPath(val, path, at + 1, v));
        return Value::MakeRecord(std::move(fields));
      }
    }
    return Status::RuntimeError(
        StrCat("record ", cur.ToString(), " has no field '", field, "'"));
  }
  if (cur.is_tuple() && field.size() >= 2 && field[0] == '_') {
    int idx = std::atoi(field.c_str() + 1);
    if (idx >= 1 && static_cast<size_t>(idx) <= cur.tuple().size()) {
      ValueVec elems(cur.tuple().begin(), cur.tuple().end());
      DIABLO_ASSIGN_OR_RETURN(
          elems[static_cast<size_t>(idx) - 1],
          UpdateFieldPath(elems[static_cast<size_t>(idx) - 1], path, at + 1,
                          v));
      return Value::MakeTuple(std::move(elems));
    }
  }
  return Status::RuntimeError(StrCat("cannot update field '", field,
                                     "' of value ", cur.ToString()));
}

bool IsCollectionConstructor(const std::string& name) {
  return name == "vector" || name == "matrix" || name == "map" ||
         name == "bag";
}

}  // namespace

// ----------------------------- expressions --------------------------------

StatusOr<ReferenceInterpreter::Lifted> ReferenceInterpreter::EvalExpr(
    const Expr& e) {
  if (e.is<Expr::LVal>()) return EvalLValueRead(*e.as<Expr::LVal>().lvalue);
  if (e.is<Expr::IntConst>()) {
    return Lifted::Of(Value::MakeInt(e.as<Expr::IntConst>().value));
  }
  if (e.is<Expr::DoubleConst>()) {
    return Lifted::Of(Value::MakeDouble(e.as<Expr::DoubleConst>().value));
  }
  if (e.is<Expr::BoolConst>()) {
    return Lifted::Of(Value::MakeBool(e.as<Expr::BoolConst>().value));
  }
  if (e.is<Expr::StringConst>()) {
    return Lifted::Of(Value::MakeString(e.as<Expr::StringConst>().value));
  }
  if (e.is<Expr::Bin>()) {
    const auto& b = e.as<Expr::Bin>();
    DIABLO_ASSIGN_OR_RETURN(Lifted l, EvalExpr(*b.lhs));
    if (!l.present) return Lifted::Absent();
    DIABLO_ASSIGN_OR_RETURN(Lifted r, EvalExpr(*b.rhs));
    if (!r.present) return Lifted::Absent();
    DIABLO_ASSIGN_OR_RETURN(Value v, runtime::EvalBinOp(b.op, l.value, r.value));
    return Lifted::Of(std::move(v));
  }
  if (e.is<Expr::Un>()) {
    const auto& u = e.as<Expr::Un>();
    DIABLO_ASSIGN_OR_RETURN(Lifted l, EvalExpr(*u.operand));
    if (!l.present) return Lifted::Absent();
    DIABLO_ASSIGN_OR_RETURN(Value v, runtime::EvalUnOp(u.op, l.value));
    return Lifted::Of(std::move(v));
  }
  if (e.is<Expr::TupleCons>()) {
    ValueVec elems;
    for (const auto& child : e.as<Expr::TupleCons>().elems) {
      DIABLO_ASSIGN_OR_RETURN(Lifted l, EvalExpr(*child));
      if (!l.present) return Lifted::Absent();
      elems.push_back(std::move(l.value));
    }
    return Lifted::Of(Value::MakeTuple(std::move(elems)));
  }
  if (e.is<Expr::RecordCons>()) {
    runtime::FieldVec fields;
    for (const auto& [name, child] : e.as<Expr::RecordCons>().fields) {
      DIABLO_ASSIGN_OR_RETURN(Lifted l, EvalExpr(*child));
      if (!l.present) return Lifted::Absent();
      fields.emplace_back(name, std::move(l.value));
    }
    return Lifted::Of(Value::MakeRecord(std::move(fields)));
  }
  return EvalCall(e.as<Expr::Call>());
}

StatusOr<ReferenceInterpreter::Lifted> ReferenceInterpreter::EvalCall(
    const Expr::Call& call) {
  if (IsCollectionConstructor(call.function) && call.args.empty()) {
    return Status::RuntimeError(
        StrCat("collection constructor ", call.function,
               "() is only valid as a declaration initializer"));
  }
  std::vector<Value> args;
  for (const auto& a : call.args) {
    DIABLO_ASSIGN_OR_RETURN(Lifted l, EvalExpr(*a));
    if (!l.present) return Lifted::Absent();
    args.push_back(std::move(l.value));
  }
  std::optional<runtime::Builtin> fn = runtime::FindBuiltin(call.function);
  if (!fn.has_value()) {
    return Status::RuntimeError(
        StrCat("unknown function '", call.function, "'"));
  }
  DIABLO_ASSIGN_OR_RETURN(Value v, runtime::EvalBuiltin(*fn, args));
  return Lifted::Of(std::move(v));
}

StatusOr<ReferenceInterpreter::Lifted> ReferenceInterpreter::EvalLValueRead(
    const LValue& d) {
  DIABLO_ASSIGN_OR_RETURN(ResolvedDest rd, ResolveDest(d));
  if (!rd.index_present) return Lifted::Absent();
  Value current;
  if (rd.indexed) {
    auto it = rd.var->array.elems.find(rd.key);
    if (it == rd.var->array.elems.end()) return Lifted::Absent();
    current = it->second;
  } else {
    if (rd.var->is_array) {
      // Whole-array read: materialize as a bag of pairs.
      ValueVec pairs;
      pairs.reserve(rd.var->array.elems.size());
      for (const auto& [k, v] : rd.var->array.elems) {
        pairs.push_back(Value::MakePair(k, v));
      }
      current = Value::MakeBag(std::move(pairs));
    } else {
      current = rd.var->scalar.value;
    }
  }
  for (const std::string& field : rd.field_path) {
    DIABLO_ASSIGN_OR_RETURN(current, ProjectField(current, field));
  }
  return Lifted::Of(std::move(current));
}

// ----------------------------- destinations -------------------------------

ReferenceInterpreter::Variable& ReferenceInterpreter::VarSlot(
    const std::string& name) {
  return vars_[name];
}

StatusOr<ReferenceInterpreter::ResolvedDest> ReferenceInterpreter::ResolveDest(
    const LValue& d) {
  if (d.is_var()) {
    auto it = vars_.find(d.var().name);
    if (it == vars_.end()) {
      return Status::RuntimeError(
          StrCat("undefined variable '", d.var().name, "'"));
    }
    ResolvedDest rd;
    rd.var = &it->second;
    return rd;
  }
  if (d.is_index()) {
    const auto& ix = d.index();
    auto it = vars_.find(ix.array);
    if (it == vars_.end()) {
      return Status::RuntimeError(
          StrCat("undefined array '", ix.array, "'"));
    }
    if (!it->second.is_array) {
      return Status::RuntimeError(
          StrCat("indexing non-array variable '", ix.array, "'"));
    }
    ResolvedDest rd;
    rd.var = &it->second;
    rd.indexed = true;
    ValueVec keys;
    for (const auto& e : ix.indices) {
      DIABLO_ASSIGN_OR_RETURN(Lifted l, EvalExpr(*e));
      if (!l.present) {
        rd.index_present = false;
        return rd;
      }
      keys.push_back(std::move(l.value));
    }
    rd.key = keys.size() == 1 ? keys[0] : Value::MakeTuple(std::move(keys));
    return rd;
  }
  // Projection: resolve the base, then extend the field path.
  DIABLO_ASSIGN_OR_RETURN(ResolvedDest rd, ResolveDest(*d.proj().base));
  rd.field_path.push_back(d.proj().field);
  return rd;
}

// ----------------------------- statements ---------------------------------

namespace {

/// Dense (declared vector/matrix) arrays reject writes at negative
/// integer subscripts — the out-of-bounds fault the abstract interpreter
/// proves statically as D201. Reads of such elements stay absent.
Status CheckDenseWrite(bool dense, const LValue& dest, const Value& key) {
  if (!dense) return Status::OK();
  auto check_one = [&](const Value& k) {
    if (k.is_int() && k.AsInt() < 0) {
      return Status::RuntimeError(
          StrCat("out-of-bounds write to dense array '", dest.RootName(),
                 "': subscript ", k.AsInt(), " is negative"));
    }
    return Status::OK();
  };
  if (key.is_tuple()) {
    for (const Value& k : key.tuple()) {
      DIABLO_RETURN_IF_ERROR(check_one(k));
    }
    return Status::OK();
  }
  return check_one(key);
}

}  // namespace

Status ReferenceInterpreter::ExecAssign(const LValue& dest, const Value& v) {
  DIABLO_ASSIGN_OR_RETURN(ResolvedDest rd, ResolveDest(dest));
  if (!rd.index_present) return Status::OK();  // lifted: no destination
  if (rd.indexed) {
    if (rd.field_path.empty()) {
      DIABLO_RETURN_IF_ERROR(CheckDenseWrite(rd.var->dense, dest, rd.key));
      rd.var->array.elems.insert_or_assign(rd.key, v);
      return Status::OK();
    }
    auto it = rd.var->array.elems.find(rd.key);
    if (it == rd.var->array.elems.end()) return Status::OK();  // lifted
    DIABLO_ASSIGN_OR_RETURN(it->second,
                            UpdateFieldPath(it->second, rd.field_path, 0, v));
    return Status::OK();
  }
  if (rd.field_path.empty()) {
    if (rd.var->is_array) {
      // Whole-array replacement from a bag of pairs.
      if (!v.is_bag()) {
        return Status::RuntimeError(
            StrCat("assigning non-bag ", v.ToString(), " to array variable"));
      }
      rd.var->array.elems.clear();
      for (const Value& pair : v.bag()) {
        if (!pair.is_tuple() || pair.tuple().size() != 2) {
          return Status::RuntimeError("array assignment row is not a pair");
        }
        rd.var->array.elems.insert_or_assign(pair.tuple()[0],
                                             pair.tuple()[1]);
      }
      return Status::OK();
    }
    rd.var->scalar.value = v;
    return Status::OK();
  }
  DIABLO_ASSIGN_OR_RETURN(
      rd.var->scalar.value,
      UpdateFieldPath(rd.var->scalar.value, rd.field_path, 0, v));
  return Status::OK();
}

Status ReferenceInterpreter::ExecIncr(const LValue& dest, BinOp op,
                                      const Value& v) {
  DIABLO_ASSIGN_OR_RETURN(ResolvedDest rd, ResolveDest(dest));
  if (!rd.index_present) return Status::OK();
  if (rd.indexed) {
    auto it = rd.var->array.elems.find(rd.key);
    if (rd.field_path.empty()) {
      DIABLO_RETURN_IF_ERROR(CheckDenseWrite(rd.var->dense, dest, rd.key));
      if (it == rd.var->array.elems.end()) {
        // Missing element: start from the monoid identity.
        DIABLO_ASSIGN_OR_RETURN(
            Value combined,
            runtime::EvalBinOp(op, runtime::MonoidIdentity(op, v), v));
        rd.var->array.elems.emplace(rd.key, std::move(combined));
      } else {
        DIABLO_ASSIGN_OR_RETURN(it->second,
                                runtime::EvalBinOp(op, it->second, v));
      }
      return Status::OK();
    }
    if (it == rd.var->array.elems.end()) return Status::OK();  // lifted
    Value cur = it->second;
    for (const std::string& f : rd.field_path) {
      DIABLO_ASSIGN_OR_RETURN(cur, ProjectField(cur, f));
    }
    DIABLO_ASSIGN_OR_RETURN(Value combined, runtime::EvalBinOp(op, cur, v));
    DIABLO_ASSIGN_OR_RETURN(
        it->second, UpdateFieldPath(it->second, rd.field_path, 0, combined));
    return Status::OK();
  }
  // Scalar destination.
  Value cur = rd.var->scalar.value;
  for (const std::string& f : rd.field_path) {
    DIABLO_ASSIGN_OR_RETURN(cur, ProjectField(cur, f));
  }
  DIABLO_ASSIGN_OR_RETURN(Value combined, runtime::EvalBinOp(op, cur, v));
  if (rd.field_path.empty()) {
    rd.var->scalar.value = std::move(combined);
  } else {
    DIABLO_ASSIGN_OR_RETURN(
        rd.var->scalar.value,
        UpdateFieldPath(rd.var->scalar.value, rd.field_path, 0, combined));
  }
  return Status::OK();
}

Status ReferenceInterpreter::ExecStmt(const Stmt& s) {
  ++iterations_;
  if (s.is<Stmt::Incr>()) {
    const auto& node = s.as<Stmt::Incr>();
    DIABLO_ASSIGN_OR_RETURN(Lifted v, EvalExpr(*node.value));
    if (!v.present) return Status::OK();
    return ExecIncr(*node.dest, node.op, v.value);
  }
  if (s.is<Stmt::Assign>()) {
    const auto& node = s.as<Stmt::Assign>();
    DIABLO_ASSIGN_OR_RETURN(Lifted v, EvalExpr(*node.value));
    if (!v.present) return Status::OK();
    return ExecAssign(*node.dest, v.value);
  }
  if (s.is<Stmt::Decl>()) {
    const auto& node = s.as<Stmt::Decl>();
    Variable& var = VarSlot(node.name);
    if (node.type != nullptr && node.type->IsCollection()) {
      var.is_array = true;
      var.dense =
          node.type->name == "vector" || node.type->name == "matrix";
      var.array.elems.clear();
      // A collection initializer (vector()/map()/...) means "empty".
      return Status::OK();
    }
    var.is_array = false;
    if (node.init != nullptr) {
      DIABLO_ASSIGN_OR_RETURN(Lifted v, EvalExpr(*node.init));
      if (!v.present) {
        return Status::RuntimeError(
            StrCat("initializer of '", node.name, "' has no value"));
      }
      var.scalar.value = std::move(v.value);
    }
    return Status::OK();
  }
  if (s.is<Stmt::ForRange>()) {
    const auto& node = s.as<Stmt::ForRange>();
    DIABLO_ASSIGN_OR_RETURN(Lifted lo, EvalExpr(*node.lo));
    DIABLO_ASSIGN_OR_RETURN(Lifted hi, EvalExpr(*node.hi));
    if (!lo.present || !hi.present) return Status::OK();
    if (!lo.value.is_int() || !hi.value.is_int()) {
      return Status::RuntimeError("for-loop bounds must be integers");
    }
    // The loop variable shadows any previous binding.
    Variable saved = VarSlot(node.var);
    for (int64_t i = lo.value.AsInt(); i <= hi.value.AsInt(); ++i) {
      Variable& slot = VarSlot(node.var);
      slot.is_array = false;
      slot.scalar.value = Value::MakeInt(i);
      DIABLO_RETURN_IF_ERROR(ExecStmt(*node.body));
    }
    VarSlot(node.var) = std::move(saved);
    return Status::OK();
  }
  if (s.is<Stmt::ForEach>()) {
    const auto& node = s.as<Stmt::ForEach>();
    DIABLO_ASSIGN_OR_RETURN(Lifted coll, EvalExpr(*node.collection));
    if (!coll.present) return Status::OK();
    if (!coll.value.is_bag()) {
      return Status::RuntimeError("for-in expects a collection");
    }
    Variable saved = VarSlot(node.var);
    for (const Value& pair : coll.value.bag()) {
      if (!pair.is_tuple() || pair.tuple().size() != 2) {
        return Status::RuntimeError(
            "for-in collection rows must be (index, value) pairs");
      }
      Variable& slot = VarSlot(node.var);
      slot.is_array = false;
      slot.scalar.value = pair.tuple()[1];
      DIABLO_RETURN_IF_ERROR(ExecStmt(*node.body));
    }
    VarSlot(node.var) = std::move(saved);
    return Status::OK();
  }
  if (s.is<Stmt::While>()) {
    const auto& node = s.as<Stmt::While>();
    for (;;) {
      DIABLO_ASSIGN_OR_RETURN(Lifted cond, EvalExpr(*node.cond));
      if (!cond.present) return Status::OK();
      if (!cond.value.is_bool()) {
        return Status::RuntimeError("while condition must be boolean");
      }
      if (!cond.value.AsBool()) return Status::OK();
      DIABLO_RETURN_IF_ERROR(ExecStmt(*node.body));
    }
  }
  if (s.is<Stmt::If>()) {
    const auto& node = s.as<Stmt::If>();
    DIABLO_ASSIGN_OR_RETURN(Lifted cond, EvalExpr(*node.cond));
    if (!cond.present) return Status::OK();  // lifted: no branch runs
    if (!cond.value.is_bool()) {
      return Status::RuntimeError("if condition must be boolean");
    }
    if (cond.value.AsBool()) return ExecStmt(*node.then_branch);
    if (node.else_branch != nullptr) return ExecStmt(*node.else_branch);
    return Status::OK();
  }
  const auto& block = s.as<Stmt::Block>();
  for (const auto& child : block.stmts) {
    DIABLO_RETURN_IF_ERROR(ExecStmt(*child));
  }
  return Status::OK();
}

// ----------------------------- driver --------------------------------------

Status ReferenceInterpreter::Run(const ast::Program& program,
                                 const Bindings& inputs) {
  vars_.clear();
  iterations_ = 0;
  for (const auto& [name, value] : inputs) {
    Variable& var = VarSlot(name);
    if (value.is_bag()) {
      var.is_array = true;
      for (const Value& pair : value.bag()) {
        if (!pair.is_tuple() || pair.tuple().size() != 2) {
          return Status::InvalidArgument(
              StrCat("input array '", name,
                     "' must contain (key,value) pairs, got ",
                     pair.ToString()));
        }
        var.array.elems.insert_or_assign(pair.tuple()[0], pair.tuple()[1]);
      }
    } else {
      var.is_array = false;
      var.scalar.value = value;
    }
  }
  for (const auto& s : program.stmts) {
    DIABLO_RETURN_IF_ERROR(ExecStmt(*s));
  }
  return Status::OK();
}

StatusOr<Value> ReferenceInterpreter::GetScalar(const std::string& name) const {
  auto it = vars_.find(name);
  if (it == vars_.end() || it->second.is_array) {
    return Status::InvalidArgument(StrCat("no scalar variable '", name, "'"));
  }
  return it->second.scalar.value;
}

StatusOr<Value> ReferenceInterpreter::GetArray(const std::string& name) const {
  auto it = vars_.find(name);
  if (it == vars_.end() || !it->second.is_array) {
    return Status::InvalidArgument(StrCat("no array variable '", name, "'"));
  }
  ValueVec pairs;
  pairs.reserve(it->second.array.elems.size());
  for (const auto& [k, v] : it->second.array.elems) {
    pairs.push_back(Value::MakePair(k, v));
  }
  return Value::MakeBag(std::move(pairs));
}

}  // namespace diablo::exec
