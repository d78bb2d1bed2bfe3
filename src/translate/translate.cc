#include "translate/translate.h"

#include "analysis/affine.h"
#include "analysis/restrictions.h"
#include "common/strings.h"

namespace diablo::translate {

using ast::Expr;
using ast::LValue;
using ast::Stmt;
using comp::CExprPtr;
using comp::CompPtr;
using comp::Pattern;
using comp::Qualifier;
using comp::TargetStmtPtr;
using runtime::BinOp;
using runtime::UnOp;

// ----------------------------- variable table ------------------------------

namespace {

void InferVarsExpr(const ast::ExprPtr& e, std::map<std::string, VarInfo>* vars);

void InferVarsLValue(const ast::LValuePtr& d,
                     std::map<std::string, VarInfo>* vars) {
  if (d->is_var()) return;
  if (d->is_proj()) {
    InferVarsLValue(d->proj().base, vars);
    return;
  }
  // Indexing makes an undeclared name an array; a declared scalar stays
  // one, so the translator rejects the indexing at its location.
  VarInfo& info = (*vars)[d->index().array];
  if (!info.declared) info.is_array = true;
  for (const auto& e : d->index().indices) InferVarsExpr(e, vars);
}

void InferVarsExpr(const ast::ExprPtr& e,
                   std::map<std::string, VarInfo>* vars) {
  if (e == nullptr) return;
  if (e->is<Expr::LVal>()) {
    InferVarsLValue(e->as<Expr::LVal>().lvalue, vars);
    return;
  }
  if (e->is<Expr::Bin>()) {
    InferVarsExpr(e->as<Expr::Bin>().lhs, vars);
    InferVarsExpr(e->as<Expr::Bin>().rhs, vars);
    return;
  }
  if (e->is<Expr::Un>()) {
    InferVarsExpr(e->as<Expr::Un>().operand, vars);
    return;
  }
  if (e->is<Expr::TupleCons>()) {
    for (const auto& c : e->as<Expr::TupleCons>().elems) InferVarsExpr(c, vars);
    return;
  }
  if (e->is<Expr::RecordCons>()) {
    for (const auto& [unused, c] : e->as<Expr::RecordCons>().fields) {
      InferVarsExpr(c, vars);
    }
    return;
  }
  if (e->is<Expr::Call>()) {
    for (const auto& c : e->as<Expr::Call>().args) InferVarsExpr(c, vars);
    return;
  }
}

void InferVarsStmt(const ast::StmtPtr& s,
                   std::map<std::string, VarInfo>* vars) {
  if (s->is<Stmt::Incr>()) {
    InferVarsLValue(s->as<Stmt::Incr>().dest, vars);
    InferVarsExpr(s->as<Stmt::Incr>().value, vars);
    return;
  }
  if (s->is<Stmt::Assign>()) {
    InferVarsLValue(s->as<Stmt::Assign>().dest, vars);
    InferVarsExpr(s->as<Stmt::Assign>().value, vars);
    return;
  }
  if (s->is<Stmt::Decl>()) {
    const auto& node = s->as<Stmt::Decl>();
    VarInfo& info = (*vars)[node.name];
    info.declared = true;
    info.is_array = node.type != nullptr && node.type->IsCollection();
    InferVarsExpr(node.init, vars);
    return;
  }
  if (s->is<Stmt::ForRange>()) {
    const auto& node = s->as<Stmt::ForRange>();
    InferVarsExpr(node.lo, vars);
    InferVarsExpr(node.hi, vars);
    InferVarsStmt(node.body, vars);
    return;
  }
  if (s->is<Stmt::ForEach>()) {
    const auto& node = s->as<Stmt::ForEach>();
    // A for-in domain that is a plain variable is an array input.
    if (node.collection->is<Expr::LVal>() &&
        node.collection->as<Expr::LVal>().lvalue->is_var()) {
      (*vars)[node.collection->as<Expr::LVal>().lvalue->var().name].is_array =
          true;
    }
    InferVarsExpr(node.collection, vars);
    InferVarsStmt(node.body, vars);
    return;
  }
  if (s->is<Stmt::While>()) {
    InferVarsExpr(s->as<Stmt::While>().cond, vars);
    InferVarsStmt(s->as<Stmt::While>().body, vars);
    return;
  }
  if (s->is<Stmt::If>()) {
    const auto& node = s->as<Stmt::If>();
    InferVarsExpr(node.cond, vars);
    InferVarsStmt(node.then_branch, vars);
    if (node.else_branch != nullptr) InferVarsStmt(node.else_branch, vars);
    return;
  }
  for (const auto& child : s->as<Stmt::Block>().stmts) {
    InferVarsStmt(child, vars);
  }
}

}  // namespace

std::map<std::string, VarInfo> InferVars(const ast::Program& program) {
  std::map<std::string, VarInfo> vars;
  for (const auto& s : program.stmts) InferVarsStmt(s, &vars);
  return vars;
}

// ----------------------------- Figure 2: E ---------------------------------

StatusOr<CExprPtr> Rules::E(const Expr& e) {
  // (11g) constants.
  if (e.is<Expr::IntConst>()) {
    return comp::MakeBag({comp::MakeInt(e.as<Expr::IntConst>().value)});
  }
  if (e.is<Expr::DoubleConst>()) {
    return comp::MakeBag({comp::MakeDouble(e.as<Expr::DoubleConst>().value)});
  }
  if (e.is<Expr::BoolConst>()) {
    return comp::MakeBag({comp::MakeBool(e.as<Expr::BoolConst>().value)});
  }
  if (e.is<Expr::StringConst>()) {
    return comp::MakeBag({comp::MakeString(e.as<Expr::StringConst>().value)});
  }
  // (11a)-(11c) destinations.
  if (e.is<Expr::LVal>()) return LValueRead(*e.as<Expr::LVal>().lvalue);
  // (11d) binary operations.
  if (e.is<Expr::Bin>()) {
    const auto& b = e.as<Expr::Bin>();
    DIABLO_ASSIGN_OR_RETURN(CExprPtr l, E(*b.lhs));
    DIABLO_ASSIGN_OR_RETURN(CExprPtr r, E(*b.rhs));
    std::string v1 = names_.Fresh(), v2 = names_.Fresh();
    return comp::MakeNested(comp::MakeComp(
        comp::MakeBin(b.op, comp::MakeVar(v1), comp::MakeVar(v2)),
        {Qualifier::Generator(Pattern::Var(v1), l),
         Qualifier::Generator(Pattern::Var(v2), r)}));
  }
  if (e.is<Expr::Un>()) {
    const auto& u = e.as<Expr::Un>();
    DIABLO_ASSIGN_OR_RETURN(CExprPtr operand, E(*u.operand));
    std::string v = names_.Fresh();
    return comp::MakeNested(comp::MakeComp(
        comp::MakeUn(u.op, comp::MakeVar(v)),
        {Qualifier::Generator(Pattern::Var(v), operand)}));
  }
  // (11e) tuples.
  if (e.is<Expr::TupleCons>()) {
    std::vector<Qualifier> quals;
    std::vector<CExprPtr> parts;
    for (const auto& child : e.as<Expr::TupleCons>().elems) {
      DIABLO_ASSIGN_OR_RETURN(CExprPtr domain, E(*child));
      std::string v = names_.Fresh();
      quals.push_back(Qualifier::Generator(Pattern::Var(v), domain));
      parts.push_back(comp::MakeVar(v));
    }
    return comp::MakeNested(
        comp::MakeComp(comp::MakeTuple(std::move(parts)), std::move(quals)));
  }
  // (11f) records.
  if (e.is<Expr::RecordCons>()) {
    std::vector<Qualifier> quals;
    std::vector<std::pair<std::string, CExprPtr>> parts;
    for (const auto& [name, child] : e.as<Expr::RecordCons>().fields) {
      DIABLO_ASSIGN_OR_RETURN(CExprPtr domain, E(*child));
      std::string v = names_.Fresh();
      quals.push_back(Qualifier::Generator(Pattern::Var(v), domain));
      parts.emplace_back(name, comp::MakeVar(v));
    }
    return comp::MakeNested(
        comp::MakeComp(comp::MakeRecord(std::move(parts)), std::move(quals)));
  }
  // Builtin calls lift pointwise like (11d).
  const auto& call = e.as<Expr::Call>();
  if (!ast::IsBuiltinFunction(call.function)) {
    return Status::TranslationError(
        StrCat("unknown function '", call.function, "' in expression (",
               LocationString(e.loc), ")"));
  }
  std::vector<Qualifier> quals;
  std::vector<CExprPtr> args;
  for (const auto& child : call.args) {
    DIABLO_ASSIGN_OR_RETURN(CExprPtr domain, E(*child));
    std::string v = names_.Fresh();
    quals.push_back(Qualifier::Generator(Pattern::Var(v), domain));
    args.push_back(comp::MakeVar(v));
  }
  return comp::MakeNested(comp::MakeComp(
      comp::MakeCall(call.function, std::move(args)), std::move(quals)));
}

StatusOr<CExprPtr> Rules::LValueRead(const LValue& d) {
  // (11a) a variable lifts to the singleton bag {V}.
  if (d.is_var()) {
    return comp::MakeBag({comp::MakeVar(d.var().name)});
  }
  // (11b) projection.
  if (d.is_proj()) {
    DIABLO_ASSIGN_OR_RETURN(CExprPtr base, LValueRead(*d.proj().base));
    std::string v = names_.Fresh();
    return comp::MakeNested(comp::MakeComp(
        comp::MakeProj(comp::MakeVar(v), d.proj().field),
        {Qualifier::Generator(Pattern::Var(v), base)}));
  }
  // (11c) array indexing:
  // { v | k1 <- E[e1], ..., ((i1,..,in),v) <- V, i1 = k1, ... }.
  const auto& ix = d.index();
  auto it = vars_.find(ix.array);
  if (it != vars_.end() && !it->second.is_array) {
    return Status::TranslationError(
        StrCat("indexing non-array variable '", ix.array, "' (",
               LocationString(d.loc), ")"));
  }
  std::vector<Qualifier> quals;
  std::vector<std::string> keys;
  for (const auto& idx : ix.indices) {
    DIABLO_ASSIGN_OR_RETURN(CExprPtr domain, E(*idx));
    std::string k = names_.Fresh();
    quals.push_back(Qualifier::Generator(Pattern::Var(k), domain));
    keys.push_back(k);
  }
  std::vector<Pattern> index_pats;
  std::vector<std::string> index_vars;
  for (size_t i = 0; i < ix.indices.size(); ++i) {
    std::string iv = names_.Fresh();
    index_pats.push_back(Pattern::Var(iv));
    index_vars.push_back(iv);
  }
  std::string v = names_.Fresh();
  Pattern row = Pattern::Tuple(
      {index_pats.size() == 1 ? index_pats[0]
                              : Pattern::Tuple(index_pats),
       Pattern::Var(v)});
  quals.push_back(Qualifier::Generator(row, comp::MakeVar(ix.array)));
  for (size_t i = 0; i < keys.size(); ++i) {
    quals.push_back(Qualifier::Condition(comp::MakeBin(
        BinOp::kEq, comp::MakeVar(index_vars[i]), comp::MakeVar(keys[i]))));
  }
  return comp::MakeNested(
      comp::MakeComp(comp::MakeVar(v), std::move(quals)));
}

// ----------------------------- Figure 2: K ---------------------------------

StatusOr<CExprPtr> Rules::K(const LValue& d) {
  // (12a) scalar destination: the unit key.
  if (d.is_var()) {
    return comp::MakeBag({comp::MakeTuple({})});
  }
  // (12b) projection: same index as the base.
  if (d.is_proj()) return K(*d.proj().base);
  // (12c) array destination: E[(e1,...,en)].
  const auto& ix = d.index();
  if (ix.indices.size() == 1) {
    return E(*ix.indices[0]);
  }
  std::vector<Qualifier> quals;
  std::vector<CExprPtr> parts;
  for (const auto& idx : ix.indices) {
    DIABLO_ASSIGN_OR_RETURN(CExprPtr domain, E(*idx));
    std::string v = names_.Fresh();
    quals.push_back(Qualifier::Generator(Pattern::Var(v), domain));
    parts.push_back(comp::MakeVar(v));
  }
  return comp::MakeNested(
      comp::MakeComp(comp::MakeTuple(std::move(parts)), std::move(quals)));
}

// ----------------------------- Figure 2: D ---------------------------------

StatusOr<CExprPtr> Rules::D(const LValue& d, const CExprPtr& k) {
  // (13a).
  if (d.is_var()) {
    return comp::MakeBag({comp::MakeVar(d.var().name)});
  }
  // (13b).
  if (d.is_proj()) {
    DIABLO_ASSIGN_OR_RETURN(CExprPtr base, D(*d.proj().base, k));
    std::string v = names_.Fresh();
    return comp::MakeNested(comp::MakeComp(
        comp::MakeProj(comp::MakeVar(v), d.proj().field),
        {Qualifier::Generator(Pattern::Var(v), base)}));
  }
  // (13c) { v | ((i1,...,in),v) <- V, (i1,...,in) = k }.
  const auto& ix = d.index();
  std::vector<Pattern> index_pats;
  std::vector<CExprPtr> index_vars;
  for (size_t i = 0; i < ix.indices.size(); ++i) {
    std::string iv = names_.Fresh();
    index_pats.push_back(Pattern::Var(iv));
    index_vars.push_back(comp::MakeVar(iv));
  }
  std::string v = names_.Fresh();
  Pattern row = Pattern::Tuple(
      {index_pats.size() == 1 ? index_pats[0] : Pattern::Tuple(index_pats),
       Pattern::Var(v)});
  CExprPtr key = index_vars.size() == 1 ? index_vars[0]
                                        : comp::MakeTuple(index_vars);
  return comp::MakeNested(comp::MakeComp(
      comp::MakeVar(v),
      {Qualifier::Generator(row, comp::MakeVar(ix.array)),
       Qualifier::Condition(comp::MakeBin(BinOp::kEq, key, k))}));
}

// ----------------------------- Figure 2: S ---------------------------------

namespace {

class Translator {
 public:
  explicit Translator(std::map<std::string, VarInfo> vars)
      : vars_(std::move(vars)), rules_(vars_) {}

  StatusOr<std::vector<TargetStmtPtr>> S(const Stmt& s,
                                         const std::vector<Qualifier>& q);

  const std::map<std::string, VarInfo>& vars() const { return vars_; }

 private:
  bool IsArray(const std::string& name) const {
    auto it = vars_.find(name);
    return it != vars_.end() && it->second.is_array;
  }

  StatusOr<std::vector<TargetStmtPtr>> TranslateIncr(
      const Stmt::Incr& node, const std::vector<Qualifier>& q,
      SourceLocation loc);
  StatusOr<std::vector<TargetStmtPtr>> TranslateAssign(
      const Stmt::Assign& node, const std::vector<Qualifier>& q,
      SourceLocation loc);
  StatusOr<std::vector<TargetStmtPtr>> TranslateSequentialFor(
      const Stmt::ForRange& node, SourceLocation loc);

  std::map<std::string, VarInfo> vars_;
  Rules rules_;
  /// Indexes of the enclosing parallel for-range loops, outermost first,
  /// and how many for-in loops enclose the statement being translated.
  std::vector<std::string> range_indexes_;
  int for_in_depth_ = 0;
};

StatusOr<std::vector<TargetStmtPtr>> Translator::TranslateIncr(
    const Stmt::Incr& node, const std::vector<Qualifier>& q,
    SourceLocation loc) {
  if (!runtime::IsCommutativeMonoid(node.op)) {
    return Status::TranslationError(
        StrCat("incremental update operator '", runtime::BinOpName(node.op),
               "' is not a commutative monoid (", LocationString(loc), ")"));
  }
  const LValue& dest = *node.dest;
  if (dest.is_proj()) {
    return Status::Unsupported(
        StrCat("incremental update to record field ", dest.ToString(),
               " is not supported by the translator (", LocationString(loc),
               ")"));
  }
  DIABLO_ASSIGN_OR_RETURN(CExprPtr value, rules_.E(*node.value));
  if (dest.is_index()) {
    const std::string& array = dest.index().array;
    if (!IsArray(array)) {
      return Status::TranslationError(
          StrCat("indexing non-array variable '", array, "' (",
                 LocationString(loc), ")"));
    }
    // Rule (15a), coGroup form:
    //   V := V ⊳⊕ { (k, ⊕/v) | q, v <- E[e], k <- K[d], group by k }.
    // The group-by makes the delta's keys unique.
    std::vector<Qualifier> quals = q;
    std::string v = rules_.names().Fresh();
    quals.push_back(Qualifier::Generator(Pattern::Var(v), value));
    DIABLO_ASSIGN_OR_RETURN(CExprPtr key, rules_.K(dest));
    std::string k = rules_.names().Fresh();
    quals.push_back(Qualifier::Generator(Pattern::Var(k), key));
    // Explicit key expression: "group by k : k" (the display form
    // "group by k" of the paper). Pattern rebinds k to the key.
    quals.push_back(Qualifier::GroupBy(Pattern::Var(k), comp::MakeVar(k)));
    CompPtr delta = comp::MakeComp(
        comp::MakeTuple(
            {comp::MakeVar(k), comp::MakeReduce(node.op, comp::MakeVar(v))}),
        std::move(quals));
    return std::vector<TargetStmtPtr>{comp::MakeAssign(
        array,
        comp::MakeMergeOp(node.op, comp::MakeVar(array),
                          comp::MakeNested(delta), /*unique_keys=*/true),
        /*is_array=*/true, loc)};
  }
  // Scalar destination (group key is the unit tuple; Rule (16) later
  // removes the group-by):
  //   n := { n ⊕ (⊕/v) | q, v <- E[e], group by k : () }.
  const std::string& var = dest.var().name;
  if (IsArray(var)) {
    return Status::TranslationError(
        StrCat("incremental update to whole array '", var, "' (",
               LocationString(loc), ")"));
  }
  std::vector<Qualifier> quals = q;
  std::string v = rules_.names().Fresh();
  quals.push_back(Qualifier::Generator(Pattern::Var(v), value));
  std::string k = rules_.names().Fresh();
  quals.push_back(Qualifier::GroupBy(Pattern::Var(k), comp::MakeTuple({})));
  CompPtr update = comp::MakeComp(
      comp::MakeBin(node.op, comp::MakeVar(var),
                    comp::MakeReduce(node.op, comp::MakeVar(v))),
      std::move(quals));
  return std::vector<TargetStmtPtr>{comp::MakeAssign(
      var, comp::MakeNested(update), /*is_array=*/false, loc)};
}

StatusOr<std::vector<TargetStmtPtr>> Translator::TranslateAssign(
    const Stmt::Assign& node, const std::vector<Qualifier>& q,
    SourceLocation loc) {
  const LValue& dest = *node.dest;
  if (dest.is_proj()) {
    return Status::Unsupported(
        StrCat("assignment to record field ", dest.ToString(),
               " is not supported by the translator (",
               LocationString(loc), ")"));
  }
  if (dest.is_index()) {
    const std::string& array = dest.index().array;
    if (!IsArray(array)) {
      return Status::TranslationError(
          StrCat("indexing non-array variable '", array, "' (",
                 LocationString(loc), ")"));
    }
    // Rule (15b): V := V ⊳ { (k, v) | q, v <- E[e], k <- K[d] }.
    DIABLO_ASSIGN_OR_RETURN(CExprPtr value, rules_.E(*node.value));
    std::vector<Qualifier> quals = q;
    std::string v = rules_.names().Fresh();
    quals.push_back(Qualifier::Generator(Pattern::Var(v), value));
    DIABLO_ASSIGN_OR_RETURN(CExprPtr key, rules_.K(dest));
    std::string k = rules_.names().Fresh();
    quals.push_back(Qualifier::Generator(Pattern::Var(k), key));
    CompPtr update = comp::MakeComp(
        comp::MakeTuple({comp::MakeVar(k), comp::MakeVar(v)}),
        std::move(quals));
    // Each iteration yields at most one (k, v) when arrays are maps, so
    // the keys are unique when distinct iterations write distinct
    // elements. A for-in index is an element value, which may repeat.
    const bool unique_keys =
        for_in_depth_ == 0 &&
        analysis::IsInjectiveDest(node.dest, range_indexes_);
    return std::vector<TargetStmtPtr>{comp::MakeAssign(
        array,
        comp::MakeMerge(comp::MakeVar(array), comp::MakeNested(update),
                        unique_keys),
        /*is_array=*/true, loc)};
  }
  const std::string& var = dest.var().name;
  if (IsArray(var)) {
    // Whole-array assignment: only copying another array or resetting to
    // an empty collection is meaningful in bulk.
    if (node.value->is<Expr::LVal>() &&
        node.value->as<Expr::LVal>().lvalue->is_var()) {
      const std::string& src =
          node.value->as<Expr::LVal>().lvalue->var().name;
      if (!IsArray(src)) {
        return Status::TranslationError(
            StrCat("assigning scalar '", src, "' to array '", var, "' (",
                   LocationString(loc), ")"));
      }
      return std::vector<TargetStmtPtr>{comp::MakeAssign(
          var, comp::MakeVar(src), /*is_array=*/true, loc)};
    }
    if (node.value->is<Expr::Call>() &&
        node.value->as<Expr::Call>().args.empty()) {
      return std::vector<TargetStmtPtr>{comp::MakeAssign(
          var, comp::MakeBag({}), /*is_array=*/true, loc)};
    }
    return Status::Unsupported(
        StrCat("whole-array assignment to '", var,
               "' from a computed expression (", LocationString(loc), ")"));
  }
  // Scalar assignment: var := { v | q, v <- E[e] }.
  DIABLO_ASSIGN_OR_RETURN(CExprPtr value, rules_.E(*node.value));
  std::vector<Qualifier> quals = q;
  std::string v = rules_.names().Fresh();
  quals.push_back(Qualifier::Generator(Pattern::Var(v), value));
  CompPtr update = comp::MakeComp(comp::MakeVar(v), std::move(quals));
  return std::vector<TargetStmtPtr>{comp::MakeAssign(
      var, comp::MakeNested(update), /*is_array=*/false, loc)};
}

StatusOr<std::vector<TargetStmtPtr>> Translator::TranslateSequentialFor(
    const Stmt::ForRange& node, SourceLocation loc) {
  // A for-range loop containing a while-loop runs sequentially:
  //   v := lo; while (v <= hi) { body; v := v + 1 }.
  DIABLO_ASSIGN_OR_RETURN(CExprPtr lo, rules_.E(*node.lo));
  DIABLO_ASSIGN_OR_RETURN(CExprPtr hi, rules_.E(*node.hi));
  std::vector<TargetStmtPtr> out;
  out.push_back(comp::MakeDeclare(node.var, /*is_array=*/false, lo, loc));
  std::string h = rules_.names().Fresh();
  CExprPtr cond = comp::MakeNested(comp::MakeComp(
      comp::MakeBin(BinOp::kLe, comp::MakeVar(node.var), comp::MakeVar(h)),
      {Qualifier::Generator(Pattern::Var(h), hi)}));
  DIABLO_ASSIGN_OR_RETURN(std::vector<TargetStmtPtr> body, S(*node.body, {}));
  body.push_back(comp::MakeAssign(
      node.var,
      comp::MakeBag({comp::MakeBin(BinOp::kAdd, comp::MakeVar(node.var),
                                   comp::MakeInt(1))}),
      /*is_array=*/false, loc));
  out.push_back(comp::MakeWhile(cond, std::move(body), loc));
  return out;
}

StatusOr<std::vector<TargetStmtPtr>> Translator::S(
    const Stmt& s, const std::vector<Qualifier>& q) {
  // (15a) incremental update.
  if (s.is<Stmt::Incr>()) return TranslateIncr(s.as<Stmt::Incr>(), q, s.loc);
  // (15b) assignment.
  if (s.is<Stmt::Assign>()) {
    return TranslateAssign(s.as<Stmt::Assign>(), q, s.loc);
  }
  // (15c) declaration.
  if (s.is<Stmt::Decl>()) {
    const auto& node = s.as<Stmt::Decl>();
    if (!q.empty()) {
      return Status::TranslationError(
          StrCat("declaration of '", node.name, "' inside a for-loop (",
                 LocationString(s.loc), ")"));
    }
    auto it = vars_.find(node.name);
    bool is_array = it != vars_.end() && it->second.is_array;
    CExprPtr init;
    if (!is_array && node.init != nullptr) {
      DIABLO_ASSIGN_OR_RETURN(init, rules_.E(*node.init));
    }
    return std::vector<TargetStmtPtr>{
        comp::MakeDeclare(node.name, is_array, init, s.loc)};
  }
  // (15d) for-range.
  if (s.is<Stmt::ForRange>()) {
    const auto& node = s.as<Stmt::ForRange>();
    if (analysis::ContainsWhile(*node.body)) {
      if (!q.empty()) {
        return Status::TranslationError(
            StrCat("sequential for-loop nested inside a parallel for-loop (",
                   LocationString(s.loc), ")"));
      }
      return TranslateSequentialFor(node, s.loc);
    }
    DIABLO_ASSIGN_OR_RETURN(CExprPtr lo, rules_.E(*node.lo));
    DIABLO_ASSIGN_OR_RETURN(CExprPtr hi, rules_.E(*node.hi));
    std::vector<Qualifier> quals = q;
    std::string v1 = rules_.names().Fresh();
    std::string v2 = rules_.names().Fresh();
    quals.push_back(Qualifier::Generator(Pattern::Var(v1), lo));
    quals.push_back(Qualifier::Generator(Pattern::Var(v2), hi));
    quals.push_back(Qualifier::Generator(
        Pattern::Var(node.var),
        comp::MakeRange(comp::MakeVar(v1), comp::MakeVar(v2), s.loc)));
    range_indexes_.push_back(node.var);
    auto body = S(*node.body, quals);
    range_indexes_.pop_back();
    return body;
  }
  // (15e) for-in.
  if (s.is<Stmt::ForEach>()) {
    const auto& node = s.as<Stmt::ForEach>();
    if (analysis::ContainsWhile(*node.body)) {
      return Status::Unsupported(
          StrCat("for-in loop containing a while-loop cannot be translated (",
                 LocationString(s.loc), ")"));
    }
    DIABLO_ASSIGN_OR_RETURN(CExprPtr domain, rules_.E(*node.collection));
    std::vector<Qualifier> quals = q;
    std::string a = rules_.names().Fresh();
    std::string i = rules_.names().Fresh();
    quals.push_back(Qualifier::Generator(Pattern::Var(a), domain));
    quals.push_back(Qualifier::Generator(
        Pattern::Tuple({Pattern::Var(i), Pattern::Var(node.var)}),
        comp::MakeVar(a)));
    ++for_in_depth_;
    auto body = S(*node.body, quals);
    --for_in_depth_;
    return body;
  }
  // (15f) while.
  if (s.is<Stmt::While>()) {
    const auto& node = s.as<Stmt::While>();
    if (!q.empty()) {
      return Status::TranslationError(
          StrCat("while-loop nested inside a parallel for-loop (",
                 LocationString(s.loc), ")"));
    }
    DIABLO_ASSIGN_OR_RETURN(CExprPtr cond, rules_.E(*node.cond));
    DIABLO_ASSIGN_OR_RETURN(std::vector<TargetStmtPtr> body,
                            S(*node.body, {}));
    return std::vector<TargetStmtPtr>{
        comp::MakeWhile(cond, std::move(body), s.loc)};
  }
  // (15g) conditional.
  if (s.is<Stmt::If>()) {
    const auto& node = s.as<Stmt::If>();
    DIABLO_ASSIGN_OR_RETURN(CExprPtr cond, rules_.E(*node.cond));
    std::vector<Qualifier> then_q = q;
    std::string p = rules_.names().Fresh();
    then_q.push_back(Qualifier::Generator(Pattern::Var(p), cond));
    then_q.push_back(Qualifier::Condition(comp::MakeVar(p)));
    DIABLO_ASSIGN_OR_RETURN(std::vector<TargetStmtPtr> out,
                            S(*node.then_branch, then_q));
    if (node.else_branch != nullptr) {
      std::vector<Qualifier> else_q = q;
      std::string p2 = rules_.names().Fresh();
      else_q.push_back(Qualifier::Generator(Pattern::Var(p2), cond));
      else_q.push_back(
          Qualifier::Condition(comp::MakeUn(UnOp::kNot, comp::MakeVar(p2))));
      DIABLO_ASSIGN_OR_RETURN(std::vector<TargetStmtPtr> els,
                              S(*node.else_branch, else_q));
      for (auto& stmt : els) out.push_back(std::move(stmt));
    }
    return out;
  }
  // (15h) block.
  std::vector<TargetStmtPtr> out;
  for (const auto& child : s.as<Stmt::Block>().stmts) {
    DIABLO_ASSIGN_OR_RETURN(std::vector<TargetStmtPtr> stmts, S(*child, q));
    for (auto& stmt : stmts) out.push_back(std::move(stmt));
  }
  return out;
}

}  // namespace

StatusOr<TranslationResult> Translate(const ast::Program& program) {
  TranslationResult result;
  result.vars = InferVars(program);
  Translator translator(result.vars);
  for (const auto& s : program.stmts) {
    DIABLO_ASSIGN_OR_RETURN(std::vector<TargetStmtPtr> stmts,
                            translator.S(*s, {}));
    for (auto& stmt : stmts) result.program.stmts.push_back(std::move(stmt));
  }
  return result;
}

}  // namespace diablo::translate
