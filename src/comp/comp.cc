#include "comp/comp.h"

namespace diablo::comp {

// ----------------------------- Pattern -------------------------------------

void Pattern::CollectVars(std::vector<std::string>* out) const {
  if (!is_tuple) {
    if (var != "_") out->push_back(var);
    return;
  }
  for (const Pattern& p : elems) p.CollectVars(out);
}

std::vector<std::string> Pattern::Vars() const {
  std::vector<std::string> out;
  CollectVars(&out);
  return out;
}

bool Pattern::operator==(const Pattern& other) const {
  if (is_tuple != other.is_tuple) return false;
  if (!is_tuple) return var == other.var;
  if (elems.size() != other.elems.size()) return false;
  for (size_t i = 0; i < elems.size(); ++i) {
    if (!(elems[i] == other.elems[i])) return false;
  }
  return true;
}

// ----------------------------- factories -----------------------------------

namespace {
CExprPtr Wrap(CExpr e) { return std::make_shared<CExpr>(std::move(e)); }
}  // namespace

CExprPtr MakeVar(std::string name) {
  return Wrap(CExpr{CExpr::Var{std::move(name)}});
}
CExprPtr MakeBin(runtime::BinOp op, CExprPtr l, CExprPtr r) {
  return Wrap(CExpr{CExpr::Bin{op, std::move(l), std::move(r)}});
}
CExprPtr MakeUn(runtime::UnOp op, CExprPtr e) {
  return Wrap(CExpr{CExpr::Un{op, std::move(e)}});
}
CExprPtr MakeTuple(std::vector<CExprPtr> elems) {
  return Wrap(CExpr{CExpr::TupleCons{std::move(elems)}});
}
CExprPtr MakeRecord(std::vector<std::pair<std::string, CExprPtr>> fields) {
  return Wrap(CExpr{CExpr::RecordCons{std::move(fields)}});
}
CExprPtr MakeProj(CExprPtr base, std::string field) {
  return Wrap(CExpr{CExpr::Proj{std::move(base), std::move(field)}});
}
CExprPtr MakeInt(int64_t v) { return Wrap(CExpr{CExpr::IntConst{v}}); }
CExprPtr MakeDouble(double v) { return Wrap(CExpr{CExpr::DoubleConst{v}}); }
CExprPtr MakeBool(bool v) { return Wrap(CExpr{CExpr::BoolConst{v}}); }
CExprPtr MakeString(std::string v) {
  return Wrap(CExpr{CExpr::StringConst{std::move(v)}});
}
CExprPtr MakeCall(std::string fn, std::vector<CExprPtr> args) {
  return Wrap(CExpr{CExpr::Call{std::move(fn), std::move(args)}});
}
CExprPtr MakeReduce(runtime::BinOp op, CExprPtr arg) {
  return Wrap(CExpr{CExpr::Reduce{op, std::move(arg)}});
}
CExprPtr MakeNested(CompPtr comp) {
  return Wrap(CExpr{CExpr::Nested{std::move(comp)}});
}
CExprPtr MakeRange(CExprPtr lo, CExprPtr hi,
                   std::optional<SourceLocation> loc) {
  return Wrap(CExpr{CExpr::Range{std::move(lo), std::move(hi), loc}});
}
CExprPtr MakeMerge(CExprPtr left, CExprPtr right, bool unique_keys) {
  return Wrap(CExpr{CExpr::Merge{std::move(left), std::move(right),
                                 /*has_op=*/false, runtime::BinOp::kAdd,
                                 unique_keys}});
}
CExprPtr MakeMergeOp(runtime::BinOp op, CExprPtr left, CExprPtr right,
                     bool unique_keys) {
  return Wrap(CExpr{CExpr::Merge{std::move(left), std::move(right),
                                 /*has_op=*/true, op, unique_keys}});
}
CExprPtr MakeBag(std::vector<CExprPtr> elems) {
  return Wrap(CExpr{CExpr::BagCons{std::move(elems)}});
}

Qualifier Qualifier::Generator(Pattern p, CExprPtr domain) {
  Qualifier q;
  q.kind = Kind::kGenerator;
  q.pattern = std::move(p);
  q.expr = std::move(domain);
  return q;
}
Qualifier Qualifier::Let(Pattern p, CExprPtr e) {
  Qualifier q;
  q.kind = Kind::kLet;
  q.pattern = std::move(p);
  q.expr = std::move(e);
  return q;
}
Qualifier Qualifier::Condition(CExprPtr e) {
  Qualifier q;
  q.kind = Kind::kCondition;
  q.expr = std::move(e);
  return q;
}
Qualifier Qualifier::GroupBy(Pattern p, CExprPtr key) {
  Qualifier q;
  q.kind = Kind::kGroupBy;
  q.pattern = std::move(p);
  q.expr = std::move(key);
  return q;
}

CompPtr MakeComp(CExprPtr head, std::vector<Qualifier> qualifiers) {
  auto c = std::make_shared<Comprehension>();
  c->head = std::move(head);
  c->qualifiers = std::move(qualifiers);
  return c;
}

TargetStmtPtr MakeAssign(std::string var, CExprPtr value, bool is_array,
                         SourceLocation loc) {
  auto s = std::make_shared<TargetStmt>();
  s->node = TargetStmt::Assign{std::move(var), std::move(value), is_array};
  s->loc = loc;
  return s;
}
TargetStmtPtr MakeWhile(CExprPtr cond, std::vector<TargetStmtPtr> body,
                        SourceLocation loc) {
  auto s = std::make_shared<TargetStmt>();
  s->node = TargetStmt::While{std::move(cond), std::move(body)};
  s->loc = loc;
  return s;
}
TargetStmtPtr MakeDeclare(std::string var, bool is_array, CExprPtr init,
                          SourceLocation loc) {
  auto s = std::make_shared<TargetStmt>();
  s->node = TargetStmt::Declare{std::move(var), is_array, std::move(init)};
  s->loc = loc;
  return s;
}

// ----------------------------- Equals --------------------------------------

namespace {

bool CompEquals(const CompPtr& a, const CompPtr& b);

}  // namespace

bool Equals(const CExprPtr& a, const CExprPtr& b) {
  if (a == b) return true;
  if (a == nullptr || b == nullptr) return false;
  if (a->node.index() != b->node.index()) return false;
  if (a->is<CExpr::Var>()) return a->as<CExpr::Var>().name == b->as<CExpr::Var>().name;
  if (a->is<CExpr::Bin>()) {
    const auto& x = a->as<CExpr::Bin>();
    const auto& y = b->as<CExpr::Bin>();
    return x.op == y.op && Equals(x.lhs, y.lhs) && Equals(x.rhs, y.rhs);
  }
  if (a->is<CExpr::Un>()) {
    const auto& x = a->as<CExpr::Un>();
    const auto& y = b->as<CExpr::Un>();
    return x.op == y.op && Equals(x.operand, y.operand);
  }
  if (a->is<CExpr::TupleCons>()) {
    const auto& x = a->as<CExpr::TupleCons>().elems;
    const auto& y = b->as<CExpr::TupleCons>().elems;
    if (x.size() != y.size()) return false;
    for (size_t i = 0; i < x.size(); ++i) {
      if (!Equals(x[i], y[i])) return false;
    }
    return true;
  }
  if (a->is<CExpr::RecordCons>()) {
    const auto& x = a->as<CExpr::RecordCons>().fields;
    const auto& y = b->as<CExpr::RecordCons>().fields;
    if (x.size() != y.size()) return false;
    for (size_t i = 0; i < x.size(); ++i) {
      if (x[i].first != y[i].first || !Equals(x[i].second, y[i].second)) {
        return false;
      }
    }
    return true;
  }
  if (a->is<CExpr::Proj>()) {
    const auto& x = a->as<CExpr::Proj>();
    const auto& y = b->as<CExpr::Proj>();
    return x.field == y.field && Equals(x.base, y.base);
  }
  if (a->is<CExpr::IntConst>()) {
    return a->as<CExpr::IntConst>().value == b->as<CExpr::IntConst>().value;
  }
  if (a->is<CExpr::DoubleConst>()) {
    return a->as<CExpr::DoubleConst>().value ==
           b->as<CExpr::DoubleConst>().value;
  }
  if (a->is<CExpr::BoolConst>()) {
    return a->as<CExpr::BoolConst>().value == b->as<CExpr::BoolConst>().value;
  }
  if (a->is<CExpr::StringConst>()) {
    return a->as<CExpr::StringConst>().value ==
           b->as<CExpr::StringConst>().value;
  }
  if (a->is<CExpr::Call>()) {
    const auto& x = a->as<CExpr::Call>();
    const auto& y = b->as<CExpr::Call>();
    if (x.function != y.function || x.args.size() != y.args.size()) {
      return false;
    }
    for (size_t i = 0; i < x.args.size(); ++i) {
      if (!Equals(x.args[i], y.args[i])) return false;
    }
    return true;
  }
  if (a->is<CExpr::Reduce>()) {
    const auto& x = a->as<CExpr::Reduce>();
    const auto& y = b->as<CExpr::Reduce>();
    return x.op == y.op && Equals(x.arg, y.arg);
  }
  if (a->is<CExpr::Nested>()) {
    return CompEquals(a->as<CExpr::Nested>().comp, b->as<CExpr::Nested>().comp);
  }
  if (a->is<CExpr::Range>()) {
    const auto& x = a->as<CExpr::Range>();
    const auto& y = b->as<CExpr::Range>();
    return Equals(x.lo, y.lo) && Equals(x.hi, y.hi);
  }
  if (a->is<CExpr::Merge>()) {
    const auto& x = a->as<CExpr::Merge>();
    const auto& y = b->as<CExpr::Merge>();
    return x.has_op == y.has_op && (!x.has_op || x.op == y.op) &&
           x.unique_keys == y.unique_keys && Equals(x.left, y.left) &&
           Equals(x.right, y.right);
  }
  const auto& x = a->as<CExpr::BagCons>().elems;
  const auto& y = b->as<CExpr::BagCons>().elems;
  if (x.size() != y.size()) return false;
  for (size_t i = 0; i < x.size(); ++i) {
    if (!Equals(x[i], y[i])) return false;
  }
  return true;
}

namespace {

bool CompEquals(const CompPtr& a, const CompPtr& b) {
  if (a == b) return true;
  if (a == nullptr || b == nullptr) return false;
  if (a->qualifiers.size() != b->qualifiers.size()) return false;
  for (size_t i = 0; i < a->qualifiers.size(); ++i) {
    const Qualifier& x = a->qualifiers[i];
    const Qualifier& y = b->qualifiers[i];
    if (x.kind != y.kind) return false;
    if (x.kind != Qualifier::Kind::kCondition && !(x.pattern == y.pattern)) {
      return false;
    }
    if ((x.expr == nullptr) != (y.expr == nullptr)) return false;
    if (x.expr != nullptr && !Equals(x.expr, y.expr)) return false;
  }
  return Equals(a->head, b->head);
}

// ----------------------------- FreeVars ------------------------------------

void FreeVarsInto(const CExprPtr& e, std::set<std::string>* bound,
                  std::set<std::string>* out);

void FreeVarsComp(const CompPtr& comp, std::set<std::string> bound,
                  std::set<std::string>* out) {
  for (const Qualifier& q : comp->qualifiers) {
    if (q.expr != nullptr) FreeVarsInto(q.expr, &bound, out);
    if (q.kind == Qualifier::Kind::kGenerator ||
        q.kind == Qualifier::Kind::kLet ||
        q.kind == Qualifier::Kind::kGroupBy) {
      for (const std::string& v : q.pattern.Vars()) bound.insert(v);
    }
  }
  FreeVarsInto(comp->head, &bound, out);
}

void FreeVarsInto(const CExprPtr& e, std::set<std::string>* bound,
                  std::set<std::string>* out) {
  if (e == nullptr) return;
  if (e->is<CExpr::Var>()) {
    const std::string& name = e->as<CExpr::Var>().name;
    if (bound->count(name) == 0) out->insert(name);
    return;
  }
  if (e->is<CExpr::Bin>()) {
    FreeVarsInto(e->as<CExpr::Bin>().lhs, bound, out);
    FreeVarsInto(e->as<CExpr::Bin>().rhs, bound, out);
    return;
  }
  if (e->is<CExpr::Un>()) {
    FreeVarsInto(e->as<CExpr::Un>().operand, bound, out);
    return;
  }
  if (e->is<CExpr::TupleCons>()) {
    for (const auto& c : e->as<CExpr::TupleCons>().elems) {
      FreeVarsInto(c, bound, out);
    }
    return;
  }
  if (e->is<CExpr::RecordCons>()) {
    for (const auto& [unused, c] : e->as<CExpr::RecordCons>().fields) {
      FreeVarsInto(c, bound, out);
    }
    return;
  }
  if (e->is<CExpr::Proj>()) {
    FreeVarsInto(e->as<CExpr::Proj>().base, bound, out);
    return;
  }
  if (e->is<CExpr::Call>()) {
    for (const auto& c : e->as<CExpr::Call>().args) {
      FreeVarsInto(c, bound, out);
    }
    return;
  }
  if (e->is<CExpr::Reduce>()) {
    FreeVarsInto(e->as<CExpr::Reduce>().arg, bound, out);
    return;
  }
  if (e->is<CExpr::Nested>()) {
    FreeVarsComp(e->as<CExpr::Nested>().comp, *bound, out);
    return;
  }
  if (e->is<CExpr::Range>()) {
    FreeVarsInto(e->as<CExpr::Range>().lo, bound, out);
    FreeVarsInto(e->as<CExpr::Range>().hi, bound, out);
    return;
  }
  if (e->is<CExpr::Merge>()) {
    FreeVarsInto(e->as<CExpr::Merge>().left, bound, out);
    FreeVarsInto(e->as<CExpr::Merge>().right, bound, out);
    return;
  }
  if (e->is<CExpr::BagCons>()) {
    for (const auto& c : e->as<CExpr::BagCons>().elems) {
      FreeVarsInto(c, bound, out);
    }
    return;
  }
  // Constants have no free variables.
}

// ----------------------------- Substitute ----------------------------------

CompPtr SubstituteComp(const CompPtr& comp,
                       const std::map<std::string, CExprPtr>& outer);

}  // namespace

std::set<std::string> FreeVars(const CExprPtr& e) {
  std::set<std::string> bound, out;
  FreeVarsInto(e, &bound, &out);
  return out;
}

CExprPtr Substitute(const CExprPtr& e,
                    const std::map<std::string, CExprPtr>& subst) {
  if (e == nullptr || subst.empty()) return e;
  if (e->is<CExpr::Var>()) {
    auto it = subst.find(e->as<CExpr::Var>().name);
    return it != subst.end() ? it->second : e;
  }
  if (e->is<CExpr::Nested>()) {
    const CompPtr& comp = e->as<CExpr::Nested>().comp;
    CompPtr out = SubstituteComp(comp, subst);
    return out == comp ? e : MakeNested(std::move(out));
  }
  return MapChildren(e,
                     [&](const CExprPtr& c) { return Substitute(c, subst); });
}

CExprPtr MapChildren(const CExprPtr& e,
                     const std::function<CExprPtr(const CExprPtr&)>& fn) {
  // Maps `in` into `out`; true if any element changed.
  auto map_all = [&](const std::vector<CExprPtr>& in,
                     std::vector<CExprPtr>* out) {
    bool changed = false;
    out->reserve(in.size());
    for (const CExprPtr& c : in) {
      out->push_back(fn(c));
      changed = changed || out->back() != c;
    }
    return changed;
  };
  if (e->is<CExpr::Bin>()) {
    const auto& b = e->as<CExpr::Bin>();
    CExprPtr lhs = fn(b.lhs);
    CExprPtr rhs = fn(b.rhs);
    if (lhs == b.lhs && rhs == b.rhs) return e;
    return MakeBin(b.op, std::move(lhs), std::move(rhs));
  }
  if (e->is<CExpr::Un>()) {
    const auto& u = e->as<CExpr::Un>();
    CExprPtr operand = fn(u.operand);
    return operand == u.operand ? e : MakeUn(u.op, std::move(operand));
  }
  if (e->is<CExpr::TupleCons>()) {
    std::vector<CExprPtr> elems;
    if (!map_all(e->as<CExpr::TupleCons>().elems, &elems)) return e;
    return MakeTuple(std::move(elems));
  }
  if (e->is<CExpr::RecordCons>()) {
    const auto& fields = e->as<CExpr::RecordCons>().fields;
    std::vector<std::pair<std::string, CExprPtr>> out;
    bool changed = false;
    for (const auto& [name, c] : fields) {
      out.emplace_back(name, fn(c));
      changed = changed || out.back().second != c;
    }
    return changed ? MakeRecord(std::move(out)) : e;
  }
  if (e->is<CExpr::Proj>()) {
    const auto& p = e->as<CExpr::Proj>();
    CExprPtr base = fn(p.base);
    return base == p.base ? e : MakeProj(std::move(base), p.field);
  }
  if (e->is<CExpr::Call>()) {
    const auto& c = e->as<CExpr::Call>();
    std::vector<CExprPtr> args;
    if (!map_all(c.args, &args)) return e;
    return MakeCall(c.function, std::move(args));
  }
  if (e->is<CExpr::Reduce>()) {
    const auto& r = e->as<CExpr::Reduce>();
    CExprPtr arg = fn(r.arg);
    return arg == r.arg ? e : MakeReduce(r.op, std::move(arg));
  }
  if (e->is<CExpr::Range>()) {
    const auto& r = e->as<CExpr::Range>();
    CExprPtr lo = fn(r.lo);
    CExprPtr hi = fn(r.hi);
    if (lo == r.lo && hi == r.hi) return e;
    return MakeRange(std::move(lo), std::move(hi), r.loc);
  }
  if (e->is<CExpr::Merge>()) {
    const auto& m = e->as<CExpr::Merge>();
    CExprPtr left = fn(m.left);
    CExprPtr right = fn(m.right);
    if (left == m.left && right == m.right) return e;
    return m.has_op ? MakeMergeOp(m.op, std::move(left), std::move(right),
                                  m.unique_keys)
                    : MakeMerge(std::move(left), std::move(right),
                                m.unique_keys);
  }
  if (e->is<CExpr::BagCons>()) {
    std::vector<CExprPtr> elems;
    if (!map_all(e->as<CExpr::BagCons>().elems, &elems)) return e;
    return MakeBag(std::move(elems));
  }
  return e;  // variables, constants, nested comprehensions
}

namespace {

CompPtr SubstituteComp(const CompPtr& comp,
                       const std::map<std::string, CExprPtr>& outer) {
  // Names (re)bound here shadow the substitution from their binder on;
  // the map is copied only when that happens.
  std::map<std::string, CExprPtr> shadowed;
  const std::map<std::string, CExprPtr>* subst = &outer;
  std::vector<CExprPtr> exprs;
  exprs.reserve(comp->qualifiers.size());
  bool changed = false;
  for (const Qualifier& q : comp->qualifiers) {
    exprs.push_back(Substitute(q.expr, *subst));
    changed = changed || exprs.back() != q.expr;
    if (q.kind == Qualifier::Kind::kCondition) continue;
    for (const std::string& v : q.pattern.Vars()) {
      if (subst->count(v) == 0) continue;
      if (subst == &outer) {
        shadowed = outer;
        subst = &shadowed;
      }
      shadowed.erase(v);
    }
  }
  CExprPtr head = Substitute(comp->head, *subst);
  if (!changed && head == comp->head) return comp;
  std::vector<Qualifier> quals = comp->qualifiers;
  for (size_t i = 0; i < quals.size(); ++i) quals[i].expr = std::move(exprs[i]);
  return MakeComp(std::move(head), std::move(quals));
}

}  // namespace

}  // namespace diablo::comp
