#include "normalize/normalize.h"

#include <algorithm>
#include <map>

namespace diablo::normalize {

using comp::CExpr;
using comp::CExprPtr;
using comp::CompPtr;
using comp::Pattern;
using comp::Qualifier;
using runtime::BinOp;

namespace {

// --------------------------- alpha renaming --------------------------------

Pattern RenamePattern(const Pattern& p, comp::NameGen* names,
                      std::map<std::string, CExprPtr>* subst) {
  if (!p.is_tuple) {
    if (p.var == "_") return p;
    std::string fresh = names->Fresh();
    (*subst)[p.var] = comp::MakeVar(fresh);
    return Pattern::Var(fresh);
  }
  std::vector<Pattern> elems;
  for (const Pattern& child : p.elems) {
    elems.push_back(RenamePattern(child, names, subst));
  }
  return Pattern::Tuple(std::move(elems));
}

// --------------------------- simplicity test -------------------------------

/// True for expressions cheap and pure enough to inline freely.
bool IsSimple(const CExprPtr& e) {
  if (e->is<CExpr::Var>() || e->is<CExpr::IntConst>() ||
      e->is<CExpr::DoubleConst>() || e->is<CExpr::BoolConst>() ||
      e->is<CExpr::StringConst>()) {
    return true;
  }
  if (e->is<CExpr::Proj>()) return IsSimple(e->as<CExpr::Proj>().base);
  if (e->is<CExpr::TupleCons>()) {
    for (const auto& c : e->as<CExpr::TupleCons>().elems) {
      if (!IsSimple(c)) return false;
    }
    return true;
  }
  if (e->is<CExpr::Bin>()) {
    const auto& b = e->as<CExpr::Bin>();
    return IsSimple(b.lhs) && IsSimple(b.rhs);
  }
  if (e->is<CExpr::Un>()) return IsSimple(e->as<CExpr::Un>().operand);
  if (e->is<CExpr::BagCons>()) {
    for (const auto& c : e->as<CExpr::BagCons>().elems) {
      if (!IsSimple(c)) return false;
    }
    return true;
  }
  return false;
}

bool UsesVar(const CExprPtr& e, const std::string& name) {
  return comp::FreeVars(e).count(name) != 0;
}

/// True if `name` is used in the *lifted* region after the group-by at
/// `group_at`: by a qualifier past the group-by or by the head, stopping
/// at any rebinding of `name` (including the group-by pattern itself,
/// which rebinds its variables to the key). The group-by key expression
/// does not count: it is evaluated pre-lift.
bool UsedPostGroup(const std::vector<Qualifier>& quals, size_t group_at,
                   const CExprPtr& head, const std::string& name) {
  for (const std::string& v : quals[group_at].pattern.Vars()) {
    if (v == name) return false;  // rebound to the key
  }
  for (size_t i = group_at + 1; i < quals.size(); ++i) {
    if (quals[i].expr != nullptr && UsesVar(quals[i].expr, name)) return true;
    if (quals[i].kind != Qualifier::Kind::kCondition) {
      for (const std::string& v : quals[i].pattern.Vars()) {
        if (v == name) return false;
      }
    }
  }
  return head != nullptr && UsesVar(head, name);
}

bool HasGroupBy(const CompPtr& c) {
  for (const Qualifier& q : c->qualifiers) {
    if (q.kind == Qualifier::Kind::kGroupBy) return true;
  }
  return false;
}

/// True if the simple `let v = e` at `i` must not be inlined: a later
/// qualifier rebinds a free variable of `e` (inlining would capture it),
/// or `v` is used after the next group-by, which lifts it to a bag. The
/// group-by key itself is evaluated pre-lift, so substituting into it is
/// fine; only post-group uses block.
bool InlineBlocked(const std::vector<Qualifier>& quals, size_t i,
                   const CExprPtr& head) {
  std::set<std::string> rhs_free = comp::FreeVars(quals[i].expr);
  for (size_t j = i + 1; j < quals.size(); ++j) {
    if (quals[j].kind == Qualifier::Kind::kCondition) continue;
    for (const std::string& v : quals[j].pattern.Vars()) {
      if (rhs_free.count(v) != 0) return true;
    }
  }
  for (size_t j = i + 1; j < quals.size(); ++j) {
    if (quals[j].kind == Qualifier::Kind::kGroupBy) {
      return UsedPostGroup(quals, j, head, quals[i].pattern.var);
    }
  }
  return false;
}

/// Drops every let none of whose variables a later qualifier or the head
/// uses (right-hand sides are pure). One backward sweep finds them all: a
/// let is live only through the qualifiers kept after it. True if any
/// let was dropped.
bool DropDeadLets(std::vector<Qualifier>* quals, const CExprPtr& head) {
  size_t first = 0;  // nothing before the first let needs liveness
  while (first < quals->size() &&
         (*quals)[first].kind != Qualifier::Kind::kLet) {
    ++first;
  }
  if (first == quals->size()) return false;
  std::set<std::string> live = comp::FreeVars(head);
  std::vector<bool> dead(quals->size(), false);
  bool any_dead = false;
  for (size_t n = quals->size(); n > first; --n) {
    const Qualifier& q = (*quals)[n - 1];
    if (q.kind == Qualifier::Kind::kLet) {
      std::vector<std::string> vars = q.pattern.Vars();
      dead[n - 1] = std::none_of(vars.begin(), vars.end(), [&](auto& v) {
        return live.count(v) != 0;
      });
      any_dead = any_dead || dead[n - 1];
      if (dead[n - 1]) continue;
    }
    if (q.expr != nullptr) live.merge(comp::FreeVars(q.expr));
  }
  if (!any_dead) return false;
  std::vector<Qualifier> kept;
  for (size_t i = 0; i < quals->size(); ++i) {
    if (!dead[i]) kept.push_back(std::move((*quals)[i]));
  }
  *quals = std::move(kept);
  return true;
}

/// Replaces the qualifier at `i` by the qualifiers `with`.
void ReplaceAt(std::vector<Qualifier>* quals, size_t i,
               std::vector<Qualifier> with) {
  auto at = quals->erase(quals->begin() + static_cast<long>(i));
  quals->insert(at, std::make_move_iterator(with.begin()),
                std::make_move_iterator(with.end()));
}

struct SweepResult {
  bool empty = false;    // the comprehension is statically empty
  bool changed = false;  // some qualifier or the head changed
  bool again = false;    // it changed after a let whose inline was blocked
};

/// One left-to-right sweep over the qualifiers of a comprehension whose
/// subexpressions are normal, applying each rule in place. Inlined lets
/// go into a pending substitution, applied to each later qualifier as the
/// sweep reaches it and then to the head; a substituted expression is
/// normalized again. Dead lets are dropped at the end.
SweepResult Sweep(std::vector<Qualifier>* quals, CExprPtr* head,
                  comp::NameGen* names) {
  SweepResult r;
  bool blocked = false;
  // A change after a blocked let may unblock it (e.g. it drops a later
  // rebinding), so the comprehension is swept again.
  auto mark = [&] {
    r.changed = true;
    r.again = r.again || blocked;
  };
  std::map<std::string, CExprPtr> subst;
  size_t i = 0;
  while (i < quals->size()) {
    Qualifier& q = (*quals)[i];
    CExprPtr e = comp::Substitute(q.expr, subst);
    if (e != q.expr) {
      q.expr = NormalizeExpr(e, names);
      mark();
    }
    // A qualifier that rebinds a substituted variable shadows it for the
    // rest of the comprehension (e.g. Rule 17's `let v = {v}`).
    if (!subst.empty() && q.kind != Qualifier::Kind::kCondition) {
      for (const std::string& v : q.pattern.Vars()) subst.erase(v);
    }

    if (q.kind == Qualifier::Kind::kGenerator &&
        q.expr->is<CExpr::BagCons>()) {
      const auto& bag = q.expr->as<CExpr::BagCons>().elems;
      if (bag.empty()) return {.empty = true};
      if (bag.size() == 1) {  // p <- {e}  =  let p = e
        q.kind = Qualifier::Kind::kLet;
        q.expr = bag[0];
        mark();
      }
    } else if (q.kind == Qualifier::Kind::kGenerator &&
               q.expr->is<CExpr::Nested>() &&
               !HasGroupBy(q.expr->as<CExpr::Nested>().comp)) {
      // Rule (2): splice the (already normal) nested comprehension in.
      CompPtr renamed =
          RenameBound(q.expr->as<CExpr::Nested>().comp, names);
      std::vector<Qualifier> spliced = renamed->qualifiers;
      spliced.push_back(Qualifier::Let(q.pattern, renamed->head));
      ReplaceAt(quals, i, std::move(spliced));
      mark();
      continue;
    }

    if (q.kind == Qualifier::Kind::kLet) {
      // Componentwise split of tuple lets.
      if (q.pattern.is_tuple && q.expr->is<CExpr::TupleCons>() &&
          q.pattern.elems.size() ==
              q.expr->as<CExpr::TupleCons>().elems.size()) {
        std::vector<Qualifier> parts;
        parts.reserve(q.pattern.elems.size());
        for (size_t j = 0; j < q.pattern.elems.size(); ++j) {
          parts.push_back(Qualifier::Let(
              q.pattern.elems[j], q.expr->as<CExpr::TupleCons>().elems[j]));
        }
        ReplaceAt(quals, i, std::move(parts));
        mark();
        continue;
      }
      if (!q.pattern.is_tuple && IsSimple(q.expr)) {
        if (!InlineBlocked(*quals, i, *head)) {
          subst[q.pattern.var] = q.expr;
          quals->erase(quals->begin() + static_cast<long>(i));
          mark();
          continue;
        }
        blocked = true;
      }
    }

    if (q.kind == Qualifier::Kind::kCondition) {
      if (q.expr->is<CExpr::BoolConst>() &&
          !q.expr->as<CExpr::BoolConst>().value) {
        return {.empty = true};
      }
      const bool trivial =
          q.expr->is<CExpr::BoolConst>() ||
          (q.expr->is<CExpr::Bin>() &&
           q.expr->as<CExpr::Bin>().op == BinOp::kEq &&
           comp::Equals(q.expr->as<CExpr::Bin>().lhs,
                        q.expr->as<CExpr::Bin>().rhs));
      if (trivial) {  // `true` and `x == x`
        quals->erase(quals->begin() + static_cast<long>(i));
        mark();
        continue;
      }
    }
    ++i;
  }
  CExprPtr h = comp::Substitute(*head, subst);
  if (h != *head) {
    *head = NormalizeExpr(h, names);
    mark();
  }
  if (DropDeadLets(quals, *head)) mark();
  return r;
}

/// Normalizes the children of the comprehension first, then sweeps it
/// until a sweep changes nothing after a blocked let. Returns `e` itself
/// when it was already normal.
CExprPtr NormalizeComp(const CExprPtr& e, comp::NameGen* names) {
  const CompPtr& comp = e->as<CExpr::Nested>().comp;
  std::vector<Qualifier> quals = comp->qualifiers;
  bool changed = false;
  for (Qualifier& q : quals) {
    CExprPtr n = NormalizeExpr(q.expr, names);
    changed = changed || n != q.expr;
    q.expr = std::move(n);
  }
  CExprPtr head = NormalizeExpr(comp->head, names);
  changed = changed || head != comp->head;
  SweepResult r;
  do {
    r = Sweep(&quals, &head, names);
    if (r.empty) return comp::MakeBag({});
    changed = changed || r.changed;
  } while (r.again);
  if (quals.empty()) return comp::MakeBag({head});  // { h | } = {h}
  return changed ? comp::MakeNested(comp::MakeComp(head, std::move(quals)))
                 : e;
}

}  // namespace

CompPtr RenameBound(const CompPtr& c, comp::NameGen* names) {
  std::map<std::string, CExprPtr> subst;
  std::vector<Qualifier> quals;
  for (const Qualifier& q : c->qualifiers) {
    Qualifier nq = q;
    if (q.expr != nullptr) nq.expr = comp::Substitute(q.expr, subst);
    if (q.kind == Qualifier::Kind::kGenerator ||
        q.kind == Qualifier::Kind::kLet ||
        q.kind == Qualifier::Kind::kGroupBy) {
      nq.pattern = RenamePattern(q.pattern, names, &subst);
    }
    quals.push_back(std::move(nq));
  }
  return comp::MakeComp(comp::Substitute(c->head, subst), std::move(quals));
}

CExprPtr NormalizeExpr(const CExprPtr& e, comp::NameGen* names) {
  if (e == nullptr) return e;
  if (e->is<CExpr::Nested>()) return NormalizeComp(e, names);
  CExprPtr out = comp::MapChildren(
      e, [&](const CExprPtr& c) { return NormalizeExpr(c, names); });
  if (out->is<CExpr::Proj>()) {
    // (e1,...,en)._i and record fields project statically.
    const auto& p = out->as<CExpr::Proj>();
    if (p.base->is<CExpr::TupleCons>() && p.field.size() >= 2 &&
        p.field[0] == '_') {
      int idx = std::atoi(p.field.c_str() + 1);
      const auto& elems = p.base->as<CExpr::TupleCons>().elems;
      if (idx >= 1 && static_cast<size_t>(idx) <= elems.size()) {
        return elems[static_cast<size_t>(idx) - 1];
      }
    }
    if (p.base->is<CExpr::RecordCons>()) {
      for (const auto& [n, c] : p.base->as<CExpr::RecordCons>().fields) {
        if (n == p.field) return c;
      }
    }
  }
  if (out->is<CExpr::Reduce>()) {
    // ⊕/{e} = e.
    const auto& arg = out->as<CExpr::Reduce>().arg;
    if (arg->is<CExpr::BagCons>() &&
        arg->as<CExpr::BagCons>().elems.size() == 1) {
      return arg->as<CExpr::BagCons>().elems[0];
    }
  }
  return out;
}

comp::TargetProgram NormalizeTarget(const comp::TargetProgram& program,
                                    comp::NameGen* names) {
  comp::TargetProgram out;
  for (const auto& s : program.stmts) {
    if (s->is<comp::TargetStmt::Assign>()) {
      const auto& a = s->as<comp::TargetStmt::Assign>();
      out.stmts.push_back(comp::MakeAssign(
          a.var, NormalizeExpr(a.value, names), a.is_array, s->loc));
    } else if (s->is<comp::TargetStmt::While>()) {
      const auto& w = s->as<comp::TargetStmt::While>();
      comp::TargetProgram body;
      body.stmts = w.body;
      comp::TargetProgram norm_body = NormalizeTarget(body, names);
      out.stmts.push_back(comp::MakeWhile(NormalizeExpr(w.cond, names),
                                          std::move(norm_body.stmts),
                                          s->loc));
    } else {
      const auto& d = s->as<comp::TargetStmt::Declare>();
      out.stmts.push_back(comp::MakeDeclare(
          d.var, d.is_array,
          d.init != nullptr ? NormalizeExpr(d.init, names) : nullptr,
          s->loc));
    }
  }
  return out;
}

}  // namespace diablo::normalize
