#include "opt/optimize.h"

#include <algorithm>
#include <map>
#include <optional>
#include <set>

#include "analysis/emptiness.h"
#include "normalize/normalize.h"

namespace diablo::opt {

using comp::CExpr;
using comp::CExprPtr;
using comp::CompPtr;
using comp::Pattern;
using comp::Qualifier;
using runtime::BinOp;

namespace {

// ------------------------- shared helpers ----------------------------------

bool IsGenerator(const Qualifier& q) {
  return q.kind == Qualifier::Kind::kGenerator;
}

/// Index variables bound by a generator: for ((i,j),v) <- M they are i,j;
/// for (i,v) <- V just i; for v <- range(...) the variable itself.
std::vector<std::string> GeneratorIndexVars(const Qualifier& q) {
  if (q.expr->is<CExpr::Range>()) {
    return q.pattern.is_tuple ? std::vector<std::string>{}
                              : std::vector<std::string>{q.pattern.var};
  }
  if (!q.pattern.is_tuple || q.pattern.elems.size() != 2) return {};
  const Pattern& key = q.pattern.elems[0];
  if (!key.is_tuple) {
    if (key.var == "_") return {};
    return {key.var};
  }
  std::vector<std::string> out;
  key.CollectVars(&out);
  return out;
}

/// All variables bound by a qualifier.
std::vector<std::string> BoundVars(const Qualifier& q) {
  if (q.kind == Qualifier::Kind::kCondition) return {};
  return q.pattern.Vars();
}

bool QualUsesVar(const Qualifier& q, const std::string& v) {
  return q.expr != nullptr && comp::FreeVars(q.expr).count(v) != 0;
}

// ------------------------- range elimination --------------------------------

/// Matches `e` as an affine use of variable `v`: v, v+c, c+v, v-c.
/// On success returns the inverse F such that e == u  =>  v == F(u).
std::optional<CExprPtr> InvertAffine(const CExprPtr& e, const std::string& v,
                                     const CExprPtr& u) {
  if (e->is<CExpr::Var>() && e->as<CExpr::Var>().name == v) return u;
  if (!e->is<CExpr::Bin>()) return std::nullopt;
  const auto& b = e->as<CExpr::Bin>();
  auto uses_v = [&](const CExprPtr& t) {
    return comp::FreeVars(t).count(v) != 0;
  };
  if (b.op == BinOp::kAdd) {
    // (v + c) == u  =>  v == u - c   (and symmetrically).
    if (b.lhs->is<CExpr::Var>() && b.lhs->as<CExpr::Var>().name == v &&
        !uses_v(b.rhs)) {
      return comp::MakeBin(BinOp::kSub, u, b.rhs);
    }
    if (b.rhs->is<CExpr::Var>() && b.rhs->as<CExpr::Var>().name == v &&
        !uses_v(b.lhs)) {
      return comp::MakeBin(BinOp::kSub, u, b.lhs);
    }
  }
  if (b.op == BinOp::kSub) {
    // (v - c) == u  =>  v == u + c.
    if (b.lhs->is<CExpr::Var>() && b.lhs->as<CExpr::Var>().name == v &&
        !uses_v(b.rhs)) {
      return comp::MakeBin(BinOp::kAdd, u, b.rhs);
    }
  }
  return std::nullopt;
}

/// §3.6: rewrites one range-generator joined to an array traversal; true
/// if a rewrite happened.
bool EliminateOneRange(std::vector<Qualifier>* quals, CExprPtr* head) {
  for (size_t g = 0; g < quals->size(); ++g) {
    const Qualifier& gen = (*quals)[g];
    if (!IsGenerator(gen) || !gen.expr->is<CExpr::Range>() ||
        gen.pattern.is_tuple) {
      continue;
    }
    const std::string v = gen.pattern.var;
    const CExprPtr lo = gen.expr->as<CExpr::Range>().lo;
    const CExprPtr hi = gen.expr->as<CExpr::Range>().hi;
    // Find a joining equality condition.
    for (size_t c = g + 1; c < quals->size(); ++c) {
      const Qualifier& cond = (*quals)[c];
      if (cond.kind != Qualifier::Kind::kCondition ||
          !cond.expr->is<CExpr::Bin>() ||
          cond.expr->as<CExpr::Bin>().op != BinOp::kEq) {
        continue;
      }
      const auto& eq = cond.expr->as<CExpr::Bin>();
      // One side must be affine in v, the other a dataset index variable.
      for (int flip = 0; flip < 2; ++flip) {
        const CExprPtr& vside = flip == 0 ? eq.lhs : eq.rhs;
        const CExprPtr& uside = flip == 0 ? eq.rhs : eq.lhs;
        if (!uside->is<CExpr::Var>()) continue;
        const std::string u = uside->as<CExpr::Var>().name;
        if (u == v || comp::FreeVars(vside).count(v) == 0) continue;
        // u must be an index variable of a dataset generator.
        size_t d = quals->size();
        for (size_t j = 0; j < quals->size(); ++j) {
          if (!IsGenerator((*quals)[j]) ||
              (*quals)[j].expr->is<CExpr::Range>()) {
            continue;
          }
          std::vector<std::string> idx = GeneratorIndexVars((*quals)[j]);
          for (const std::string& iv : idx) {
            if (iv == u) d = j;
          }
          if (d != quals->size()) break;
        }
        if (d == quals->size()) continue;
        std::optional<CExprPtr> inverse = InvertAffine(vside, v, uside);
        if (!inverse.has_value()) continue;
        // Every other use of v must be after both the dataset generator
        // and the range generator so the substituted F(u) is bound.
        size_t first_ok = std::max(g, d);
        bool safe = true;
        for (size_t j = 0; j < quals->size(); ++j) {
          if (j == g || j == c) continue;
          if (QualUsesVar((*quals)[j], v) && j <= first_ok) {
            safe = false;
            break;
          }
        }
        if (!safe) continue;
        // Rewrite: drop the range generator, replace the condition with
        // inRange(F(u), lo, hi), substitute v := F(u) elsewhere.
        std::map<std::string, CExprPtr> subst{{v, *inverse}};
        std::vector<Qualifier> out;
        for (size_t j = 0; j < quals->size(); ++j) {
          if (j == g) continue;
          if (j == c) {
            out.push_back(Qualifier::Condition(
                comp::MakeCall("inRange", {*inverse, lo, hi})));
            continue;
          }
          Qualifier nq = (*quals)[j];
          if (nq.expr != nullptr) nq.expr = comp::Substitute(nq.expr, subst);
          out.push_back(std::move(nq));
        }
        *head = comp::Substitute(*head, subst);
        *quals = std::move(out);
        return true;
      }
    }
  }
  return false;
}

// ------------------------- Rule (16): constant keys -------------------------

bool IsConstantExpr(const CExprPtr& e) { return comp::FreeVars(e).empty(); }

/// Rule (16): { e | q1, group by p : c, q2 }
///   -> { e | let p = c, ∀vi: let vi = { vi | q1 }, q2 }.
bool ApplyRule16(std::vector<Qualifier>* quals, CExprPtr* head,
                 comp::NameGen* names) {
  for (size_t g = 0; g < quals->size(); ++g) {
    const Qualifier& q = (*quals)[g];
    if (q.kind != Qualifier::Kind::kGroupBy || q.expr == nullptr ||
        !IsConstantExpr(q.expr)) {
      continue;
    }
    // Variables bound in q1 that are used after the group-by.
    std::vector<std::string> lifted;
    for (size_t j = 0; j < g; ++j) {
      for (const std::string& v : BoundVars((*quals)[j])) {
        bool used = comp::FreeVars(*head).count(v) != 0;
        for (size_t k = g + 1; !used && k < quals->size(); ++k) {
          used = QualUsesVar((*quals)[k], v);
        }
        if (used) lifted.push_back(v);
      }
    }
    if (lifted.size() > 2) continue;  // would duplicate q1 too many times
    std::vector<Qualifier> q1((*quals).begin(),
                              (*quals).begin() + static_cast<long>(g));
    std::vector<Qualifier> out;
    out.push_back(Qualifier::Let(q.pattern, q.expr));
    for (const std::string& v : lifted) {
      // let v = { v | q1 }, alpha-renamed per copy.
      CompPtr copy = normalize::RenameBound(
          comp::MakeComp(comp::MakeVar(v), q1), names);
      // RenameBound renames the head too; rebuild with the renamed head.
      out.push_back(
          Qualifier::Let(Pattern::Var(v), comp::MakeNested(copy)));
    }
    for (size_t j = g + 1; j < quals->size(); ++j) out.push_back((*quals)[j]);
    *quals = std::move(out);
    return true;
  }
  return false;
}

// ------------------------- Rule (17): unique keys ----------------------------

/// Union-find over variable names for equality classes from conditions.
class UnionFind {
 public:
  const std::string& Find(const std::string& x) {
    auto it = parent_.find(x);
    if (it == parent_.end() || it->second == x) {
      parent_[x] = x;
      return parent_.find(x)->second;
    }
    const std::string root = Find(it->second);
    parent_[x] = root;
    return parent_.find(x)->second;
  }
  void Union(const std::string& a, const std::string& b) {
    std::string ra = Find(a), rb = Find(b);
    if (ra != rb) parent_[ra] = rb;
  }

 private:
  std::map<std::string, std::string> parent_;
};

/// Collects the variables appearing in a group-by key expression when the
/// key is a variable, a tuple of variables, or affine terms of single
/// variables; nullopt when the key has any other shape.
std::optional<std::vector<std::string>> KeyVars(const CExprPtr& key) {
  auto single = [](const CExprPtr& e) -> std::optional<std::string> {
    if (e->is<CExpr::Var>()) return e->as<CExpr::Var>().name;
    if (e->is<CExpr::Bin>()) {
      const auto& b = e->as<CExpr::Bin>();
      if (b.op != BinOp::kAdd && b.op != BinOp::kSub && b.op != BinOp::kMul) {
        return std::nullopt;
      }
      std::set<std::string> fv = comp::FreeVars(e);
      if (fv.size() == 1) return *fv.begin();
    }
    return std::nullopt;
  };
  std::vector<std::string> out;
  if (key->is<CExpr::TupleCons>()) {
    for (const auto& e : key->as<CExpr::TupleCons>().elems) {
      std::optional<std::string> v = single(e);
      if (!v.has_value()) return std::nullopt;
      out.push_back(*v);
    }
    return out;
  }
  std::optional<std::string> v = single(key);
  if (!v.has_value()) return std::nullopt;
  out.push_back(*v);
  return out;
}

/// Rule (17): remove a group-by whose key is unique — the key covers, via
/// equality classes, every index variable of every generator before it.
bool ApplyRule17(std::vector<Qualifier>* quals) {
  for (size_t g = 0; g < quals->size(); ++g) {
    const Qualifier& q = (*quals)[g];
    if (q.kind != Qualifier::Kind::kGroupBy || q.expr == nullptr) continue;
    std::optional<std::vector<std::string>> key_vars = KeyVars(q.expr);
    if (!key_vars.has_value()) continue;

    UnionFind uf;
    for (size_t j = 0; j < g; ++j) {
      const Qualifier& c = (*quals)[j];
      if (c.kind == Qualifier::Kind::kCondition && c.expr->is<CExpr::Bin>()) {
        const auto& b = c.expr->as<CExpr::Bin>();
        if (b.op == BinOp::kEq && b.lhs->is<CExpr::Var>() &&
            b.rhs->is<CExpr::Var>()) {
          uf.Union(b.lhs->as<CExpr::Var>().name,
                   b.rhs->as<CExpr::Var>().name);
        }
      }
      // let x = y also induces equality of x and y.
      if (c.kind == Qualifier::Kind::kLet && !c.pattern.is_tuple &&
          c.expr->is<CExpr::Var>()) {
        uf.Union(c.pattern.var, c.expr->as<CExpr::Var>().name);
      }
    }
    std::set<std::string> key_roots;
    for (const std::string& v : *key_vars) key_roots.insert(uf.Find(v));

    bool unique = true;
    bool any_generator = false;
    for (size_t j = 0; j < g && unique; ++j) {
      if (!IsGenerator((*quals)[j])) continue;
      any_generator = true;
      std::vector<std::string> idx = GeneratorIndexVars((*quals)[j]);
      if (idx.empty()) {
        unique = false;  // a generator with no recoverable index
        break;
      }
      for (const std::string& iv : idx) {
        if (key_roots.count(uf.Find(iv)) == 0) {
          unique = false;
          break;
        }
      }
    }
    if (!unique || !any_generator) continue;

    // Rewrite: drop the group-by, bind the pattern to the key, lift each
    // previously-bound used variable to the singleton bag {v}.
    std::vector<Qualifier> out((*quals).begin(),
                               (*quals).begin() + static_cast<long>(g));
    out.push_back(Qualifier::Let(q.pattern, q.expr));
    for (size_t j = 0; j < g; ++j) {
      for (const std::string& v : BoundVars((*quals)[j])) {
        bool in_key = false;
        for (const std::string& kv : q.pattern.Vars()) {
          if (kv == v) in_key = true;
        }
        if (in_key) continue;
        out.push_back(Qualifier::Let(Pattern::Var(v),
                                     comp::MakeBag({comp::MakeVar(v)})));
      }
    }
    for (size_t j = g + 1; j < quals->size(); ++j) out.push_back((*quals)[j]);
    *quals = std::move(out);
    return true;
  }
  return false;
}

// ------------------------- array-read CSE -----------------------------------

/// The destructured shape of an array generator ((i1,...,in), v) <- A.
struct GenShape {
  std::vector<std::string> index_vars;
  std::string value_var;
};

std::optional<GenShape> ShapeOfGenerator(const Qualifier& q) {
  if (!IsGenerator(q) || !q.expr->is<CExpr::Var>()) return std::nullopt;
  if (!q.pattern.is_tuple || q.pattern.elems.size() != 2) return std::nullopt;
  const Pattern& key = q.pattern.elems[0];
  const Pattern& val = q.pattern.elems[1];
  if (val.is_tuple || val.var == "_") return std::nullopt;
  GenShape shape;
  shape.value_var = val.var;
  if (!key.is_tuple) {
    if (key.var == "_") return std::nullopt;
    shape.index_vars.push_back(key.var);
    return shape;
  }
  for (const Pattern& p : key.elems) {
    if (p.is_tuple || p.var == "_") return std::nullopt;
    shape.index_vars.push_back(p.var);
  }
  return shape;
}

/// The expression each index variable of the generator at `g` is equated
/// to by a later condition in the same group-by region; the variable
/// itself when unconstrained (it is then the canonical binder). Only
/// conditions whose other side is built from variables bound *before*
/// the generator qualify — otherwise a generator could adopt the join
/// condition of a later duplicate of itself.
std::vector<CExprPtr> BindingSpec(const std::vector<Qualifier>& quals,
                                  size_t g, const GenShape& shape) {
  std::set<std::string> before;
  for (size_t j = 0; j < g; ++j) {
    if (quals[j].kind != Qualifier::Kind::kCondition) {
      for (const std::string& v : quals[j].pattern.Vars()) before.insert(v);
    }
  }
  std::vector<CExprPtr> spec;
  for (const std::string& iv : shape.index_vars) {
    CExprPtr bound = comp::MakeVar(iv);
    for (size_t j = g + 1; j < quals.size(); ++j) {
      if (quals[j].kind == Qualifier::Kind::kGroupBy) break;
      if (quals[j].kind != Qualifier::Kind::kCondition ||
          !quals[j].expr->is<CExpr::Bin>()) {
        continue;
      }
      const auto& eq = quals[j].expr->as<CExpr::Bin>();
      if (eq.op != BinOp::kEq) continue;
      const CExprPtr* other = nullptr;
      if (eq.lhs->is<CExpr::Var>() && eq.lhs->as<CExpr::Var>().name == iv) {
        other = &eq.rhs;
      } else if (eq.rhs->is<CExpr::Var>() &&
                 eq.rhs->as<CExpr::Var>().name == iv) {
        other = &eq.lhs;
      }
      if (other == nullptr) continue;
      bool prior = true;
      for (const std::string& v : comp::FreeVars(*other)) {
        if (before.count(v) == 0) prior = false;
      }
      if (!prior) continue;
      bound = *other;
      break;
    }
    spec.push_back(bound);
  }
  return spec;
}

/// Group-by region of each qualifier (number of preceding group-bys).
std::vector<int> Regions(const std::vector<Qualifier>& quals) {
  std::vector<int> out;
  int region = 0;
  for (const Qualifier& q : quals) {
    out.push_back(region);
    if (q.kind == Qualifier::Kind::kGroupBy) ++region;
  }
  return out;
}

/// Removes one duplicate array generator (see OptimizeOptions::
/// cse_array_reads); true if a rewrite happened.
bool EliminateOneDuplicateRead(std::vector<Qualifier>* quals,
                               CExprPtr* head) {
  std::vector<int> regions = Regions(*quals);
  for (size_t g2 = 1; g2 < quals->size(); ++g2) {
    std::optional<GenShape> shape2 = ShapeOfGenerator((*quals)[g2]);
    if (!shape2.has_value()) continue;
    const std::string& array = (*quals)[g2].expr->as<CExpr::Var>().name;
    std::vector<CExprPtr> spec2 = BindingSpec(*quals, g2, *shape2);
    // Fully-bound only: every index var equated to an expression that
    // does not mention the generator's own binders.
    bool fully_bound = true;
    for (size_t k = 0; k < spec2.size(); ++k) {
      if (spec2[k]->is<CExpr::Var>() &&
          spec2[k]->as<CExpr::Var>().name == shape2->index_vars[k]) {
        fully_bound = false;
      }
    }
    if (!fully_bound) continue;
    for (size_t g1 = 0; g1 < g2; ++g1) {
      if (regions[g1] != regions[g2]) continue;
      std::optional<GenShape> shape1 = ShapeOfGenerator((*quals)[g1]);
      if (!shape1.has_value()) continue;
      if (!(*quals)[g1].expr->is<CExpr::Var>() ||
          (*quals)[g1].expr->as<CExpr::Var>().name != array) {
        continue;
      }
      if (shape1->index_vars.size() != shape2->index_vars.size()) continue;
      std::vector<CExprPtr> spec1 = BindingSpec(*quals, g1, *shape1);
      bool match = true;
      for (size_t k = 0; k < spec1.size() && match; ++k) {
        match = comp::Equals(spec1[k], spec2[k]);
      }
      if (!match) continue;
      // Both generators draw the element of `array` at the same key:
      // drop g2, substituting its binders by g1's / the shared exprs.
      std::map<std::string, CExprPtr> subst;
      for (size_t k = 0; k < shape2->index_vars.size(); ++k) {
        subst[shape2->index_vars[k]] = spec2[k];
      }
      subst[shape2->value_var] = comp::MakeVar(shape1->value_var);
      std::vector<Qualifier> out;
      std::map<std::string, CExprPtr> live = subst;
      for (size_t j = 0; j < quals->size(); ++j) {
        if (j == g2) continue;
        Qualifier nq = (*quals)[j];
        if (j > g2) {
          if (nq.expr != nullptr) nq.expr = comp::Substitute(nq.expr, live);
          // A later rebinding of one of the removed names shadows it.
          if (nq.kind != Qualifier::Kind::kCondition) {
            for (const std::string& v : nq.pattern.Vars()) live.erase(v);
          }
        }
        out.push_back(std::move(nq));
      }
      *head = comp::Substitute(*head, live);
      *quals = std::move(out);
      // The binding conditions become x == x and are dropped by the
      // normalizer pass that follows optimization.
      return true;
    }
  }
  return false;
}

// ------------------------- driver -------------------------------------------

CExprPtr OptimizeExprImpl(const CExprPtr& e, comp::NameGen* names,
                          const OptimizeOptions& options);

CExprPtr OptimizeComp(const CompPtr& c, comp::NameGen* names,
                      const OptimizeOptions& options) {
  std::vector<Qualifier> quals;
  for (const Qualifier& q : c->qualifiers) {
    Qualifier nq = q;
    if (nq.expr != nullptr) nq.expr = OptimizeExprImpl(nq.expr, names, options);
    quals.push_back(std::move(nq));
  }
  CExprPtr head = OptimizeExprImpl(c->head, names, options);

  // Each rewrite removes a generator (range elimination, read CSE) or a
  // group-by (Rules 16 and 17) of this comprehension, so the loop ends
  // within their count + 1 rounds.
  const long rounds =
      1 + std::count_if(quals.begin(), quals.end(), [](const Qualifier& q) {
            return IsGenerator(q) || q.kind == Qualifier::Kind::kGroupBy;
          });
  for (long round = 0; round < rounds; ++round) {
    bool changed = false;
    if (options.range_elimination) {
      changed = EliminateOneRange(&quals, &head) || changed;
    }
    if (!changed && options.cse_array_reads) {
      changed = EliminateOneDuplicateRead(&quals, &head) || changed;
    }
    if (!changed && options.rule17_unique_key) {
      changed = ApplyRule17(&quals) || changed;
    }
    if (!changed && options.rule16_constant_key) {
      changed = ApplyRule16(&quals, &head, names) || changed;
    }
    if (!changed) break;
  }
  return comp::MakeNested(comp::MakeComp(head, std::move(quals)));
}

CExprPtr OptimizeExprImpl(const CExprPtr& e, comp::NameGen* names,
                          const OptimizeOptions& options) {
  if (e == nullptr) return e;
  if (e->is<CExpr::Nested>()) {
    return OptimizeComp(e->as<CExpr::Nested>().comp, names, options);
  }
  return comp::MapChildren(e, [&](const CExprPtr& c) {
    return OptimizeExprImpl(c, names, options);
  });
}

// ------------------------- target statements --------------------------------

std::vector<comp::TargetStmtPtr> OptimizeStmts(
    const std::vector<comp::TargetStmtPtr>& stmts,
    const std::set<const comp::TargetStmt*>& into_empty,
    comp::NameGen* names, const OptimizeOptions& options) {
  std::vector<comp::TargetStmtPtr> out;
  for (const auto& s : stmts) {
    if (s->is<comp::TargetStmt::Assign>()) {
      const auto& a = s->as<comp::TargetStmt::Assign>();
      CExprPtr value = a.value;
      // Merge elision: V := V ⊳ Y into a provably empty V is V := Y when
      // Y's keys are unique, since ∅ ⊳ Y keeps Y's one value per key and
      // ∅ ⊳⊕ Y passes each delta through (ReduceBag of one value is the
      // value). The array is then built straight from its first update.
      const comp::CExpr::Merge* merge = analysis::SelfMerge(*s);
      if (merge != nullptr && merge->unique_keys &&
          into_empty.count(s.get()) != 0) {
        value = merge->right;
      }
      out.push_back(comp::MakeAssign(a.var, OptimizeExpr(value, names, options),
                                     a.is_array, s->loc));
    } else if (s->is<comp::TargetStmt::While>()) {
      const auto& w = s->as<comp::TargetStmt::While>();
      out.push_back(comp::MakeWhile(
          OptimizeExpr(w.cond, names, options),
          OptimizeStmts(w.body, into_empty, names, options), s->loc));
    } else {
      const auto& d = s->as<comp::TargetStmt::Declare>();
      out.push_back(comp::MakeDeclare(
          d.var, d.is_array,
          d.init != nullptr ? OptimizeExpr(d.init, names, options) : nullptr,
          s->loc));
    }
  }
  return out;
}

}  // namespace

CExprPtr OptimizeExpr(const CExprPtr& e, comp::NameGen* names,
                      const OptimizeOptions& options) {
  CExprPtr optimized = OptimizeExprImpl(e, names, options);
  return normalize::NormalizeExpr(optimized, names);
}

comp::TargetProgram OptimizeTarget(const comp::TargetProgram& program,
                                   comp::NameGen* names,
                                   const OptimizeOptions& options) {
  comp::TargetProgram out;
  out.stmts = OptimizeStmts(program.stmts,
                            analysis::AssignmentsToEmptyArrays(program.stmts),
                            names, options);
  return out;
}

}  // namespace diablo::opt
