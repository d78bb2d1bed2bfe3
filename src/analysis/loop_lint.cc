#include "analysis/loop_lint.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <numeric>
#include <optional>
#include <set>
#include <string>
#include <utility>

#include "analysis/affine.h"
#include "analysis/lvalues.h"
#include "analysis/restrictions.h"
#include "common/strings.h"

namespace diablo::analysis {

using ast::Expr;
using ast::LValue;
using ast::Stmt;
using runtime::BinOp;
using runtime::UnOp;

namespace {

// ------------------------- witness search ----------------------------------

/// Constant integer bounds of a for-range loop index, when the program
/// spells them as literals.
struct Bounds {
  bool known = false;
  int64_t lo = 0;
  int64_t hi = 0;
};

std::optional<int64_t> ConstInt(const ast::ExprPtr& e) {
  if (e == nullptr) return std::nullopt;
  if (e->is<Expr::IntConst>()) return e->as<Expr::IntConst>().value;
  if (e->is<Expr::Un>() && e->as<Expr::Un>().op == UnOp::kNeg) {
    auto inner = ConstInt(e->as<Expr::Un>().operand);
    if (inner.has_value()) return -*inner;
  }
  return std::nullopt;
}

/// Records the literal bounds of every for-range index under `s`.
void CollectBounds(const Stmt& s, std::map<std::string, Bounds>* out) {
  if (s.is<Stmt::ForRange>()) {
    const auto& node = s.as<Stmt::ForRange>();
    Bounds b;
    auto lo = ConstInt(node.lo);
    auto hi = ConstInt(node.hi);
    if (lo.has_value() && hi.has_value() && *lo <= *hi) {
      b = {true, *lo, *hi};
    }
    (*out)[node.var] = b;
    CollectBounds(*node.body, out);
    return;
  }
  if (s.is<Stmt::ForEach>()) {
    const auto& node = s.as<Stmt::ForEach>();
    (*out)[node.var] = Bounds{};
    CollectBounds(*node.body, out);
    return;
  }
  if (s.is<Stmt::While>()) {
    CollectBounds(*s.as<Stmt::While>().body, out);
    return;
  }
  if (s.is<Stmt::If>()) {
    const auto& node = s.as<Stmt::If>();
    CollectBounds(*node.then_branch, out);
    if (node.else_branch != nullptr) CollectBounds(*node.else_branch, out);
    return;
  }
  if (s.is<Stmt::Block>()) {
    for (const auto& child : s.as<Stmt::Block>().stmts) {
      CollectBounds(*child, out);
    }
  }
}

/// Evaluates an integer index expression under a loop-index environment.
/// Bails (nullopt) on anything beyond integer arithmetic over constants
/// and bound loop indexes: scalars, doubles, calls, array reads.
std::optional<int64_t> EvalIndexExpr(
    const ast::ExprPtr& e, const std::map<std::string, int64_t>& env) {
  if (e == nullptr) return std::nullopt;
  if (e->is<Expr::IntConst>()) return e->as<Expr::IntConst>().value;
  if (e->is<Expr::LVal>()) {
    const ast::LValuePtr& d = e->as<Expr::LVal>().lvalue;
    if (!d->is_var()) return std::nullopt;
    auto it = env.find(d->var().name);
    if (it == env.end()) return std::nullopt;
    return it->second;
  }
  if (e->is<Expr::Un>()) {
    const auto& un = e->as<Expr::Un>();
    if (un.op != UnOp::kNeg) return std::nullopt;
    auto v = EvalIndexExpr(un.operand, env);
    if (!v.has_value()) return std::nullopt;
    return runtime::WrapInt64(BinOp::kSub, 0, *v);
  }
  if (e->is<Expr::Bin>()) {
    const auto& bin = e->as<Expr::Bin>();
    auto l = EvalIndexExpr(bin.lhs, env);
    auto r = EvalIndexExpr(bin.rhs, env);
    if (!l.has_value() || !r.has_value()) return std::nullopt;
    switch (bin.op) {
      case BinOp::kAdd:
      case BinOp::kSub:
      case BinOp::kMul:
        return runtime::WrapInt64(bin.op, *l, *r);
      default:
        return std::nullopt;
    }
  }
  return std::nullopt;
}

/// True when the linear Diophantine equation Σ ai·xi = rhs has an integer
/// solution (ignoring domain bounds): gcd(ai) divides rhs.
bool GcdSolvable(const std::vector<int64_t>& coeffs, int64_t rhs) {
  int64_t g = 0;
  for (int64_t c : coeffs) g = std::gcd(g, c < 0 ? -c : c);
  if (g == 0) return rhs == 0;
  return rhs % g == 0;
}

/// The index expressions of a destination, stripping projections
/// (closest[i].index accesses element closest[i]); empty for scalars.
std::vector<ast::ExprPtr> IndexExprsOf(const ast::LValuePtr& d) {
  const ast::LValuePtr* cur = &d;
  while ((*cur)->is_proj()) cur = &(*cur)->proj().base;
  if ((*cur)->is_index()) return (*cur)->index().indices;
  return {};
}

/// Searches the bounded index domain for two iteration vectors under
/// which `d1` (written or incremented under context `ctx1`) and `d2`
/// (accessed under `ctx2`) resolve to the same element. The two vectors
/// must differ on at least one shared index variable — the race the
/// distributed translation cannot order.
std::optional<Witness> FindWitness(const ast::LValuePtr& d1,
                                   const std::vector<std::string>& ctx1,
                                   const ast::LValuePtr& d2,
                                   const std::vector<std::string>& ctx2,
                                   bool conflict_is_write,
                                   const std::map<std::string, Bounds>& bounds,
                                   const LoopLintOptions& options) {
  if (ctx1.empty() && ctx2.empty()) return std::nullopt;
  std::vector<ast::ExprPtr> idx1 = IndexExprsOf(d1);
  std::vector<ast::ExprPtr> idx2 = IndexExprsOf(d2);
  if (idx1.size() != idx2.size()) return std::nullopt;

  // GCD pre-filter: when both subscripts are affine with known integer
  // coefficients, the per-dimension equation
  //   Σ a1_v·x_v − Σ a2_v·y_v = c2 − c1
  // must be solvable over ℤ for a witness to exist at all.
  {
    std::set<std::string> v1(ctx1.begin(), ctx1.end());
    std::set<std::string> v2(ctx2.begin(), ctx2.end());
    for (size_t k = 0; k < idx1.size(); ++k) {
      auto a1 = ExtractAffine(idx1[k], v1);
      auto a2 = ExtractAffine(idx2[k], v2);
      if (!a1.has_value() || !a2.has_value() || !a1->c0.has_value() ||
          !a2->c0.has_value()) {
        continue;
      }
      std::vector<int64_t> coeffs;
      for (const auto& [v, c] : a1->coeff) coeffs.push_back(c);
      for (const auto& [v, c] : a2->coeff) coeffs.push_back(-c);
      if (!GcdSolvable(coeffs, *a2->c0 - *a1->c0)) return std::nullopt;
    }
  }

  auto domain_of = [&](const std::string& var) {
    std::pair<int64_t, int64_t> dom{0, options.max_domain - 1};
    auto it = bounds.find(var);
    if (it != bounds.end() && it->second.known) {
      dom.first = it->second.lo;
      dom.second =
          std::min(it->second.hi, it->second.lo + options.max_domain - 1);
    }
    return dom;
  };

  std::set<std::string> shared;
  for (const auto& v : ctx1) {
    if (std::find(ctx2.begin(), ctx2.end(), v) != ctx2.end()) {
      shared.insert(v);
    }
  }

  // Odometer enumeration of both iteration vectors, lexicographic in
  // (ctx1, ctx2) order so the first hit is deterministic.
  std::vector<std::string> all_vars;
  std::vector<std::pair<int64_t, int64_t>> doms;
  for (const auto& v : ctx1) {
    all_vars.push_back(v);
    doms.push_back(domain_of(v));
  }
  for (const auto& v : ctx2) {
    all_vars.push_back(v);
    doms.push_back(domain_of(v));
  }
  std::vector<int64_t> cur;
  for (const auto& d : doms) cur.push_back(d.first);

  long long tried = 0;
  while (true) {
    if (++tried > options.max_combinations) return std::nullopt;
    std::map<std::string, int64_t> env1, env2;
    for (size_t i = 0; i < ctx1.size(); ++i) env1[ctx1[i]] = cur[i];
    for (size_t i = 0; i < ctx2.size(); ++i) {
      env2[ctx2[i]] = cur[ctx1.size() + i];
    }
    bool distinct = shared.empty();
    for (const auto& v : shared) {
      if (env1[v] != env2[v]) distinct = true;
    }
    if (distinct) {
      bool match = true;
      std::vector<int64_t> element;
      for (size_t k = 0; k < idx1.size() && match; ++k) {
        auto e1 = EvalIndexExpr(idx1[k], env1);
        auto e2 = EvalIndexExpr(idx2[k], env2);
        if (!e1.has_value() || !e2.has_value() || *e1 != *e2) {
          match = false;
        } else {
          element.push_back(*e1);
        }
      }
      if (match) {
        Witness w;
        w.array = d1->RootName();
        for (const auto& v : ctx1) w.write_iteration.push_back({v, env1[v]});
        for (const auto& v : ctx2) w.read_iteration.push_back({v, env2[v]});
        w.conflict_is_write = conflict_is_write;
        w.element = std::move(element);
        return w;
      }
    }
    // Advance the odometer.
    size_t i = cur.size();
    while (i > 0) {
      --i;
      if (cur[i] < doms[i].second) {
        ++cur[i];
        break;
      }
      cur[i] = doms[i].first;
      if (i == 0) return std::nullopt;
    }
    if (cur.empty()) return std::nullopt;
  }
}

/// Two distinct iterations of the loops with indexes `ctx` under which the
/// affine `:=` destination `d` names one element, as a write–write
/// witness. Two such iterations x and y exist iff some nonzero difference
/// e = y - x fits the loops' bounds and solves C·e = 0 for the
/// subscript's coefficient matrix C (the offsets cancel). So the search
/// enumerates differences, not pairs of iterations: exact on the loops'
/// known bounds and over [0, max_domain) for the others, unless that
/// takes more than max_combinations differences, when every index is
/// clamped to max_domain values as FindWitness clamps its domain. It
/// tries e in lexicographic order with
/// its first nonzero entry positive, and x is the lowest iteration that
/// keeps x + e in bounds. `*collides` reports whether such an e exists;
/// the witness is absent when a subscript offset is not a literal.
std::optional<Witness> FindWriteWriteWitness(
    const ast::LValuePtr& d, const std::vector<std::string>& ctx,
    const std::map<std::string, Bounds>& bounds,
    const LoopLintOptions& options, bool* collides) {
  *collides = false;
  const std::set<std::string> ctx_set(ctx.begin(), ctx.end());
  std::vector<std::vector<int64_t>> rows;
  for (const ast::ExprPtr& e : IndexExprsOf(d)) {
    std::optional<AffineForm> f = ExtractAffine(e, ctx_set);
    if (!f.has_value()) return std::nullopt;
    std::vector<int64_t>& row = rows.emplace_back();
    for (const std::string& v : ctx) {
      auto it = f->coeff.find(v);
      row.push_back(it == f->coeff.end() ? 0 : it->second);
    }
  }
  std::vector<int64_t> lo, span;
  for (const std::string& v : ctx) {
    auto it = bounds.find(v);
    const bool known = it != bounds.end() && it->second.known;
    int64_t sp = options.max_domain - 1;
    if (known && __builtin_sub_overflow(it->second.hi, it->second.lo, &sp)) {
      sp = std::numeric_limits<int64_t>::max();
    }
    lo.push_back(known ? it->second.lo : 0);
    span.push_back(sp);
  }
  auto count = [&] {
    long long n = 1;
    for (int64_t sp : span) {
      if (sp > options.max_combinations) return options.max_combinations + 1;
      n = std::min(options.max_combinations + 1, n * (2 * sp + 1));
    }
    return n;
  };
  // Too many differences for exact bounds: search the small ones, as
  // FindWitness clamps its domain.
  if (count() > options.max_combinations) {
    for (int64_t& sp : span) {
      sp = std::min<int64_t>(sp, options.max_domain - 1);
    }
    if (count() > options.max_combinations) return std::nullopt;
  }
  std::vector<int64_t> e(ctx.size());
  for (size_t k = 0; k < e.size(); ++k) e[k] = -span[k];
  while (true) {
    size_t lead = 0;
    while (lead < e.size() && e[lead] == 0) ++lead;
    bool solves = lead < e.size() && e[lead] > 0;
    for (size_t r = 0; r < rows.size() && solves; ++r) {
      __int128 sum = 0;
      for (size_t k = 0; k < e.size(); ++k) sum += __int128{rows[r][k]} * e[k];
      solves = sum == 0;
    }
    if (solves) {
      *collides = true;
      Witness w;
      w.array = d->RootName();
      w.conflict_is_write = true;
      std::map<std::string, int64_t> env;
      for (size_t k = 0; k < ctx.size(); ++k) {
        const int64_t x = lo[k] + std::max<int64_t>(0, -e[k]);
        env[ctx[k]] = x;
        w.write_iteration.push_back({ctx[k], x});
        w.read_iteration.push_back({ctx[k], x + e[k]});
      }
      for (const ast::ExprPtr& sub : IndexExprsOf(d)) {
        std::optional<int64_t> at = EvalIndexExpr(sub, env);
        if (!at.has_value()) return std::nullopt;
        w.element.push_back(*at);
      }
      return w;
    }
    size_t k = e.size();
    while (k > 0 && e[k - 1] == span[k - 1]) {
      e[k - 1] = -span[k - 1];
      --k;
    }
    if (k == 0) return std::nullopt;
    ++e[k - 1];
  }
}

// ------------------------- the linter ---------------------------------------

const ast::LValuePtr& StripProjections(const ast::LValuePtr& d) {
  const ast::LValuePtr* cur = &d;
  while ((*cur)->is_proj()) cur = &(*cur)->proj().base;
  return *cur;
}

class LoopLinter {
 public:
  LoopLinter(std::vector<Diagnostic>* diags, const LoopLintOptions& options)
      : diags_(diags), options_(options) {}

  void Run(const ast::Program& program) {
    CollectDeclaredNames(program);
    std::set<std::string> loop_vars;
    for (const auto& s : program.stmts) {
      CheckStructure(*s, /*inside_for=*/false, &loop_vars);
    }
    for (const auto& s : program.stmts) {
      CheckTopLevel(*s);
    }
  }

 private:
  void Emit(const char* code, Severity severity, SourceLocation loc,
            std::string message, std::string hint = "",
            std::optional<Witness> witness = std::nullopt) {
    diags_->push_back(Diagnostic{code, severity, loc, std::move(message),
                                 std::move(hint), std::move(witness)});
  }

  void CollectDeclaredNames(const ast::Program& program) {
    // Every `var` declaration anywhere in the program; used by the
    // shadowed-index advisory.
    std::vector<const Stmt*> work;
    for (const auto& s : program.stmts) work.push_back(s.get());
    while (!work.empty()) {
      const Stmt* s = work.back();
      work.pop_back();
      if (s->is<Stmt::Decl>()) {
        declared_.insert(s->as<Stmt::Decl>().name);
      } else if (s->is<Stmt::ForRange>()) {
        work.push_back(s->as<Stmt::ForRange>().body.get());
      } else if (s->is<Stmt::ForEach>()) {
        work.push_back(s->as<Stmt::ForEach>().body.get());
      } else if (s->is<Stmt::While>()) {
        work.push_back(s->as<Stmt::While>().body.get());
      } else if (s->is<Stmt::If>()) {
        work.push_back(s->as<Stmt::If>().then_branch.get());
        if (s->as<Stmt::If>().else_branch != nullptr) {
          work.push_back(s->as<Stmt::If>().else_branch.get());
        }
      } else if (s->is<Stmt::Block>()) {
        for (const auto& child : s->as<Stmt::Block>().stmts) {
          work.push_back(child.get());
        }
      }
    }
  }

  /// Structural rules: declarations in loops, duplicate/shadowed
  /// indexes, non-commutative self-updates.
  void CheckStructure(const Stmt& s, bool inside_for,
                      std::set<std::string>* loop_vars) {
    if (s.is<Stmt::Decl>()) {
      if (inside_for) {
        Emit(diag::kDeclInLoop, Severity::kError, s.loc,
             StrCat("declaration of '", s.as<Stmt::Decl>().name,
                    "' inside a for-loop"),
             "move the declaration above the loop (loop bodies run in "
             "parallel and cannot allocate per-iteration variables)");
      }
      return;
    }
    if (s.is<Stmt::Assign>() && inside_for) {
      // `d := d ⊖ e` with a non-commutative ⊖ survives canonicalization
      // as a plain assignment, and then races with itself. Flag the
      // likely intent before the dependence checker rejects it opaquely.
      const auto& node = s.as<Stmt::Assign>();
      if (node.value->is<Expr::Bin>()) {
        const auto& bin = node.value->as<Expr::Bin>();
        auto matches = [&](const ast::ExprPtr& side) {
          return side->is<Expr::LVal>() &&
                 LValueEquals(side->as<Expr::LVal>().lvalue, node.dest);
        };
        if (!runtime::IsCommutativeMonoid(bin.op) &&
            (matches(bin.lhs) || matches(bin.rhs))) {
          Emit(diag::kNonCommutativeUpdate, Severity::kWarning, s.loc,
               StrCat("self-update of ", node.dest->ToString(),
                      " with non-commutative operator '",
                      runtime::BinOpName(bin.op),
                      "' cannot be parallelized as an incremental update"),
               "accumulate with a commutative monoid (+, *, min, max, "
               "&&, ||) or rewrite the reduction algebraically");
        }
      }
    }
    if (s.is<Stmt::ForRange>() || s.is<Stmt::ForEach>()) {
      const std::string& var = s.is<Stmt::ForRange>()
                                   ? s.as<Stmt::ForRange>().var
                                   : s.as<Stmt::ForEach>().var;
      if (!loop_vars->insert(var).second) {
        Emit(diag::kDuplicateIndex, Severity::kError, s.loc,
             StrCat("duplicate loop index variable '", var,
                    "'; rename the inner loop variable"),
             "the paper renames duplicate indexes; here the programmer "
             "must");
      } else if (declared_.count(var) != 0) {
        Emit(diag::kShadowedIndex, Severity::kWarning, s.loc,
             StrCat("loop index '", var, "' shadows a declared variable"),
             "rename the loop index so reads inside the loop cannot be "
             "confused with the outer variable");
      }
      const Stmt& body = s.is<Stmt::ForRange>()
                             ? *s.as<Stmt::ForRange>().body
                             : *s.as<Stmt::ForEach>().body;
      bool sequential = ContainsWhile(s);
      CheckStructure(body, /*inside_for=*/inside_for || !sequential,
                     loop_vars);
      loop_vars->erase(var);
      return;
    }
    if (s.is<Stmt::While>()) {
      CheckStructure(*s.as<Stmt::While>().body, inside_for, loop_vars);
      return;
    }
    if (s.is<Stmt::If>()) {
      const auto& node = s.as<Stmt::If>();
      CheckStructure(*node.then_branch, inside_for, loop_vars);
      if (node.else_branch != nullptr) {
        CheckStructure(*node.else_branch, inside_for, loop_vars);
      }
      return;
    }
    if (s.is<Stmt::Block>()) {
      for (const auto& child : s.as<Stmt::Block>().stmts) {
        CheckStructure(*child, inside_for, loop_vars);
      }
    }
  }

  void CheckTopLevel(const Stmt& s) {
    if (s.is<Stmt::ForRange>() || s.is<Stmt::ForEach>()) {
      if (ContainsWhile(s)) {
        if (s.is<Stmt::ForEach>()) {
          Emit(diag::kForInWhile, Severity::kError, s.loc,
               "for-in loop contains a while-loop and cannot be "
               "parallelized or sequentialized",
               "hoist the while-loop out of the for-in, or iterate with "
               "a bounded for-range loop");
        }
        return;
      }
      CheckLoop(s);
      return;
    }
    if (s.is<Stmt::While>()) {
      CheckTopLevel(*s.as<Stmt::While>().body);
      return;
    }
    if (s.is<Stmt::If>()) {
      const auto& node = s.as<Stmt::If>();
      CheckTopLevel(*node.then_branch);
      if (node.else_branch != nullptr) CheckTopLevel(*node.else_branch);
      return;
    }
    if (s.is<Stmt::Block>()) {
      for (const auto& child : s.as<Stmt::Block>().stmts) {
        CheckTopLevel(*child);
      }
      return;
    }
  }

  /// Definition 3.1 over one parallelizable for-loop, with witnesses.
  void CheckLoop(const Stmt& loop) {
    std::vector<StmtAccessInfo> accesses = CollectAccesses(loop);
    std::map<std::string, Bounds> bounds;
    CollectBounds(loop, &bounds);

    // Restriction 1: non-incremental update destinations must be affine,
    // cover every enclosing loop index and be injective in them. A
    // destination that fails is its own race: two iterations write the
    // same element.
    for (const StmtAccessInfo& info : accesses) {
      for (const ast::LValuePtr& d : info.writers) {
        const bool affine = IsAffineDest(d, info.context);
        if (affine && IsInjectiveDest(d, info.context)) continue;
        // An affine but rank-deficient subscript, like A[i+j], is a race
        // only when two iterations within the loops' bounds meet
        // (A[10*i+j] with j in 0..9 never does).
        bool collides = true;
        std::optional<Witness> witness =
            affine ? FindWriteWriteWitness(d, info.context, bounds, options_,
                                           &collides)
                   : FindWitness(d, info.context, d, info.context,
                                 /*conflict_is_write=*/true, bounds,
                                 options_);
        if (!collides) continue;
        std::set<std::string> ctx_set(info.context.begin(),
                                      info.context.end());
        bool indexes_affine = true;
        for (const ast::ExprPtr& e : IndexExprsOf(d)) {
          if (UsesLoopIndex(e, ctx_set) && !IsAffineExpr(e, ctx_set)) {
            indexes_affine = false;
          }
        }
        const char* code = indexes_affine && !affine
                               ? diag::kDestMissesIndexes
                               : diag::kNonAffineDest;
        std::string hint =
            affine ? "two iterations write the same element and the merge "
                     "keeps an arbitrary one; give each index its own "
                     "dimension, or accumulate with an incremental update "
                     "(+=, min=, ...)"
            : indexes_affine
                ? "every enclosing loop index must appear in the "
                  "destination subscript; add an array dimension per "
                  "index (the paper's §3.2 vectorization rewrite)"
                : "destination subscripts must be affine (c0 + c1*i + "
                  "...) in the loop indexes";
        Emit(code, Severity::kError,
             info.stmt != nullptr ? info.stmt->loc : SourceLocation{},
             StrCat("destination ", d->ToString(),
                    " of a non-incremental update is not ",
                    affine ? "injective" : "affine", " in loop indexes (",
                    Join(info.context, ","), ")"),
             std::move(hint), std::move(witness));
      }
    }

    // Restriction 2: write/aggregate vs read dependences between
    // statements, modulo exceptions (a) and (b).
    for (const StmtAccessInfo& s1 : accesses) {
      std::set<std::string> ctx1(s1.context.begin(), s1.context.end());
      for (const StmtAccessInfo& s2 : accesses) {
        std::set<std::string> ctx2(s2.context.begin(), s2.context.end());
        for (const ast::LValuePtr& d2 : s2.readers) {
          const ast::LValuePtr& d2_base = StripProjections(d2);
          // Exception (a): write then read of the same location.
          for (const ast::LValuePtr& d1 : s1.writers) {
            if (!Overlap(d1, d2)) continue;
            if (LValueEquals(d1, d2_base) && s1.seq < s2.seq) continue;
            Emit(diag::kWriteReadRecurrence, Severity::kError,
                 s2.stmt != nullptr ? s2.stmt->loc : SourceLocation{},
                 StrCat("recurrence: ", d2->ToString(), " is read but ",
                        d1->ToString(), " is written in the same loop"),
                 "copy the array into a fresh one first and read the "
                 "copy (the paper's §3.2 stencil rewrite)",
                 FindWitness(d1, s1.context, d2_base, s2.context,
                             /*conflict_is_write=*/false, bounds, options_));
          }
          // Exception (b): increment then read of the same location.
          for (const ast::LValuePtr& d1 : s1.aggregators) {
            if (!Overlap(d1, d2)) continue;
            if (LValueEquals(d1, d2_base) && s1.seq < s2.seq &&
                IsAffineDest(d2_base, s2.context)) {
              std::set<std::string> inter;
              for (const std::string& v : ctx1) {
                if (ctx2.count(v) != 0) inter.insert(v);
              }
              std::set<std::string> all_indexes = ctx1;
              all_indexes.insert(ctx2.begin(), ctx2.end());
              if (inter == IndexesOf(d1, all_indexes)) continue;
            }
            Emit(diag::kIncrReadRecurrence, Severity::kError,
                 s2.stmt != nullptr ? s2.stmt->loc : SourceLocation{},
                 StrCat("recurrence: ", d2->ToString(), " is read but ",
                        d1->ToString(), " is incremented in the same loop"),
                 "read an increment only under the exact index context "
                 "that produced it (Definition 3.1, exception (b)), or "
                 "split the loop in two",
                 FindWitness(d1, s1.context, d2_base, s2.context,
                             /*conflict_is_write=*/false, bounds, options_));
          }
        }
      }
    }

    // Advisory: non-affine read subscripts are outside the dependence
    // analysis; the checker treats them conservatively by root name.
    for (const StmtAccessInfo& info : accesses) {
      std::set<std::string> ctx_set(info.context.begin(),
                                    info.context.end());
      for (const ast::LValuePtr& d : info.readers) {
        if (!d->is_index()) continue;
        for (const ast::ExprPtr& e : d->index().indices) {
          if (UsesLoopIndex(e, ctx_set) && !IsAffineExpr(e, ctx_set)) {
            Emit(diag::kNonAffineRead, Severity::kWarning,
                 info.stmt != nullptr ? info.stmt->loc : SourceLocation{},
                 StrCat("read subscript of ", d->ToString(),
                        " is not affine in loop indexes (",
                        Join(info.context, ","), ")"),
                 "non-affine subscripts are matched only by array name; "
                 "prefer affine access patterns for precise analysis");
            break;
          }
        }
      }
    }
  }

  std::vector<Diagnostic>* diags_;
  const LoopLintOptions& options_;
  std::set<std::string> declared_;
};

}  // namespace

std::vector<Diagnostic> LintLoops(const ast::Program& program,
                                  const LoopLintOptions& options) {
  std::vector<Diagnostic> diags;
  LoopLinter linter(&diags, options);
  linter.Run(program);
  SortAndDedupe(&diags);
  return diags;
}

}  // namespace diablo::analysis
