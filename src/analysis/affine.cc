#include "analysis/affine.h"

#include <limits>
#include <numeric>
#include <utility>

#include "analysis/lvalues.h"

namespace diablo::analysis {

using ast::Expr;
using runtime::BinOp;
using runtime::UnOp;

bool UsesLoopIndex(const ast::ExprPtr& e,
                   const std::set<std::string>& loop_indexes) {
  std::vector<ast::LValuePtr> reads;
  CollectExprReads(e, &reads);
  for (const auto& d : reads) {
    if (d->is_var() && loop_indexes.count(d->var().name) != 0) return true;
  }
  return false;
}

bool IsAffineExpr(const ast::ExprPtr& e,
                  const std::set<std::string>& loop_indexes) {
  if (e == nullptr) return false;
  // Anything that does not mention a loop index is a loop constant c0.
  if (!UsesLoopIndex(e, loop_indexes)) return true;
  if (e->is<Expr::LVal>()) {
    const auto& d = e->as<Expr::LVal>().lvalue;
    // A bare loop index i (coefficient 1).
    return d->is_var() && loop_indexes.count(d->var().name) != 0;
  }
  if (e->is<Expr::Un>()) {
    const auto& u = e->as<Expr::Un>();
    return u.op == UnOp::kNeg && IsAffineExpr(u.operand, loop_indexes);
  }
  if (e->is<Expr::Bin>()) {
    const auto& b = e->as<Expr::Bin>();
    switch (b.op) {
      case BinOp::kAdd:
      case BinOp::kSub:
        return IsAffineExpr(b.lhs, loop_indexes) &&
               IsAffineExpr(b.rhs, loop_indexes);
      case BinOp::kMul:
        // c * affine or affine * c.
        if (!UsesLoopIndex(b.lhs, loop_indexes)) {
          return IsAffineExpr(b.rhs, loop_indexes);
        }
        if (!UsesLoopIndex(b.rhs, loop_indexes)) {
          return IsAffineExpr(b.lhs, loop_indexes);
        }
        return false;
      default:
        return false;
    }
  }
  return false;
}

bool IsAffineDest(const ast::LValuePtr& d,
                  const std::vector<std::string>& context) {
  std::set<std::string> ctx(context.begin(), context.end());
  // Every loop index of the context must appear in the destination.
  std::set<std::string> used = IndexesOf(d, ctx);
  for (const std::string& i : context) {
    if (used.count(i) == 0) return false;
  }
  // Every array index expression must itself be affine.
  const ast::LValue* cur = d.get();
  while (cur != nullptr) {
    if (cur->is_index()) {
      for (const auto& e : cur->index().indices) {
        if (!IsAffineExpr(e, ctx)) return false;
      }
      break;
    }
    if (cur->is_proj()) {
      cur = cur->proj().base.get();
      continue;
    }
    break;  // plain variable
  }
  return true;
}

namespace {

/// `f` times the literal `k`; nullopt on overflow.
std::optional<AffineForm> Scale(AffineForm f, int64_t k) {
  for (auto& [v, c] : f.coeff) {
    if (__builtin_mul_overflow(c, k, &c)) return std::nullopt;
  }
  if (f.c0.has_value() && __builtin_mul_overflow(*f.c0, k, &*f.c0)) {
    return std::nullopt;
  }
  return f;
}

/// `l + sign * r`; nullopt on overflow.
std::optional<AffineForm> Combine(AffineForm l, const AffineForm& r,
                                  int64_t sign) {
  for (const auto& [v, c] : r.coeff) {
    int64_t term = 0;
    if (__builtin_mul_overflow(c, sign, &term) ||
        __builtin_add_overflow(l.coeff[v], term, &l.coeff[v])) {
      return std::nullopt;
    }
  }
  if (!l.c0.has_value() || !r.c0.has_value()) {
    l.c0 = std::nullopt;
  } else {
    int64_t term = 0;
    if (__builtin_mul_overflow(*r.c0, sign, &term) ||
        __builtin_add_overflow(*l.c0, term, &*l.c0)) {
      return std::nullopt;
    }
  }
  return l;
}

/// True when the integer matrix `m` (rows of `cols` entries) has rank
/// `cols`: fraction-free Gaussian elimination, each reduced row divided
/// by the gcd of its entries. An entry that would overflow answers false.
bool HasFullColumnRank(std::vector<std::vector<int64_t>> m, size_t cols) {
  size_t rank = 0;
  for (size_t c = 0; c < cols; ++c) {
    size_t pivot = rank;
    while (pivot < m.size() && m[pivot][c] == 0) ++pivot;
    if (pivot == m.size()) return false;  // column c adds no rank
    std::swap(m[rank], m[pivot]);
    for (size_t r = rank + 1; r < m.size(); ++r) {
      if (m[r][c] == 0) continue;
      const int64_t a = m[rank][c];
      const int64_t b = m[r][c];
      int64_t g = 0;
      for (size_t k = 0; k < cols; ++k) {
        int64_t x = 0, y = 0, z = 0;
        if (__builtin_mul_overflow(a, m[r][k], &x) ||
            __builtin_mul_overflow(b, m[rank][k], &y) ||
            __builtin_sub_overflow(x, y, &z) ||
            z == std::numeric_limits<int64_t>::min()) {
          return false;
        }
        m[r][k] = z;
        g = std::gcd(g, z);
      }
      if (g > 1) {
        for (int64_t& v : m[r]) v /= g;
      }
    }
    ++rank;
  }
  return true;
}

}  // namespace

std::optional<AffineForm> ExtractAffine(
    const ast::ExprPtr& e, const std::set<std::string>& loop_indexes) {
  if (e == nullptr) return std::nullopt;
  if (e->is<Expr::IntConst>()) {
    AffineForm f;
    f.c0 = e->as<Expr::IntConst>().value;
    return f;
  }
  if (e->is<Expr::LVal>()) {
    const ast::LValuePtr& d = e->as<Expr::LVal>().lvalue;
    if (d->is_var() && loop_indexes.count(d->var().name) != 0) {
      AffineForm f;
      f.coeff[d->var().name] = 1;
      return f;
    }
  }
  if (e->is<Expr::Un>() && e->as<Expr::Un>().op == UnOp::kNeg) {
    auto f = ExtractAffine(e->as<Expr::Un>().operand, loop_indexes);
    if (f.has_value()) return Scale(std::move(*f), -1);
  }
  if (e->is<Expr::Bin>()) {
    const auto& bin = e->as<Expr::Bin>();
    auto l = ExtractAffine(bin.lhs, loop_indexes);
    auto r = ExtractAffine(bin.rhs, loop_indexes);
    if (l.has_value() && r.has_value()) {
      if (bin.op == BinOp::kAdd) return Combine(std::move(*l), *r, 1);
      if (bin.op == BinOp::kSub) return Combine(std::move(*l), *r, -1);
      if (bin.op == BinOp::kMul) {
        // One side must be a literal; a product of invariants is one.
        if (l->coeff.empty() && l->c0.has_value()) {
          return Scale(std::move(*r), *l->c0);
        }
        if (r->coeff.empty() && r->c0.has_value()) {
          return Scale(std::move(*l), *r->c0);
        }
        if (l->coeff.empty() && r->coeff.empty()) {
          return AffineForm{{}, std::nullopt};
        }
        return std::nullopt;
      }
    }
  }
  // Anything else is affine only as a loop-invariant term.
  if (UsesLoopIndex(e, loop_indexes)) return std::nullopt;
  return AffineForm{{}, std::nullopt};
}

bool IsInjectiveDest(const ast::LValuePtr& d,
                     const std::vector<std::string>& context) {
  if (context.empty()) return true;  // one iteration writes one element
  const ast::LValue* cur = d.get();
  while (cur->is_proj()) cur = cur->proj().base.get();
  if (!cur->is_index()) return false;
  const std::set<std::string> ctx(context.begin(), context.end());
  std::vector<std::vector<int64_t>> rows;
  for (const auto& e : cur->index().indices) {
    std::optional<AffineForm> f = ExtractAffine(e, ctx);
    if (!f.has_value()) return false;
    std::vector<int64_t>& row = rows.emplace_back();
    for (const std::string& i : context) {
      auto it = f->coeff.find(i);
      row.push_back(it == f->coeff.end() ? 0 : it->second);
    }
  }
  return HasFullColumnRank(std::move(rows), context.size());
}

}  // namespace diablo::analysis
