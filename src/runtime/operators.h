#ifndef DIABLO_RUNTIME_OPERATORS_H_
#define DIABLO_RUNTIME_OPERATORS_H_

#include <cstdint>
#include <optional>
#include <span>
#include <string>

#include "common/status.h"
#include "runtime/value.h"

namespace diablo::runtime {

/// Binary operators of the loop language and of comprehension expressions.
/// kMin/kMax/kAnd/kOr/kAdd/kMul are the commutative monoids accepted on the
/// left of an incremental update `d op= e`.
enum class BinOp {
  kAdd, kSub, kMul, kDiv, kMod,
  kEq, kNe, kLt, kLe, kGt, kGe,
  kAnd, kOr,
  kMin, kMax,
  /// argmin over (score, payload...) tuples: keeps the operand with the
  /// smaller first component (left-biased on ties). Used for KMeans-style
  /// nearest-centroid reductions, mirroring the paper's ArgMin monoid.
  kArgmin,
};

enum class UnOp { kNeg, kNot };

/// int64 `+`, `-` and `*` (`op` is one of the three) with
/// two's-complement wrap-around on overflow — Scala Long semantics, the
/// paper's target — where plain C++ arithmetic would be undefined.
/// Negation is WrapInt64(BinOp::kSub, 0, x). Every evaluator (boxed,
/// typed folds, the static analyses) goes through it,
/// which also makes + and * bit-associative on int64.
constexpr int64_t WrapInt64(BinOp op, int64_t x, int64_t y) {
  const auto a = static_cast<uint64_t>(x);
  const auto b = static_cast<uint64_t>(y);
  switch (op) {
    case BinOp::kAdd: return static_cast<int64_t>(a + b);
    case BinOp::kSub: return static_cast<int64_t>(a - b);
    default: return static_cast<int64_t>(a * b);  // kMul
  }
}

/// The operator's surface syntax ("+", "==", "min", ...).
const char* BinOpName(BinOp op);
const char* UnOpName(UnOp op);

/// True for operators that form a commutative monoid over their operand
/// type, i.e. the ⊕ allowed in incremental updates (Section 3.2).
bool IsCommutativeMonoid(BinOp op);

/// The identity element of a commutative monoid operator, used when a
/// reduction `⊕/v` is applied to an empty bag. Numeric identities are
/// produced in the kind of `sample` (int or double).
Value MonoidIdentity(BinOp op, const Value& sample);

/// Applies a binary operator with the language's coercion rules:
/// int⋆int → int, any double operand widens to double; comparison works on
/// numerics, strings and booleans; && / || require booleans. Errors on a
/// kind mismatch or division by zero (integer case).
StatusOr<Value> EvalBinOp(BinOp op, const Value& a, const Value& b);

/// Applies a unary operator (numeric negation, boolean not).
StatusOr<Value> EvalUnOp(UnOp op, const Value& v);

/// Reduces all elements of `bag` with the commutative operator `op`,
/// returning the monoid identity for an empty bag. `sample` determines the
/// numeric kind of the identity (pass any element when available).
StatusOr<Value> ReduceBag(BinOp op, const ValueVec& elems);

/// Built-in scalar functions. One table serves every evaluator: the
/// plan's compiled row programs, the local algebra backend and the
/// reference interpreter.
enum class Builtin { kSqrt, kAbs, kExp, kLog, kPow, kFloor, kInRange };

/// The builtin called `name`, or nullopt.
std::optional<Builtin> FindBuiltin(const std::string& name);

/// Applies `fn` to evaluated arguments; every builtin takes a fixed
/// number of numeric arguments. abs keeps ints int and fails on
/// INT64_MIN, whose magnitude no int64 holds.
StatusOr<Value> EvalBuiltin(Builtin fn, std::span<const Value> args);

/// Multiset equality of two bags: same elements with the same
/// multiplicities, irrespective of order. This is the correct equality for
/// comprehension results, whose element order is not specified.
bool BagEquals(const Value& a, const Value& b);

/// Multiset equality with numeric tolerance: doubles within `eps` compare
/// equal (elements matched greedily on sorted order). For floating-point
/// programs where the parallel reduction order differs from the sequential
/// one.
bool BagAlmostEquals(const Value& a, const Value& b, double eps);

/// Deep approximate equality on arbitrary values (doubles within eps,
/// bags compared as sorted multisets).
bool AlmostEquals(const Value& a, const Value& b, double eps);

}  // namespace diablo::runtime

#endif  // DIABLO_RUNTIME_OPERATORS_H_
