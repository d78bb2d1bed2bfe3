#ifndef DIABLO_COMP_COMP_H_
#define DIABLO_COMP_COMP_H_

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "common/status.h"
#include "common/strings.h"
#include "runtime/operators.h"

namespace diablo::comp {

// ---------------------------------------------------------------------------
// Monoid comprehensions (paper §3.3):
//
//   { e | q1, ..., qn }
//
//   q ::= p <- e          generator
//       | let p = e       let-binding
//       | e               condition
//       | group by p [:e] group-by
//
//   p ::= v | (p1,...,pn)
// ---------------------------------------------------------------------------

struct CExpr;
using CExprPtr = std::shared_ptr<const CExpr>;
struct Comprehension;
using CompPtr = std::shared_ptr<const Comprehension>;

/// A qualifier pattern: a variable or a tuple of patterns.
struct Pattern {
  bool is_tuple = false;
  std::string var;               // when !is_tuple
  std::vector<Pattern> elems;    // when is_tuple

  static Pattern Var(std::string name) {
    Pattern p;
    p.var = std::move(name);
    return p;
  }
  static Pattern Tuple(std::vector<Pattern> elems) {
    Pattern p;
    p.is_tuple = true;
    p.elems = std::move(elems);
    return p;
  }

  /// All variable names bound by this pattern, in order.
  void CollectVars(std::vector<std::string>* out) const;
  std::vector<std::string> Vars() const;

  std::string ToString() const;
  bool operator==(const Pattern& other) const;
};

/// An expression of the comprehension calculus.
struct CExpr {
  struct Var {
    std::string name;
  };
  struct Bin {
    runtime::BinOp op;
    CExprPtr lhs;
    CExprPtr rhs;
  };
  struct Un {
    runtime::UnOp op;
    CExprPtr operand;
  };
  struct TupleCons {
    std::vector<CExprPtr> elems;
  };
  struct RecordCons {
    std::vector<std::pair<std::string, CExprPtr>> fields;
  };
  struct Proj {
    CExprPtr base;
    std::string field;
  };
  struct IntConst {
    int64_t value;
  };
  struct DoubleConst {
    double value;
  };
  struct BoolConst {
    bool value;
  };
  struct StringConst {
    std::string value;
  };
  /// Builtin function call (sqrt, inRange, ...).
  struct Call {
    std::string function;
    std::vector<CExprPtr> args;
  };
  /// A reduction `⊕/e` of a bag-valued operand.
  struct Reduce {
    runtime::BinOp op;
    CExprPtr arg;
  };
  /// A nested comprehension used as an expression.
  struct Nested {
    CompPtr comp;
  };
  /// The iteration domain range(lo,hi), inclusive on both ends. `loc` is
  /// the `for` header that rule (15d) translated it from; equality and
  /// printing ignore it.
  struct Range {
    CExprPtr lo;
    CExprPtr hi;
    std::optional<SourceLocation> loc;
  };
  /// Array merge X ⊳ Y (right-biased union by key). When `has_op` is
  /// true this is the *combining* merge X ⊳⊕ Y: keys present on both
  /// sides combine their values with ⊕ (old ⊕ delta), keys present on one
  /// side keep that side's value. This is how incremental updates land in
  /// the old array (one coGroup on Spark; see translate.h).
  struct Merge {
    CExprPtr left;
    CExprPtr right;
    bool has_op;
    runtime::BinOp op;
    /// The translator's proof that no key repeats in `right` when the
    /// program's arrays are maps: always for rule (15a), whose delta is
    /// grouped by key, and for rule (15b) under for-range loops with an
    /// injective subscript. Then ∅ ⊳ Y = ∅ ⊳⊕ Y = Y, which lets the
    /// optimizer drop a merge into a provably empty array. Not printed.
    bool unique_keys = false;
  };
  /// Bag literal {e1,...,en} (used for singleton bags in the rules).
  struct BagCons {
    std::vector<CExprPtr> elems;
  };

  std::variant<Var, Bin, Un, TupleCons, RecordCons, Proj, IntConst,
               DoubleConst, BoolConst, StringConst, Call, Reduce, Nested,
               Range, Merge, BagCons>
      node;

  template <typename T>
  bool is() const {
    return std::holds_alternative<T>(node);
  }
  template <typename T>
  const T& as() const {
    return std::get<T>(node);
  }

  std::string ToString() const;
};

// Factory helpers ------------------------------------------------------------

CExprPtr MakeVar(std::string name);
CExprPtr MakeBin(runtime::BinOp op, CExprPtr l, CExprPtr r);
CExprPtr MakeUn(runtime::UnOp op, CExprPtr e);
CExprPtr MakeTuple(std::vector<CExprPtr> elems);
CExprPtr MakeRecord(std::vector<std::pair<std::string, CExprPtr>> fields);
CExprPtr MakeProj(CExprPtr base, std::string field);
CExprPtr MakeInt(int64_t v);
CExprPtr MakeDouble(double v);
CExprPtr MakeBool(bool v);
CExprPtr MakeString(std::string v);
CExprPtr MakeCall(std::string fn, std::vector<CExprPtr> args);
CExprPtr MakeReduce(runtime::BinOp op, CExprPtr arg);
CExprPtr MakeNested(CompPtr comp);
CExprPtr MakeRange(CExprPtr lo, CExprPtr hi,
                   std::optional<SourceLocation> loc = std::nullopt);
CExprPtr MakeMerge(CExprPtr left, CExprPtr right, bool unique_keys = false);
CExprPtr MakeMergeOp(runtime::BinOp op, CExprPtr left, CExprPtr right,
                     bool unique_keys = false);
CExprPtr MakeBag(std::vector<CExprPtr> elems);

/// A qualifier of a comprehension.
struct Qualifier {
  enum class Kind { kGenerator, kLet, kCondition, kGroupBy };

  Kind kind = Kind::kCondition;
  Pattern pattern;   // generator / let / group-by
  CExprPtr expr;     // generator domain / let rhs / condition /
                     // group-by key (null means "the pattern itself")

  static Qualifier Generator(Pattern p, CExprPtr domain);
  static Qualifier Let(Pattern p, CExprPtr e);
  static Qualifier Condition(CExprPtr e);
  static Qualifier GroupBy(Pattern p, CExprPtr key = nullptr);

  std::string ToString() const;
};

/// A monoid comprehension { head | qualifiers }.
struct Comprehension {
  CExprPtr head;
  std::vector<Qualifier> qualifiers;

  std::string ToString() const;
};

CompPtr MakeComp(CExprPtr head, std::vector<Qualifier> qualifiers);

// ---------------------------------------------------------------------------
// Target code (paper §3.8):
//   c ::= v := e | while(e, c) | [c1,...,cn]
// ---------------------------------------------------------------------------

struct TargetStmt;
using TargetStmtPtr = std::shared_ptr<const TargetStmt>;

struct TargetStmt {
  /// v := e — for array variables e evaluates to the new array contents
  /// (a bag of pairs, usually `V ⊳ {...}`); for scalar variables e
  /// evaluates to a bag whose single element is the new value.
  struct Assign {
    std::string var;
    CExprPtr value;
    /// True when `var` holds a distributed array rather than a scalar.
    bool is_array;
  };
  /// while(e, body): e is the lifted condition (a bag of booleans).
  struct While {
    CExprPtr cond;
    std::vector<TargetStmtPtr> body;
  };
  /// Declares a variable before first use (carried over from the source
  /// program so the executor knows scalar vs array and initial values).
  struct Declare {
    std::string var;
    bool is_array;
    CExprPtr init;  // may be null
  };

  std::variant<Assign, While, Declare> node;
  /// Location of the source statement this target statement was lowered
  /// from (the loop header for loop bodies), so plan-level diagnostics can
  /// point back into the program text.
  SourceLocation loc;

  template <typename T>
  bool is() const {
    return std::holds_alternative<T>(node);
  }
  template <typename T>
  const T& as() const {
    return std::get<T>(node);
  }

  std::string ToString() const;
};

TargetStmtPtr MakeAssign(std::string var, CExprPtr value, bool is_array,
                         SourceLocation loc = {});
TargetStmtPtr MakeWhile(CExprPtr cond, std::vector<TargetStmtPtr> body,
                        SourceLocation loc = {});
TargetStmtPtr MakeDeclare(std::string var, bool is_array, CExprPtr init,
                          SourceLocation loc = {});

/// A complete translated program.
struct TargetProgram {
  std::vector<TargetStmtPtr> stmts;

  std::string ToString() const;
};

// ---------------------------------------------------------------------------
// Structural utilities used by the normalizer and optimizer.
// ---------------------------------------------------------------------------

/// Structural equality of comprehension expressions.
bool Equals(const CExprPtr& a, const CExprPtr& b);

/// The free variables of `e` (variables not bound by any enclosing
/// comprehension inside `e`).
std::set<std::string> FreeVars(const CExprPtr& e);

/// Capture-avoiding substitution of free variables by expressions.
/// Substitution does not descend past a nested comprehension binder that
/// rebinds the variable. Returns `e` itself when no variable under it is
/// substituted, so untouched subtrees are shared, not copied.
CExprPtr Substitute(const CExprPtr& e,
                    const std::map<std::string, CExprPtr>& subst);

/// Rebuilds `e` with `fn` applied to each of its direct subexpressions,
/// or returns `e` itself when `fn` returns every child unchanged.
/// Variables, constants and nested comprehensions (whose children sit
/// under binders) are returned as they are.
CExprPtr MapChildren(const CExprPtr& e,
                     const std::function<CExprPtr(const CExprPtr&)>& fn);

/// Generates fresh variable names (x$1, x$2, ...) unique per instance.
class NameGen {
 public:
  explicit NameGen(std::string prefix = "x") : prefix_(std::move(prefix)) {}
  std::string Fresh() { return prefix_ + "$" + std::to_string(++counter_); }

 private:
  std::string prefix_;
  int counter_ = 0;
};

}  // namespace diablo::comp

#endif  // DIABLO_COMP_COMP_H_
