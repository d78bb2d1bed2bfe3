#ifndef DIABLO_RUNTIME_VALUE_H_
#define DIABLO_RUNTIME_VALUE_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "common/status.h"

namespace diablo::runtime {

class Value;

/// A bag's element container, and the currency of cold code that
/// gathers values before building a tuple. Bags and tuples are immutable
/// once constructed, so the payload is shared between copies of a Value
/// — copying a Value is always O(1).
using ValueVec = std::vector<Value>;
using SharedValues = std::shared_ptr<const ValueVec>;

/// A tuple's elements, read in place from its block.
using TupleView = std::span<const Value>;

/// A field list for record values: name/value pairs in declaration order.
using FieldVec = std::vector<std::pair<std::string, Value>>;
using SharedFields = std::shared_ptr<const FieldVec>;

/// A dynamically-typed runtime value.
///
/// This is the single value representation used across the whole system:
/// the reference interpreter of the loop language, the comprehension plan
/// evaluator, and the distributed dataset engine. The paper's sparse arrays
/// `{(K,T)}` are bags of (key, value) tuples of Values.
///
/// Supported kinds:
///  - Unit           the empty tuple `()`, used as the trivial group-by key
///  - Bool, Int (64-bit), Double, String
///  - Tuple          fixed-arity heterogeneous sequence
///  - Record         named fields, `<A = 1, B = "x">`
///  - Bag            an unordered multiset (represented as a vector)
class Value {
 public:
  enum class Kind { kUnit, kBool, kInt, kDouble, kString, kTuple, kRecord, kBag };

  /// Constructs the unit value.
  Value() : rep_(Unit{}) {}

  static Value MakeUnit() { return Value(); }
  static Value MakeBool(bool b) { return Value(Rep(b)); }
  static Value MakeInt(int64_t i) { return Value(Rep(i)); }
  static Value MakeDouble(double d) { return Value(Rep(d)); }
  static Value MakeString(std::string s) {
    return Value(Rep(std::make_shared<const std::string>(std::move(s))));
  }
  /// A tuple of `n` unit elements in one fresh block. `*elems` points at
  /// the first; the caller fills them in place before the value is copied
  /// or read, so building a tuple costs one allocation.
  static Value NewTuple(size_t n, Value** elems) {
    return Value(Rep(TupleRef(n, elems)));
  }
  static Value MakePair(Value a, Value b) {
    Value* e = nullptr;
    Value pair = NewTuple(2, &e);
    e[0] = std::move(a);
    e[1] = std::move(b);
    return pair;
  }
  /// For callers that gather the elements first; hot paths use NewTuple.
  static Value MakeTuple(ValueVec elems) {
    Value* e = nullptr;
    Value tuple = NewTuple(elems.size(), &e);
    std::move(elems.begin(), elems.end(), e);
    return tuple;
  }
  static Value MakeRecord(FieldVec fields) {
    return Value(Rep(RecordRep{std::make_shared<const FieldVec>(std::move(fields))}));
  }
  static Value MakeBag(ValueVec elems) {
    return Value(Rep(BagRep{std::make_shared<const ValueVec>(std::move(elems))}));
  }
  static Value EmptyBag() { return MakeBag({}); }
  /// The singleton bag {v}.
  static Value SingletonBag(Value v) {
    ValueVec e;
    e.push_back(std::move(v));
    return MakeBag(std::move(e));
  }

  Kind kind() const { return static_cast<Kind>(rep_.index()); }

  bool is_unit() const { return kind() == Kind::kUnit; }
  bool is_bool() const { return kind() == Kind::kBool; }
  bool is_int() const { return kind() == Kind::kInt; }
  bool is_double() const { return kind() == Kind::kDouble; }
  bool is_numeric() const { return is_int() || is_double(); }
  bool is_string() const { return kind() == Kind::kString; }
  bool is_tuple() const { return kind() == Kind::kTuple; }
  bool is_record() const { return kind() == Kind::kRecord; }
  bool is_bag() const { return kind() == Kind::kBag; }

  bool AsBool() const { return std::get<bool>(rep_); }
  int64_t AsInt() const { return std::get<int64_t>(rep_); }
  double AsDouble() const { return std::get<double>(rep_); }
  const std::string& AsString() const {
    return *std::get<std::shared_ptr<const std::string>>(rep_);
  }
  /// Numeric value widened to double; requires is_numeric().
  double ToDouble() const { return is_int() ? static_cast<double>(AsInt()) : AsDouble(); }

  /// Tuple elements; requires is_tuple().
  TupleView tuple() const { return std::get<TupleRef>(rep_).view(); }
  /// Record fields; requires is_record().
  const FieldVec& fields() const { return *std::get<RecordRep>(rep_).fields; }
  /// Bag elements; requires is_bag().
  const ValueVec& bag() const { return *std::get<BagRep>(rep_).elems; }

  /// Looks up a record field by name; nullptr if absent.
  const Value* FindField(const std::string& name) const;

  /// Structural equality. Int and Double compare equal only to the same
  /// kind; bags compare as *sequences* here (multiset comparison is
  /// provided by BagEquals in operators.h).
  bool operator==(const Value& other) const;
  bool operator!=(const Value& other) const { return !(*this == other); }

  /// A deterministic total order across all kinds (kind index first, then
  /// value; sequences lexicographically). Used for stable output ordering.
  bool operator<(const Value& other) const { return Compare(other) < 0; }
  int Compare(const Value& other) const;

  /// A stable hash suitable for partitioning and hash joins.
  size_t Hash() const;

  /// Approximate serialized size in bytes, used by the engine's shuffle
  /// accounting (mirrors the paper's Java-serialization size estimates).
  int64_t SerializedBytes() const;

  /// Renders the value in comprehension-literal syntax, e.g.
  /// `((3,4),1.5)` or `{(1,10),(2,20)}`.
  std::string ToString() const;

 private:
  struct Unit {};
  struct RecordRep { SharedFields fields; };
  struct BagRep { SharedValues elems; };

  /// A counted reference to a tuple's one heap block: an atomic
  /// reference count and the arity, followed by the elements inline.
  /// The count is 32 bits: four billion Values (96 GB) never share one
  /// tuple here.
  class TupleRef {
   public:
    TupleRef(size_t n, Value** elems);
    TupleRef(const TupleRef& other) noexcept : block_(other.block_) {
      if (block_ != nullptr) block_->refs.fetch_add(1, std::memory_order_relaxed);
    }
    TupleRef(TupleRef&& other) noexcept : block_(other.block_) {
      other.block_ = nullptr;
    }
    TupleRef& operator=(TupleRef other) noexcept {
      std::swap(block_, other.block_);
      return *this;
    }
    ~TupleRef() {
      if (block_ != nullptr &&
          block_->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        Free(block_);
      }
    }

    TupleView view() const { return TupleView(elems(block_), block_->size); }

   private:
    struct Block {
      std::atomic<uint32_t> refs;
      uint32_t size;
    };
    static Value* elems(Block* b) { return reinterpret_cast<Value*>(b + 1); }
    static void Free(Block* b);

    Block* block_;
  };

  using Rep = std::variant<Unit, bool, int64_t, double,
                           std::shared_ptr<const std::string>, TupleRef,
                           RecordRep, BagRep>;

  explicit Value(Rep rep) : rep_(std::move(rep)) {}

  Rep rep_;
};

// The bits Value::Hash is built from. The typed column kernels
// (runtime/column_batch.cc) hash raw bools, int64s and doubles with
// these, so their hashes equal Value::Hash of the boxed value.

/// Boost-style combiner.
inline size_t HashCombine(size_t seed, size_t h) {
  return seed ^ (h + 0x9e3779b97f4a7c15ULL + (seed << 6) + (seed >> 2));
}
inline size_t HashKindSeed(Value::Kind kind) {
  return static_cast<size_t>(kind) * 0x9e3779b9u;
}
inline size_t HashBool(bool b) {
  return HashCombine(HashKindSeed(Value::Kind::kBool), b ? 1u : 0u);
}
inline size_t HashInt(int64_t i) {
  return HashCombine(HashKindSeed(Value::Kind::kInt), std::hash<int64_t>()(i));
}
inline size_t HashDouble(double d) {
  return HashCombine(HashKindSeed(Value::Kind::kDouble),
                     std::hash<double>()(d));
}

/// Hash functor so Values can key std::unordered_map.
struct ValueHash {
  size_t operator()(const Value& v) const { return v.Hash(); }
};

/// Convenience: the name of a value kind, for error messages.
const char* KindName(Value::Kind kind);

}  // namespace diablo::runtime

#endif  // DIABLO_RUNTIME_VALUE_H_
