#ifndef DIABLO_RUNTIME_VALUE_H_
#define DIABLO_RUNTIME_VALUE_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"

namespace diablo::runtime {

class Value;

/// A bag's element container, and the currency of cold code that
/// gathers values before building a tuple. Bags and tuples are immutable
/// once constructed, so the payload is shared between copies of a Value
/// — copying a Value is always O(1).
using ValueVec = std::vector<Value>;

/// A tuple's elements, read in place from its block.
using TupleView = std::span<const Value>;

/// A field list for record values: name/value pairs in declaration order.
using FieldVec = std::vector<std::pair<std::string, Value>>;

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
///
/// A Value is a kind byte and one payload word: the bool, int64 or double
/// itself, or a pointer to the counted heap block of a string, tuple,
/// record or bag. Copying a scalar copies 16 bytes; copying a heap kind
/// also bumps the block's count.
class Value {
 public:
  /// The enumerator values seed Hash and order Compare, so they never
  /// move. Every kind from kString on lives in a counted block.
  enum class Kind : uint8_t { kUnit, kBool, kInt, kDouble, kString, kTuple, kRecord, kBag };

  /// Constructs the unit value.
  Value() noexcept = default;
  Value(const Value& other) noexcept : kind_(other.kind_), word_(other.word_) {
    Retain();
  }
  /// Leaves `other` unit.
  Value(Value&& other) noexcept : kind_(other.kind_), word_(other.word_) {
    other.kind_ = Kind::kUnit;
  }
  Value& operator=(const Value& other) noexcept {
    if (this != &other) *this = Value(other);
    return *this;
  }
  /// Takes `other`'s payload before dropping this one's, so `other` may be
  /// this value or live inside the block it drops; leaves `other` unit.
  Value& operator=(Value&& other) noexcept {
    const Kind kind = other.kind_;
    const Word word = other.word_;
    other.kind_ = Kind::kUnit;
    Release();
    kind_ = kind;
    word_ = word;
    return *this;
  }
  ~Value() { Release(); }

  static Value MakeUnit() { return Value(); }
  static Value MakeBool(bool b) { return Value(Kind::kBool, Word{.b = b}); }
  static Value MakeInt(int64_t i) { return Value(Kind::kInt, Word{.i = i}); }
  static Value MakeDouble(double d) { return Value(Kind::kDouble, Word{.d = d}); }
  static Value MakeString(std::string s);
  /// A tuple of `n` unit elements in one fresh block. `*elems` points at
  /// the first; the caller fills them in place before the value is copied
  /// or read, so building a tuple costs one allocation.
  static Value NewTuple(size_t n, Value** elems);
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
  static Value MakeRecord(FieldVec fields);
  static Value MakeBag(ValueVec elems);
  static Value EmptyBag() { return MakeBag({}); }
  /// The singleton bag {v}.
  static Value SingletonBag(Value v) {
    ValueVec e;
    e.push_back(std::move(v));
    return MakeBag(std::move(e));
  }

  Kind kind() const { return kind_; }

  bool is_unit() const { return kind() == Kind::kUnit; }
  bool is_bool() const { return kind() == Kind::kBool; }
  bool is_int() const { return kind() == Kind::kInt; }
  bool is_double() const { return kind() == Kind::kDouble; }
  bool is_numeric() const { return is_int() || is_double(); }
  bool is_string() const { return kind() == Kind::kString; }
  bool is_tuple() const { return kind() == Kind::kTuple; }
  bool is_record() const { return kind() == Kind::kRecord; }
  bool is_bag() const { return kind() == Kind::kBag; }

  // The typed accessors abort the process, naming both kinds, when the
  // value holds another kind.
  bool AsBool() const { return Expect(Kind::kBool).b; }
  int64_t AsInt() const { return Expect(Kind::kInt).i; }
  double AsDouble() const { return Expect(Kind::kDouble).d; }
  const std::string& AsString() const;
  /// Numeric value widened to double; requires is_numeric().
  double ToDouble() const { return is_int() ? static_cast<double>(word_.i) : AsDouble(); }

  /// Tuple elements; requires is_tuple().
  TupleView tuple() const {
    const Block* b = Expect(Kind::kTuple).block;
    return TupleView(reinterpret_cast<const Value*>(b + 1), b->size);
  }
  /// Record fields; requires is_record().
  const FieldVec& fields() const;
  /// Bag elements; requires is_bag().
  const ValueVec& bag() const;

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
  /// The header every heap kind's block starts with: an atomic reference
  /// count and, for a tuple, the arity, whose elements follow inline. The
  /// count is 32 bits: four billion Values (64 GB) never share one block
  /// here. A copy increments it (relaxed), a drop decrements it
  /// (acquire-release) and the last drop frees the block.
  struct Block {
    std::atomic<uint32_t> refs{1};
    uint32_t size = 0;
  };
  struct StringBlock;
  struct RecordBlock;
  struct BagBlock;

  union Word {
    int64_t i;
    double d;
    bool b;
    Block* block;
  };

  Value(Kind kind, Word word) noexcept : kind_(kind), word_(word) {}

  bool on_heap() const { return kind_ >= Kind::kString; }
  void Retain() const {
    if (on_heap()) word_.block->refs.fetch_add(1, std::memory_order_relaxed);
  }
  void Release() {
    if (on_heap() &&
        word_.block->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      Free(kind_, word_.block);
    }
  }
  static void Free(Kind kind, Block* block);

  /// The payload, once the kind is `want`.
  const Word& Expect(Kind want) const {
    if (kind_ != want) [[unlikely]] WrongKind(want);
    return word_;
  }
  [[noreturn]] void WrongKind(Kind want) const;

  Kind kind_ = Kind::kUnit;
  Word word_{.i = 0};
};

static_assert(sizeof(Value) == 16, "a kind byte and one payload word");

struct Value::StringBlock : Block {
  std::string s;
};
struct Value::RecordBlock : Block {
  FieldVec fields;
};
struct Value::BagBlock : Block {
  ValueVec elems;
};

inline const std::string& Value::AsString() const {
  return static_cast<const StringBlock*>(Expect(Kind::kString).block)->s;
}
inline const FieldVec& Value::fields() const {
  return static_cast<const RecordBlock*>(Expect(Kind::kRecord).block)->fields;
}
inline const ValueVec& Value::bag() const {
  return static_cast<const BagBlock*>(Expect(Kind::kBag).block)->elems;
}

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
