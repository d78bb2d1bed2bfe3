#ifndef DIABLO_RUNTIME_COLUMN_BATCH_H_
#define DIABLO_RUNTIME_COLUMN_BATCH_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "runtime/keyed_accumulator.h"
#include "runtime/operators.h"
#include "runtime/value.h"

/// Typed columns and the typed aggregation paths of the engine: the
/// shuffle scatter hashes whole key columns (HashColumn), reduceByKey
/// folds through TypedReduceAccumulator and ships TypedRows, and Reduce
/// folds through TypedFold.
///
/// The contract with the boxed path is absolute: every typed path
/// reproduces the boxed element-at-a-time semantics bit for bit — the
/// same Value::Hash bits, the same IEEE operation order, the same int64
/// expressions, the same output ordering — so a typed run is
/// byte-identical to a boxed run (enforced by tests/columnar_test.cc).
/// Anything a typed path cannot reproduce exactly stays boxed: the
/// column demotes to boxed Values (a spill column) or the accumulator
/// spills to the boxed one mid-stream, and the engine counts the
/// fallback (StageStats::columnar_rows_fallback).

namespace diablo::runtime {

/// Scalar type of one column. Inferred at plan time from the static
/// types the translator preserves (plan/schema.h) or detected at
/// batch-build time from the first row.
enum class ColumnTag : uint8_t {
  kUnknown = 0,  ///< no rows seen / plan can't tell
  kBool = 1,
  kInt64 = 2,
  kDouble = 3,
  kString = 4,  ///< dictionary-encoded
  kBoxed = 5,   ///< spill: heterogeneous or non-scalar rows, kept as Values
};

const char* ColumnTagName(ColumnTag tag);

/// Plan-time schema of the (key, value) pairs flowing into a keyed
/// operator. kUnknown means "try, detect from data"; a definite
/// non-columnarizable type lets the engine skip the typed attempt.
struct ColumnSchema {
  ColumnTag key = ColumnTag::kUnknown;
  ColumnTag value = ColumnTag::kUnknown;

  std::string ToString() const;
};

/// Dictionary for a string column: distinct entries in first-occurrence
/// order. Each entry's Value::Hash is computed exactly once per batch
/// and cached — rows carry 4-byte codes and hashing a row is an array
/// load (see HashColumn), instead of re-walking the string bytes per row.
class StringDictionary {
 public:
  /// Interns a kString value, returning its code. The Value's string
  /// payload is shared, not copied.
  uint32_t Intern(const Value& v);

  size_t size() const { return values_.size(); }
  const Value& value(uint32_t code) const { return values_[code]; }
  const std::string& str(uint32_t code) const {
    return values_[code].AsString();
  }
  /// The cached Value::Hash of entry `code`.
  size_t hash(uint32_t code) const { return hashes_[code]; }

 private:
  std::vector<Value> values_;
  std::vector<size_t> hashes_;
  std::unordered_map<std::string, uint32_t> index_;
};

/// One SoA column. The tag is pinned by the first appended value; a
/// later value of a different kind (or any non-scalar) demotes the whole
/// column to boxed, migrating the already-appended entries.
class Column {
 public:
  ColumnTag tag() const { return tag_; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  void Append(const Value& v);

  /// Rebuilds row `i` as a boxed Value (string rows share the dictionary
  /// entry's payload).
  Value ValueAt(size_t i) const;

  /// Migrates every typed entry into `boxed` and pins the tag there.
  void DemoteToBoxed();

  const std::vector<int64_t>& ints() const { return ints_; }
  const std::vector<double>& doubles() const { return doubles_; }
  const std::vector<uint8_t>& bools() const { return bools_; }
  const std::vector<uint32_t>& codes() const { return codes_; }
  const StringDictionary& dict() const { return dict_; }
  const ValueVec& boxed() const { return boxed_; }

 private:
  ColumnTag tag_ = ColumnTag::kUnknown;
  size_t size_ = 0;
  std::vector<int64_t> ints_;
  std::vector<double> doubles_;
  std::vector<uint8_t> bools_;
  std::vector<uint32_t> codes_;
  StringDictionary dict_;
  ValueVec boxed_;
};

/// Vectorized Value::Hash over a column: `(*out)[i]` equals
/// `col.ValueAt(i).Hash()` bit for bit. String rows read the hash cached
/// at intern time — one Value::Hash per distinct entry per batch.
void HashColumn(const Column& col, std::vector<size_t>* out);

/// Ops the typed folds cover: {+, *, min, max}. Anything else (kDiv and
/// kMod with their divide-by-zero errors, kAnd/kOr, kArgmin) stays on
/// the boxed path.
bool IsColumnarReduceOp(BinOp op);

/// Key/payload shapes the typed reduce path pins on first sight.
enum class TypedKeyMode : uint8_t { kNone, kBool, kInt64, kDouble, kString };
enum class TypedPayloadMode : uint8_t { kNone, kInt64, kDouble };

/// The typed row layout of the wide-stage wave (reduceByKey's map-side
/// combine output kept typed across the shuffle): parallel arrays of
/// cached key hashes, raw 64-bit key patterns (int64 value, double bits,
/// bool 0/1, string dictionary code) and numeric payloads (pay_ints or
/// pay_doubles by payload_mode). Entries stand for sorted (key, payload)
/// pair rows that are never boxed. For string keys (key_mode ==
/// kString) each key_bits entry is a code into `dict`; Concat re-interns
/// codes into one dictionary per destination, so string keys stay typed
/// end-to-end.
struct TypedRows {
  TypedKeyMode key_mode = TypedKeyMode::kNone;
  TypedPayloadMode payload_mode = TypedPayloadMode::kNone;
  std::vector<size_t> hashes;
  std::vector<int64_t> key_bits;
  std::vector<int64_t> pay_ints;
  std::vector<double> pay_doubles;
  /// Null unless key_mode == kString. Shared by the buckets and stripes
  /// cut from a batch, so splitting a batch never copies it.
  std::shared_ptr<const StringDictionary> dict;

  size_t size() const { return hashes.size(); }
  void reserve(size_t n) {
    hashes.reserve(n);
    key_bits.reserve(n);
  }
  /// Wire bytes of the boxed pair row entry `i` stands for —
  /// Value::SerializedBytes of (key, payload): tuple header, key, 8.
  /// String keys serialize as 4 + strlen, so their size is per entry.
  int64_t EntryBytesAt(size_t i) const {
    if (key_mode != TypedKeyMode::kString) {
      return 4 + (key_mode == TypedKeyMode::kBool ? 1 : 8) + 8;
    }
    return 4 + 4 +
           static_cast<int64_t>(
               dict->str(static_cast<uint32_t>(key_bits[i])).size()) +
           8;
  }
  /// Appends entry `i` of `src`, code unchanged. An empty batch first
  /// adopts `src`'s modes and dictionary (and sizes its payload column
  /// like the rest); every entry of one batch must come from batches
  /// sharing that dictionary.
  void Append(const TypedRows& src, size_t i) {
    const bool ints = src.payload_mode == TypedPayloadMode::kInt64;
    if (hashes.empty()) {
      key_mode = src.key_mode;
      payload_mode = src.payload_mode;
      dict = src.dict;
      if (ints) {
        pay_ints.reserve(hashes.capacity());
      } else {
        pay_doubles.reserve(hashes.capacity());
      }
    }
    hashes.push_back(src.hashes[i]);
    key_bits.push_back(src.key_bits[i]);
    if (ints) {
      pay_ints.push_back(src.pay_ints[i]);
    } else {
      pay_doubles.push_back(src.pay_doubles[i]);
    }
  }
  /// Concatenates `parts` in order, re-interning string codes into one
  /// fresh dictionary (first-occurrence order, Value payloads shared):
  /// code equality then coincides with key equality, which the reduce
  /// side's code-keyed accumulator relies on.
  static TypedRows Concat(const std::vector<TypedRows>& parts);
  /// Boxes the entries back into HashedRow pairs, appending to `out` in
  /// entry order — the fallback when a sibling partition could not stay
  /// typed and the whole shuffle drops to boxed rows.
  void EmitHashed(HashedVec* out) const;
};

/// Streaming typed reduceByKey combine: (key, value) pair rows with key
/// and value kinds pinned by the first row, accumulated with native
/// int64/double arithmetic in arrival order (the boxed fold order, so
/// float results are bit-identical). A row that deviates — non-pair,
/// key/value kind change, unsupported kind — makes Add() return false
/// WITHOUT consuming the row; the caller then spills the accumulated
/// state into a boxed KeyedAccumulator<Value> (SpillTo preserves entry
/// order, cached hashes and payloads exactly) and continues boxed from
/// that row, byte-identical to having run boxed all along.
class TypedReduceAccumulator {
 public:
  TypedReduceAccumulator(BinOp op, size_t expected_keys);

  static bool SupportsOp(BinOp op) { return IsColumnarReduceOp(op); }

  /// Consumes one pair row, hashing the key (bit-identical to
  /// Value::Hash; string keys hash once per distinct entry).
  bool Add(const Value& row);
  /// Same, trusting `hash` (reduce side: the hash crossed the shuffle).
  bool AddHashed(size_t hash, const Value& row);

  size_t size() const;          ///< distinct keys
  size_t rows() const { return rows_; }  ///< rows accepted

  /// Replays the accumulated state into `acc` in insertion order.
  void SpillTo(KeyedAccumulator<Value>* acc) const;

  /// Emits entries sorted by key as plain (key, payload) rows — the
  /// reduce-side output.
  void EmitSortedRows(ValueVec* out) const;
  /// Emits entries sorted by key (Value::Compare order) as typed arrays
  /// with their cached hashes — the combine-side output, no boxed row
  /// built. String keys share this accumulator's dictionary; each
  /// emitted key_bits entry is its code. Combine side only (keys this
  /// accumulator interned itself).
  void EmitSortedTyped(TypedRows* out) const;

  /// Opens the typed fast lane for AddHashedBits: pins the key and
  /// payload modes up front. For kString the caller must pass the
  /// shuffled batch's dictionary in `dict`; AddHashedBits key_bits are
  /// then codes into it (the shuffle's per-destination re-intern makes
  /// code equality coincide with key equality). Returns false when
  /// kString arrives without a dictionary or the modes conflict with
  /// rows already accumulated.
  bool BeginTyped(TypedKeyMode kmode, TypedPayloadMode pmode,
                  const StringDictionary* dict = nullptr);
  /// Folds one typed entry (the reduce side of the typed shuffle). The
  /// caller guarantees the entry matches the BeginTyped modes; the
  /// unused payload argument is ignored.
  void AddHashedBits(size_t hash, int64_t key_bits, int64_t pay_int,
                     double pay_double);

  /// Estimated footprint of the typed table (probe slots, hashes, key
  /// bits, payload columns — capacities, since the reservation is the
  /// cost). Mirrors KeyedAccumulator::MemoryBytes for the telemetry
  /// watermark; dictionary string storage is not chased.
  size_t MemoryBytes() const {
    return slots_.capacity() * sizeof(uint32_t) +
           hashes_.capacity() * sizeof(size_t) +
           key_bits_.capacity() * sizeof(int64_t) +
           pay_ints_.capacity() * sizeof(int64_t) +
           pay_doubles_.capacity() * sizeof(double);
  }

 private:
  using KeyMode = TypedKeyMode;
  using PayloadMode = TypedPayloadMode;

  bool AddInternal(const Value& row, bool trusted_hash, size_t hash);
  void AccumulateAt(size_t entry, bool inserted, int64_t pay_int,
                    double pay_double);
  /// Entry index for the key (creating it), or SIZE_MAX on kind change.
  size_t FindOrCreateNumeric(size_t hash, int64_t bits);
  Value KeyValueAt(size_t i) const;
  Value PayloadValueAt(size_t i) const;
  std::vector<uint32_t> SortedOrder() const;
  void Grow();

  BinOp op_;
  KeyMode key_mode_ = KeyMode::kNone;
  PayloadMode payload_mode_ = PayloadMode::kNone;
  size_t rows_ = 0;

  // Numeric/bool keys: open addressing over the raw 64-bit key pattern
  // (int64 value, double bits, bool 0/1) with the cached Value::Hash.
  // Equality follows Value::operator==: ints by value, doubles by ==
  // (so +0.0 and -0.0 merge, NaN never matches — exactly the boxed
  // behavior), bools by value.
  std::vector<uint32_t> slots_;
  size_t mask_ = 0;
  std::vector<size_t> hashes_;
  std::vector<int64_t> key_bits_;

  // String keys: the dictionary is the key table; entry index == code.
  // Shared with the TypedRows batches EmitSortedTyped produces.
  std::shared_ptr<StringDictionary> dict_;
  // Reduce-side string keys (BeginTyped with a dictionary): keys live
  // in the caller's table, key_bits_ holds its codes, and
  // FindOrCreateNumeric dedupes on the code (exact: the shuffle's
  // per-destination re-intern made codes unique per string).
  const StringDictionary* ext_dict_ = nullptr;

  // Payloads, parallel to entries.
  std::vector<int64_t> pay_ints_;
  std::vector<double> pay_doubles_;
};

/// Streaming typed scalar fold for Engine::Reduce over a native BinOp:
/// acc = acc ⊕ row in arrival order. Add() returns false without
/// consuming the row on a kind change; the caller converts Result() to a
/// boxed accumulator and continues with EvalBinOp.
class TypedFold {
 public:
  explicit TypedFold(BinOp op) : op_(op) {}

  static bool SupportsOp(BinOp op) { return IsColumnarReduceOp(op); }

  bool Add(const Value& v);
  bool empty() const { return mode_ == Mode::kNone; }
  size_t rows() const { return rows_; }
  Value Result() const;

 private:
  enum class Mode : uint8_t { kNone, kInt64, kDouble };
  BinOp op_;
  Mode mode_ = Mode::kNone;
  size_t rows_ = 0;
  int64_t int_acc_ = 0;
  double double_acc_ = 0;
};

}  // namespace diablo::runtime

#endif  // DIABLO_RUNTIME_COLUMN_BATCH_H_
