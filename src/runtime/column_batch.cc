#include "runtime/column_batch.h"

#include <algorithm>
#include <cstring>
#include <functional>
#include <memory>
#include <numeric>
#include <string>
#include <type_traits>
#include <utility>

#include "common/strings.h"

namespace diablo::runtime {

namespace {

inline int64_t DoubleToBits(double d) {
  int64_t bits;
  std::memcpy(&bits, &d, sizeof(bits));
  return bits;
}

inline double BitsToDouble(int64_t bits) {
  double d;
  std::memcpy(&d, &bits, sizeof(d));
  return d;
}

ColumnTag ScalarTagOf(const Value& v) {
  switch (v.kind()) {
    case Value::Kind::kBool:
      return ColumnTag::kBool;
    case Value::Kind::kInt:
      return ColumnTag::kInt64;
    case Value::Kind::kDouble:
      return ColumnTag::kDouble;
    case Value::Kind::kString:
      return ColumnTag::kString;
    default:
      return ColumnTag::kBoxed;
  }
}

}  // namespace

const char* ColumnTagName(ColumnTag tag) {
  switch (tag) {
    case ColumnTag::kUnknown: return "unknown";
    case ColumnTag::kBool: return "bool";
    case ColumnTag::kInt64: return "int64";
    case ColumnTag::kDouble: return "double";
    case ColumnTag::kString: return "string";
    case ColumnTag::kBoxed: return "boxed";
  }
  return "?";
}

std::string ColumnSchema::ToString() const {
  return StrCat("(", ColumnTagName(key), ", ", ColumnTagName(value), ")");
}

// StringDictionary -----------------------------------------------------------

uint32_t StringDictionary::Intern(const Value& v) {
  auto [it, inserted] =
      index_.emplace(v.AsString(), static_cast<uint32_t>(values_.size()));
  if (inserted) {
    values_.push_back(v);
    hashes_.push_back(v.Hash());
  }
  return it->second;
}

// Column ---------------------------------------------------------------------

void Column::Append(const Value& v) {
  const ColumnTag vtag = ScalarTagOf(v);
  if (tag_ == ColumnTag::kUnknown) tag_ = vtag;
  if (vtag != tag_ && tag_ != ColumnTag::kBoxed) DemoteToBoxed();
  switch (tag_) {
    case ColumnTag::kBool:
      bools_.push_back(v.AsBool() ? 1 : 0);
      break;
    case ColumnTag::kInt64:
      ints_.push_back(v.AsInt());
      break;
    case ColumnTag::kDouble:
      doubles_.push_back(v.AsDouble());
      break;
    case ColumnTag::kString:
      codes_.push_back(dict_.Intern(v));
      break;
    default:
      boxed_.push_back(v);
      break;
  }
  ++size_;
}

Value Column::ValueAt(size_t i) const {
  switch (tag_) {
    case ColumnTag::kBool:
      return Value::MakeBool(bools_[i] != 0);
    case ColumnTag::kInt64:
      return Value::MakeInt(ints_[i]);
    case ColumnTag::kDouble:
      return Value::MakeDouble(doubles_[i]);
    case ColumnTag::kString:
      return dict_.value(codes_[i]);
    default:
      return boxed_[i];
  }
}

void Column::DemoteToBoxed() {
  if (tag_ == ColumnTag::kBoxed) return;
  ValueVec migrated;
  migrated.reserve(size_);
  for (size_t i = 0; i < size_; ++i) migrated.push_back(ValueAt(i));
  boxed_ = std::move(migrated);
  ints_.clear();
  doubles_.clear();
  bools_.clear();
  codes_.clear();
  tag_ = ColumnTag::kBoxed;
}

// HashColumn -----------------------------------------------------------------

void HashColumn(const Column& col, std::vector<size_t>* out) {
  const size_t n = col.size();
  out->resize(n);
  switch (col.tag()) {
    case ColumnTag::kBool: {
      const auto& xs = col.bools();
      for (size_t i = 0; i < n; ++i) (*out)[i] = HashBool(xs[i] != 0);
      break;
    }
    case ColumnTag::kInt64: {
      const auto& xs = col.ints();
      for (size_t i = 0; i < n; ++i) (*out)[i] = HashInt(xs[i]);
      break;
    }
    case ColumnTag::kDouble: {
      const auto& xs = col.doubles();
      for (size_t i = 0; i < n; ++i) (*out)[i] = HashDouble(xs[i]);
      break;
    }
    case ColumnTag::kString: {
      // The satellite win: one Value::Hash per distinct entry (cached at
      // intern time), an array load per row.
      const auto& codes = col.codes();
      const StringDictionary& dict = col.dict();
      for (size_t i = 0; i < n; ++i) (*out)[i] = dict.hash(codes[i]);
      break;
    }
    default: {
      const ValueVec& xs = col.boxed();
      for (size_t i = 0; i < n; ++i) (*out)[i] = xs[i].Hash();
      break;
    }
  }
}

// Typed folds ---------------------------------------------------------------

bool IsColumnarReduceOp(BinOp op) {
  switch (op) {
    case BinOp::kAdd:
    case BinOp::kMul:
    case BinOp::kMin:
    case BinOp::kMax:
      return true;
    default:
      return false;
  }
}

// TypedReduceAccumulator -----------------------------------------------------

namespace {

/// The boxed key a typed key pattern stands for; string codes index
/// `dict`.
Value TypedKeyValue(TypedKeyMode mode, int64_t bits,
                    const StringDictionary* dict) {
  switch (mode) {
    case TypedKeyMode::kBool: return Value::MakeBool(bits != 0);
    case TypedKeyMode::kInt64: return Value::MakeInt(bits);
    case TypedKeyMode::kString:
      return dict->value(static_cast<uint32_t>(bits));
    default: return Value::MakeDouble(BitsToDouble(bits));
  }
}

size_t TableSizeFor(size_t expected_keys) {
  size_t want = expected_keys + expected_keys / 3 + 1;
  size_t size = 16;
  while (size < want) size <<= 1;
  return size;
}

/// acc ⊕ v for a native fold op: + and * wrap on int64 (NumericOp's
/// expressions) and are IEEE on double.
template <typename T>
T FoldStep(BinOp op, T acc, T v) {
  switch (op) {
    case BinOp::kAdd:
    case BinOp::kMul:
      if constexpr (std::is_same_v<T, int64_t>) {
        return WrapInt64(op, acc, v);
      } else {
        return op == BinOp::kAdd ? acc + v : acc * v;
      }
    case BinOp::kMin: return std::min(acc, v);
    default: return std::max(acc, v);  // kMax
  }
}

}  // namespace

TypedReduceAccumulator::TypedReduceAccumulator(BinOp op, size_t expected_keys)
    : op_(op) {
  slots_.assign(TableSizeFor(expected_keys), 0);
  mask_ = slots_.size() - 1;
}

size_t TypedReduceAccumulator::size() const {
  return payload_mode_ == PayloadMode::kInt64 ? pay_ints_.size()
                                              : pay_doubles_.size();
}

bool TypedReduceAccumulator::Add(const Value& row) {
  return AddInternal(row, /*trusted_hash=*/false, 0);
}

bool TypedReduceAccumulator::AddHashed(size_t hash, const Value& row) {
  return AddInternal(row, /*trusted_hash=*/true, hash);
}

bool TypedReduceAccumulator::AddInternal(const Value& row, bool trusted_hash,
                                         size_t hash) {
  if (!row.is_tuple() || row.tuple().size() != 2) return false;
  const Value& key = row.tuple()[0];
  const Value& val = row.tuple()[1];

  // Pin key and payload kinds on first sight; any deviation bounces the
  // row back to the caller un-consumed (it spills and continues boxed).
  KeyMode kmode;
  switch (key.kind()) {
    case Value::Kind::kBool: kmode = KeyMode::kBool; break;
    case Value::Kind::kInt: kmode = KeyMode::kInt64; break;
    case Value::Kind::kDouble: kmode = KeyMode::kDouble; break;
    case Value::Kind::kString: kmode = KeyMode::kString; break;
    default: return false;
  }
  PayloadMode pmode;
  switch (val.kind()) {
    case Value::Kind::kInt: pmode = PayloadMode::kInt64; break;
    case Value::Kind::kDouble: pmode = PayloadMode::kDouble; break;
    default: return false;
  }
  if (key_mode_ == KeyMode::kNone) {
    key_mode_ = kmode;
    payload_mode_ = pmode;
  } else if (kmode != key_mode_ || pmode != payload_mode_) {
    return false;
  }

  size_t entry;
  bool inserted;
  if (key_mode_ == KeyMode::kString) {
    if (dict_ == nullptr) dict_ = std::make_shared<StringDictionary>();
    const uint32_t code = dict_->Intern(key);
    entry = code;
    inserted = entry == size();
    if (inserted) {
      hashes_.push_back(trusted_hash ? hash : dict_->hash(code));
    }
  } else {
    int64_t bits;
    switch (key_mode_) {
      case KeyMode::kBool: bits = key.AsBool() ? 1 : 0; break;
      case KeyMode::kInt64: bits = key.AsInt(); break;
      default: bits = DoubleToBits(key.AsDouble()); break;
    }
    if (!trusted_hash) {
      switch (key_mode_) {
        case KeyMode::kBool: hash = HashBool(bits != 0); break;
        case KeyMode::kInt64: hash = HashInt(bits); break;
        default: hash = HashDouble(key.AsDouble()); break;
      }
    }
    const size_t before = hashes_.size();
    entry = FindOrCreateNumeric(hash, bits);
    inserted = hashes_.size() != before;
  }
  const bool ints = payload_mode_ == PayloadMode::kInt64;
  AccumulateAt(entry, inserted, ints ? val.AsInt() : 0,
               ints ? 0.0 : val.AsDouble());
  ++rows_;
  return true;
}

size_t TypedReduceAccumulator::FindOrCreateNumeric(size_t hash, int64_t bits) {
  if ((hashes_.size() + 1) * 4 > slots_.size() * 3) Grow();
  size_t i = hash & mask_;
  for (;;) {
    const uint32_t s = slots_[i];
    if (s == 0) {
      hashes_.push_back(hash);
      key_bits_.push_back(bits);
      slots_[i] = static_cast<uint32_t>(hashes_.size());
      return hashes_.size() - 1;
    }
    const size_t e = s - 1;
    if (hashes_[e] == hash) {
      // Equality follows Value::operator==: doubles compare by value
      // (+0.0 merges with -0.0, NaN matches nothing), ints and bools by
      // bits.
      const bool eq = key_mode_ == KeyMode::kDouble
                          ? BitsToDouble(key_bits_[e]) == BitsToDouble(bits)
                          : key_bits_[e] == bits;
      if (eq) return e;
    }
    i = (i + 1) & mask_;
  }
}

void TypedReduceAccumulator::Grow() {
  slots_.assign(slots_.size() * 2, 0);
  mask_ = slots_.size() - 1;
  for (size_t idx = 0; idx < hashes_.size(); ++idx) {
    size_t i = hashes_[idx] & mask_;
    while (slots_[i] != 0) i = (i + 1) & mask_;
    slots_[i] = static_cast<uint32_t>(idx + 1);
  }
}

void TypedReduceAccumulator::AccumulateAt(size_t entry, bool inserted,
                                          int64_t pay_int, double pay_double) {
  if (payload_mode_ == PayloadMode::kInt64) {
    if (inserted) {
      pay_ints_.push_back(pay_int);
    } else {
      pay_ints_[entry] = FoldStep<int64_t>(op_, pay_ints_[entry], pay_int);
    }
  } else {
    if (inserted) {
      pay_doubles_.push_back(pay_double);
    } else {
      pay_doubles_[entry] =
          FoldStep<double>(op_, pay_doubles_[entry], pay_double);
    }
  }
}

Value TypedReduceAccumulator::KeyValueAt(size_t i) const {
  // A string key is either a code into the caller's dictionary
  // (BeginTyped reduce side) or interned here (entry index == code).
  if (key_mode_ == KeyMode::kString && ext_dict_ == nullptr) {
    return dict_->value(static_cast<uint32_t>(i));
  }
  return TypedKeyValue(key_mode_, key_bits_[i], ext_dict_);
}

Value TypedReduceAccumulator::PayloadValueAt(size_t i) const {
  return payload_mode_ == PayloadMode::kInt64
             ? Value::MakeInt(pay_ints_[i])
             : Value::MakeDouble(pay_doubles_[i]);
}

std::vector<uint32_t> TypedReduceAccumulator::SortedOrder() const {
  std::vector<uint32_t> order(size());
  std::iota(order.begin(), order.end(), 0u);
  switch (key_mode_) {
    case KeyMode::kString: {
      auto str = [this](uint32_t e) -> const std::string& {
        return ext_dict_ != nullptr
                   ? ext_dict_->str(static_cast<uint32_t>(key_bits_[e]))
                   : dict_->str(e);
      };
      std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
        return str(a).compare(str(b)) < 0;
      });
      break;
    }
    case KeyMode::kDouble:
      std::sort(order.begin(), order.end(), [this](uint32_t a, uint32_t b) {
        return BitsToDouble(key_bits_[a]) < BitsToDouble(key_bits_[b]);
      });
      break;
    default:
      std::sort(order.begin(), order.end(), [this](uint32_t a, uint32_t b) {
        return key_bits_[a] < key_bits_[b];
      });
      break;
  }
  return order;
}

void TypedReduceAccumulator::SpillTo(KeyedAccumulator<Value>* acc) const {
  for (size_t i = 0; i < size(); ++i) {
    auto ref = acc->FindOrCreate(hashes_[i], KeyValueAt(i));
    ref.payload = PayloadValueAt(i);
  }
}

void TypedReduceAccumulator::EmitSortedRows(ValueVec* out) const {
  const std::vector<uint32_t> order = SortedOrder();
  out->reserve(out->size() + order.size());
  for (uint32_t i : order) {
    out->push_back(Value::MakePair(KeyValueAt(i), PayloadValueAt(i)));
  }
}

void TypedRows::EmitHashed(HashedVec* out) const {
  out->reserve(out->size() + size());
  for (size_t i = 0; i < size(); ++i) {
    Value key = TypedKeyValue(key_mode, key_bits[i], dict.get());
    Value pay = payload_mode == TypedPayloadMode::kInt64
                    ? Value::MakeInt(pay_ints[i])
                    : Value::MakeDouble(pay_doubles[i]);
    out->push_back(
        HashedRow{hashes[i], Value::MakePair(std::move(key), std::move(pay))});
  }
}

TypedRows TypedRows::Concat(const std::vector<TypedRows>& parts) {
  TypedRows out;
  size_t total = 0;
  for (const TypedRows& p : parts) {
    total += p.size();
    if (out.key_mode == TypedKeyMode::kNone && p.size() > 0) {
      out.key_mode = p.key_mode;
      out.payload_mode = p.payload_mode;
    }
  }
  out.reserve(total);
  if (out.payload_mode == TypedPayloadMode::kInt64) {
    out.pay_ints.reserve(total);
  } else {
    out.pay_doubles.reserve(total);
  }
  const bool strings = out.key_mode == TypedKeyMode::kString;
  auto dict = std::make_shared<StringDictionary>();
  for (const TypedRows& p : parts) {
    out.hashes.insert(out.hashes.end(), p.hashes.begin(), p.hashes.end());
    if (strings) {
      for (int64_t code : p.key_bits) {
        out.key_bits.push_back(
            dict->Intern(p.dict->value(static_cast<uint32_t>(code))));
      }
    } else {
      out.key_bits.insert(out.key_bits.end(), p.key_bits.begin(),
                          p.key_bits.end());
    }
    out.pay_ints.insert(out.pay_ints.end(), p.pay_ints.begin(),
                        p.pay_ints.end());
    out.pay_doubles.insert(out.pay_doubles.end(), p.pay_doubles.begin(),
                           p.pay_doubles.end());
  }
  if (strings) out.dict = std::move(dict);
  return out;
}

void TypedReduceAccumulator::EmitSortedTyped(TypedRows* out) const {
  const std::vector<uint32_t> order = SortedOrder();
  out->key_mode = key_mode_;
  out->payload_mode = payload_mode_;
  // The dictionary travels with the batch: entry index == code.
  if (key_mode_ == KeyMode::kString) out->dict = dict_;
  out->reserve(order.size());
  if (payload_mode_ == PayloadMode::kInt64) {
    out->pay_ints.reserve(order.size());
  } else if (payload_mode_ == PayloadMode::kDouble) {
    out->pay_doubles.reserve(order.size());
  }
  for (uint32_t i : order) {
    out->hashes.push_back(hashes_[i]);
    out->key_bits.push_back(key_mode_ == KeyMode::kString
                                ? static_cast<int64_t>(i)
                                : key_bits_[i]);
    if (payload_mode_ == PayloadMode::kInt64) {
      out->pay_ints.push_back(pay_ints_[i]);
    } else {
      out->pay_doubles.push_back(pay_doubles_[i]);
    }
  }
}

bool TypedReduceAccumulator::BeginTyped(TypedKeyMode kmode,
                                        TypedPayloadMode pmode,
                                        const StringDictionary* dict) {
  if (kmode == KeyMode::kString) {
    if (dict == nullptr) return false;
    ext_dict_ = dict;
  }
  if (key_mode_ == KeyMode::kNone && kmode != KeyMode::kNone) {
    key_mode_ = kmode;
    payload_mode_ = pmode;
    return true;
  }
  return key_mode_ == kmode && payload_mode_ == pmode;
}

void TypedReduceAccumulator::AddHashedBits(size_t hash, int64_t key_bits,
                                           int64_t pay_int,
                                           double pay_double) {
  const size_t before = hashes_.size();
  const size_t entry = FindOrCreateNumeric(hash, key_bits);
  AccumulateAt(entry, hashes_.size() != before, pay_int, pay_double);
  ++rows_;
}

// TypedFold ------------------------------------------------------------------

bool TypedFold::Add(const Value& v) {
  if (!v.is_numeric()) return false;
  ++rows_;
  if (mode_ == Mode::kNone) {
    if (v.is_int()) {
      mode_ = Mode::kInt64;
      int_acc_ = v.AsInt();
    } else {
      mode_ = Mode::kDouble;
      double_acc_ = v.AsDouble();
    }
    return true;
  }
  if (mode_ == Mode::kInt64 && v.is_int()) {
    int_acc_ = FoldStep<int64_t>(op_, int_acc_, v.AsInt());
    return true;
  }
  // Mixed int/double folds promote to double, exactly like NumericOp.
  if (mode_ == Mode::kInt64) {
    double_acc_ = static_cast<double>(int_acc_);
    mode_ = Mode::kDouble;
  }
  double_acc_ = FoldStep<double>(op_, double_acc_, v.ToDouble());
  return true;
}

Value TypedFold::Result() const {
  return mode_ == Mode::kInt64 ? Value::MakeInt(int_acc_)
                               : Value::MakeDouble(double_acc_);
}

}  // namespace diablo::runtime
