#include "runtime/value.h"

#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <new>
#include <sstream>

#include "common/strings.h"

namespace diablo::runtime {

namespace {

/// A tuple's or a bag's elements: they hash, compare and size alike.
TupleView Elements(const Value& v) {
  return v.is_tuple() ? v.tuple() : TupleView(v.bag());
}

}  // namespace

Value Value::MakeString(std::string s) {
  return Value(Kind::kString, Word{.block = new StringBlock{{}, std::move(s)}});
}

Value Value::NewTuple(size_t n, Value** elems) {
  static_assert(sizeof(Block) % alignof(Value) == 0,
                "the elements follow the header without padding");
  void* raw = ::operator new(sizeof(Block) + n * sizeof(Value));
  Block* block = new (raw) Block{1, static_cast<uint32_t>(n)};
  *elems = reinterpret_cast<Value*>(block + 1);
  std::uninitialized_value_construct_n(*elems, n);
  return Value(Kind::kTuple, Word{.block = block});
}

Value Value::MakeRecord(FieldVec fields) {
  return Value(Kind::kRecord,
               Word{.block = new RecordBlock{{}, std::move(fields)}});
}

Value Value::MakeBag(ValueVec elems) {
  return Value(Kind::kBag, Word{.block = new BagBlock{{}, std::move(elems)}});
}

void Value::Free(Kind kind, Block* block) {
  switch (kind) {
    case Kind::kString:
      delete static_cast<StringBlock*>(block);
      return;
    case Kind::kTuple:
      std::destroy_n(reinterpret_cast<Value*>(block + 1), block->size);
      block->~Block();
      ::operator delete(block);
      return;
    case Kind::kRecord:
      delete static_cast<RecordBlock*>(block);
      return;
    case Kind::kBag:
      delete static_cast<BagBlock*>(block);
      return;
    default:
      return;
  }
}

void Value::WrongKind(Kind want) const {
  std::fprintf(stderr, "runtime::Value: %s accessor called on a %s value\n",
               KindName(want), KindName(kind_));
  std::abort();
}

const Value* Value::FindField(const std::string& name) const {
  for (const auto& [fname, fval] : fields()) {
    if (fname == name) return &fval;
  }
  return nullptr;
}

bool Value::operator==(const Value& other) const {
  return Compare(other) == 0;
}

int Value::Compare(const Value& other) const {
  if (kind() != other.kind()) {
    return static_cast<int>(kind()) < static_cast<int>(other.kind()) ? -1 : 1;
  }
  switch (kind()) {
    case Kind::kUnit:
      return 0;
    case Kind::kBool:
      return (word_.b == other.word_.b) ? 0 : (word_.b ? 1 : -1);
    case Kind::kInt: {
      int64_t a = word_.i, b = other.word_.i;
      return a == b ? 0 : (a < b ? -1 : 1);
    }
    case Kind::kDouble: {
      double a = word_.d, b = other.word_.d;
      return a == b ? 0 : (a < b ? -1 : 1);
    }
    case Kind::kString:
      return AsString().compare(other.AsString());
    case Kind::kTuple:
    case Kind::kBag: {
      const TupleView a = Elements(*this);
      const TupleView b = Elements(other);
      size_t n = std::min(a.size(), b.size());
      for (size_t i = 0; i < n; ++i) {
        int c = a[i].Compare(b[i]);
        if (c != 0) return c;
      }
      return a.size() == b.size() ? 0 : (a.size() < b.size() ? -1 : 1);
    }
    case Kind::kRecord: {
      const FieldVec& a = fields();
      const FieldVec& b = other.fields();
      size_t n = std::min(a.size(), b.size());
      for (size_t i = 0; i < n; ++i) {
        int c = a[i].first.compare(b[i].first);
        if (c != 0) return c;
        c = a[i].second.Compare(b[i].second);
        if (c != 0) return c;
      }
      return a.size() == b.size() ? 0 : (a.size() < b.size() ? -1 : 1);
    }
  }
  return 0;
}

size_t Value::Hash() const {
  size_t seed = HashKindSeed(kind());
  switch (kind()) {
    case Kind::kUnit:
      return seed;
    case Kind::kBool:
      return HashBool(word_.b);
    case Kind::kInt:
      return HashInt(word_.i);
    case Kind::kDouble:
      return HashDouble(word_.d);
    case Kind::kString:
      return HashCombine(seed, std::hash<std::string>()(AsString()));
    case Kind::kTuple:
    case Kind::kBag: {
      for (const Value& v : Elements(*this)) seed = HashCombine(seed, v.Hash());
      return seed;
    }
    case Kind::kRecord: {
      for (const auto& [name, v] : fields()) {
        seed = HashCombine(seed, std::hash<std::string>()(name));
        seed = HashCombine(seed, v.Hash());
      }
      return seed;
    }
  }
  return seed;
}

int64_t Value::SerializedBytes() const {
  switch (kind()) {
    case Kind::kUnit:
      return 1;
    case Kind::kBool:
      return 1;
    case Kind::kInt:
    case Kind::kDouble:
      return 8;
    case Kind::kString:
      return 4 + static_cast<int64_t>(AsString().size());
    case Kind::kTuple:
    case Kind::kBag: {
      int64_t n = 4;
      for (const Value& v : Elements(*this)) n += v.SerializedBytes();
      return n;
    }
    case Kind::kRecord: {
      int64_t n = 4;
      for (const auto& [name, v] : fields()) {
        n += 4 + static_cast<int64_t>(name.size()) + v.SerializedBytes();
      }
      return n;
    }
  }
  return 0;
}

std::string Value::ToString() const {
  std::ostringstream os;
  switch (kind()) {
    case Kind::kUnit:
      os << "()";
      break;
    case Kind::kBool:
      os << (AsBool() ? "true" : "false");
      break;
    case Kind::kInt:
      os << AsInt();
      break;
    case Kind::kDouble:
      os << AsDouble();
      break;
    case Kind::kString:
      os << '"' << AsString() << '"';
      break;
    case Kind::kTuple: {
      os << '(';
      for (size_t i = 0; i < tuple().size(); ++i) {
        if (i != 0) os << ',';
        os << tuple()[i].ToString();
      }
      os << ')';
      break;
    }
    case Kind::kRecord: {
      os << '<';
      for (size_t i = 0; i < fields().size(); ++i) {
        if (i != 0) os << ',';
        os << fields()[i].first << '=' << fields()[i].second.ToString();
      }
      os << '>';
      break;
    }
    case Kind::kBag: {
      os << '{';
      for (size_t i = 0; i < bag().size(); ++i) {
        if (i != 0) os << ',';
        os << bag()[i].ToString();
      }
      os << '}';
      break;
    }
  }
  return os.str();
}

const char* KindName(Value::Kind kind) {
  switch (kind) {
    case Value::Kind::kUnit:
      return "unit";
    case Value::Kind::kBool:
      return "bool";
    case Value::Kind::kInt:
      return "int";
    case Value::Kind::kDouble:
      return "double";
    case Value::Kind::kString:
      return "string";
    case Value::Kind::kTuple:
      return "tuple";
    case Value::Kind::kRecord:
      return "record";
    case Value::Kind::kBag:
      return "bag";
  }
  return "unknown";
}

}  // namespace diablo::runtime
