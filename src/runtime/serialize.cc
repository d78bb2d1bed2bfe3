#include "runtime/serialize.h"

#include <bit>

#include "common/strings.h"

namespace diablo::runtime {

namespace {

enum Tag : char {
  kTagUnit = 'u',
  kTagBool = 'b',
  kTagInt = 'i',
  kTagDouble = 'd',
  kTagString = 's',
  kTagTuple = 't',
  kTagRecord = 'r',
  kTagBag = 'g',
};

Status Truncated() {
  return Status::RuntimeError("truncated serialized value");
}

/// Nesting bound for the decoder. Honest encodings never come close
/// (engine rows are pairs of scalars/bags, depth < 10); a corrupted or
/// adversarial buffer full of nested tuple headers must fail with a
/// Status instead of overflowing the stack.
constexpr int kMaxDeserializeDepth = 64;

}  // namespace

void PutWireU32(uint32_t v, std::string* out) {
  char buf[4];
  buf[0] = static_cast<char>(v & 0xff);
  buf[1] = static_cast<char>((v >> 8) & 0xff);
  buf[2] = static_cast<char>((v >> 16) & 0xff);
  buf[3] = static_cast<char>((v >> 24) & 0xff);
  out->append(buf, 4);
}

void PutWireU64(uint64_t v, std::string* out) {
  PutWireU32(static_cast<uint32_t>(v & 0xffffffffu), out);
  PutWireU32(static_cast<uint32_t>(v >> 32), out);
}

void PutWireDouble(double v, std::string* out) {
  PutWireU64(std::bit_cast<uint64_t>(v), out);
}

StatusOr<uint32_t> GetWireU32(const std::string& data, size_t* offset) {
  if (*offset + 4 > data.size()) return Truncated();
  uint32_t v = 0;
  for (int i = 3; i >= 0; --i) {
    v = (v << 8) | static_cast<uint8_t>(data[*offset + static_cast<size_t>(i)]);
  }
  *offset += 4;
  return v;
}

StatusOr<uint64_t> GetWireU64(const std::string& data, size_t* offset) {
  DIABLO_ASSIGN_OR_RETURN(uint32_t lo, GetWireU32(data, offset));
  DIABLO_ASSIGN_OR_RETURN(uint32_t hi, GetWireU32(data, offset));
  return (static_cast<uint64_t>(hi) << 32) | lo;
}

StatusOr<double> GetWireDouble(const std::string& data, size_t* offset) {
  DIABLO_ASSIGN_OR_RETURN(uint64_t bits, GetWireU64(data, offset));
  return std::bit_cast<double>(bits);
}

namespace {

// Local aliases keep the value codec below unchanged.
void PutU32(uint32_t v, std::string* out) { PutWireU32(v, out); }
void PutU64(uint64_t v, std::string* out) { PutWireU64(v, out); }
StatusOr<uint32_t> GetU32(const std::string& data, size_t* offset) {
  return GetWireU32(data, offset);
}
StatusOr<uint64_t> GetU64(const std::string& data, size_t* offset) {
  return GetWireU64(data, offset);
}

}  // namespace

void SerializeValue(const Value& v, std::string* out) {
  switch (v.kind()) {
    case Value::Kind::kUnit:
      out->push_back(kTagUnit);
      return;
    case Value::Kind::kBool:
      out->push_back(kTagBool);
      out->push_back(v.AsBool() ? 1 : 0);
      return;
    case Value::Kind::kInt:
      out->push_back(kTagInt);
      PutU64(static_cast<uint64_t>(v.AsInt()), out);
      return;
    case Value::Kind::kDouble:
      out->push_back(kTagDouble);
      PutWireDouble(v.AsDouble(), out);
      return;
    case Value::Kind::kString:
      out->push_back(kTagString);
      PutU32(static_cast<uint32_t>(v.AsString().size()), out);
      out->append(v.AsString());
      return;
    case Value::Kind::kTuple:
      out->push_back(kTagTuple);
      PutU32(static_cast<uint32_t>(v.tuple().size()), out);
      for (const Value& elem : v.tuple()) SerializeValue(elem, out);
      return;
    case Value::Kind::kRecord:
      out->push_back(kTagRecord);
      PutU32(static_cast<uint32_t>(v.fields().size()), out);
      for (const auto& [name, field] : v.fields()) {
        PutU32(static_cast<uint32_t>(name.size()), out);
        out->append(name);
        SerializeValue(field, out);
      }
      return;
    case Value::Kind::kBag:
      out->push_back(kTagBag);
      PutU32(static_cast<uint32_t>(v.bag().size()), out);
      for (const Value& elem : v.bag()) SerializeValue(elem, out);
      return;
  }
}

std::string Serialize(const Value& v) {
  std::string out;
  SerializeValue(v, &out);
  return out;
}

namespace {

StatusOr<Value> DeserializeValueAtDepth(const std::string& data, size_t* offset,
                                        int depth) {
  if (depth > kMaxDeserializeDepth) {
    return Status::RuntimeError("serialized value nested too deeply");
  }
  if (*offset >= data.size()) return Truncated();
  char tag = data[(*offset)++];
  switch (tag) {
    case kTagUnit:
      return Value::MakeUnit();
    case kTagBool: {
      if (*offset >= data.size()) return Truncated();
      char b = data[(*offset)++];
      if (b != 0 && b != 1) {
        return Status::RuntimeError("corrupt bool in serialized value");
      }
      return Value::MakeBool(b == 1);
    }
    case kTagInt: {
      DIABLO_ASSIGN_OR_RETURN(uint64_t bits, GetU64(data, offset));
      return Value::MakeInt(static_cast<int64_t>(bits));
    }
    case kTagDouble: {
      DIABLO_ASSIGN_OR_RETURN(double d, GetWireDouble(data, offset));
      return Value::MakeDouble(d);
    }
    case kTagString: {
      DIABLO_ASSIGN_OR_RETURN(uint32_t len, GetU32(data, offset));
      if (*offset + len > data.size()) return Truncated();
      std::string s = data.substr(*offset, len);
      *offset += len;
      return Value::MakeString(std::move(s));
    }
    case kTagTuple:
    case kTagBag: {
      DIABLO_ASSIGN_OR_RETURN(uint32_t n, GetU32(data, offset));
      if (static_cast<size_t>(n) > data.size() - *offset) {
        return Truncated();  // cheap sanity bound: >=1 byte per element
      }
      // A tuple decodes straight into its block, a bag into its vector.
      Value tuple;
      Value* elems = nullptr;
      ValueVec bag;
      if (tag == kTagTuple) {
        tuple = Value::NewTuple(n, &elems);
      } else {
        bag.resize(n);
        elems = bag.data();
      }
      for (uint32_t i = 0; i < n; ++i) {
        DIABLO_ASSIGN_OR_RETURN(
            elems[i], DeserializeValueAtDepth(data, offset, depth + 1));
      }
      return tag == kTagTuple ? std::move(tuple)
                              : Value::MakeBag(std::move(bag));
    }
    case kTagRecord: {
      DIABLO_ASSIGN_OR_RETURN(uint32_t n, GetU32(data, offset));
      if (static_cast<size_t>(n) > data.size() - *offset) return Truncated();
      FieldVec fields;
      fields.reserve(n);
      for (uint32_t i = 0; i < n; ++i) {
        DIABLO_ASSIGN_OR_RETURN(uint32_t len, GetU32(data, offset));
        if (*offset + len > data.size()) return Truncated();
        std::string name = data.substr(*offset, len);
        *offset += len;
        DIABLO_ASSIGN_OR_RETURN(
            Value v, DeserializeValueAtDepth(data, offset, depth + 1));
        fields.emplace_back(std::move(name), std::move(v));
      }
      return Value::MakeRecord(std::move(fields));
    }
    default:
      return Status::RuntimeError(
          StrCat("unknown tag '", std::string(1, tag),
                 "' in serialized value"));
  }
}

}  // namespace

StatusOr<Value> DeserializeValue(const std::string& data, size_t* offset) {
  return DeserializeValueAtDepth(data, offset, 0);
}

StatusOr<Value> Deserialize(const std::string& data) {
  size_t offset = 0;
  DIABLO_ASSIGN_OR_RETURN(Value v, DeserializeValue(data, &offset));
  if (offset != data.size()) {
    return Status::RuntimeError("trailing bytes after serialized value");
  }
  return v;
}

void SerializeHashedRow(const HashedRow& hr, std::string* out) {
  PutWireU64(static_cast<uint64_t>(hr.hash), out);
  SerializeValue(hr.row, out);
}

StatusOr<HashedRow> DeserializeHashedRow(const std::string& data,
                                         size_t* offset) {
  DIABLO_ASSIGN_OR_RETURN(uint64_t hash, GetWireU64(data, offset));
  DIABLO_ASSIGN_OR_RETURN(Value row, DeserializeValue(data, offset));
  return HashedRow{static_cast<size_t>(hash), std::move(row)};
}

void SerializeHashedVec(const HashedVec& rows, std::string* out) {
  PutWireU32(static_cast<uint32_t>(rows.size()), out);
  for (const HashedRow& hr : rows) SerializeHashedRow(hr, out);
}

StatusOr<HashedVec> DeserializeHashedVec(const std::string& data,
                                         size_t* offset) {
  DIABLO_ASSIGN_OR_RETURN(uint32_t n, GetWireU32(data, offset));
  // Every row is at least 9 bytes (u64 hash + one tag); a length prefix
  // promising more rows than the buffer could hold is corrupt, and must
  // fail before any reserve() trusts it.
  if (static_cast<size_t>(n) > (data.size() - *offset) / 9) {
    return Status::RuntimeError(
        "oversized length prefix in hashed-row batch");
  }
  HashedVec rows;
  rows.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    DIABLO_ASSIGN_OR_RETURN(HashedRow hr, DeserializeHashedRow(data, offset));
    rows.push_back(std::move(hr));
  }
  return rows;
}

}  // namespace diablo::runtime
