#include "runtime/profile.h"

#include <algorithm>
#include <cctype>
#include <cstdlib>

#include "common/strings.h"

namespace diablo::runtime {

namespace {

/// Cursor over the JSON text. Depth-bounded like the binary codec: a
/// profile is machine-written and shallow, so a deep nest is garbage.
class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  StatusOr<JsonValue> Parse() {
    DIABLO_ASSIGN_OR_RETURN(JsonValue v, ParseValue(0));
    SkipWs();
    if (pos_ != text_.size()) return Err("trailing bytes after JSON value");
    return v;
  }

 private:
  static constexpr int kMaxDepth = 32;

  Status Err(const std::string& what) const {
    return Status::InvalidArgument(
        StrCat("profile JSON: ", what, " at byte ", pos_));
  }

  void SkipWs() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Eat(char c) {
    SkipWs();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  StatusOr<JsonValue> ParseValue(int depth) {
    if (depth > kMaxDepth) return Err("nesting too deep");
    SkipWs();
    if (pos_ >= text_.size()) return Err("unexpected end of input");
    const char c = text_[pos_];
    if (c == '{') return ParseObject(depth);
    if (c == '[') return ParseArray(depth);
    if (c == '"') {
      JsonValue v;
      v.kind = JsonValue::Kind::kString;
      DIABLO_ASSIGN_OR_RETURN(v.str, ParseString());
      return v;
    }
    if (text_.compare(pos_, 4, "true") == 0) {
      pos_ += 4;
      JsonValue v;
      v.kind = JsonValue::Kind::kBool;
      v.b = true;
      return v;
    }
    if (text_.compare(pos_, 5, "false") == 0) {
      pos_ += 5;
      JsonValue v;
      v.kind = JsonValue::Kind::kBool;
      return v;
    }
    if (text_.compare(pos_, 4, "null") == 0) {
      pos_ += 4;
      return JsonValue();
    }
    return ParseNumber();
  }

  StatusOr<JsonValue> ParseObject(int depth) {
    ++pos_;  // '{'
    JsonValue v;
    v.kind = JsonValue::Kind::kObject;
    if (Eat('}')) return v;
    for (;;) {
      SkipWs();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return Err("expected object key");
      }
      DIABLO_ASSIGN_OR_RETURN(std::string key, ParseString());
      if (!Eat(':')) return Err("expected ':' after object key");
      DIABLO_ASSIGN_OR_RETURN(JsonValue member, ParseValue(depth + 1));
      v.obj.emplace(std::move(key), std::move(member));
      if (Eat(',')) continue;
      if (Eat('}')) return v;
      return Err("expected ',' or '}' in object");
    }
  }

  StatusOr<JsonValue> ParseArray(int depth) {
    ++pos_;  // '['
    JsonValue v;
    v.kind = JsonValue::Kind::kArray;
    if (Eat(']')) return v;
    for (;;) {
      DIABLO_ASSIGN_OR_RETURN(JsonValue elem, ParseValue(depth + 1));
      v.arr.push_back(std::move(elem));
      if (Eat(',')) continue;
      if (Eat(']')) return v;
      return Err("expected ',' or ']' in array");
    }
  }

  StatusOr<std::string> ParseString() {
    ++pos_;  // '"'
    std::string out;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '"') {
        ++pos_;
        return out;
      }
      if (c == '\\') {
        if (pos_ + 1 >= text_.size()) return Err("truncated escape");
        const char e = text_[pos_ + 1];
        pos_ += 2;
        switch (e) {
          case '"': out.push_back('"'); break;
          case '\\': out.push_back('\\'); break;
          case '/': out.push_back('/'); break;
          case 'b': out.push_back('\b'); break;
          case 'f': out.push_back('\f'); break;
          case 'n': out.push_back('\n'); break;
          case 'r': out.push_back('\r'); break;
          case 't': out.push_back('\t'); break;
          case 'u': {
            if (pos_ + 4 > text_.size()) return Err("truncated \\u escape");
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              const char h = text_[pos_ + static_cast<size_t>(i)];
              code <<= 4;
              if (h >= '0' && h <= '9') {
                code |= static_cast<unsigned>(h - '0');
              } else if (h >= 'a' && h <= 'f') {
                code |= static_cast<unsigned>(h - 'a' + 10);
              } else if (h >= 'A' && h <= 'F') {
                code |= static_cast<unsigned>(h - 'A' + 10);
              } else {
                return Err("bad \\u escape");
              }
            }
            pos_ += 4;
            // UTF-8 encode (the exporter only escapes control bytes, so
            // surrogate pairs are not expected; encode BMP points).
            if (code < 0x80) {
              out.push_back(static_cast<char>(code));
            } else if (code < 0x800) {
              out.push_back(static_cast<char>(0xC0 | (code >> 6)));
              out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
            } else {
              out.push_back(static_cast<char>(0xE0 | (code >> 12)));
              out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
              out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
            }
            break;
          }
          default:
            return Err("unknown escape");
        }
        continue;
      }
      out.push_back(c);
      ++pos_;
    }
    return Err("unterminated string");
  }

  StatusOr<JsonValue> ParseNumber() {
    const size_t start = pos_;
    if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) {
      ++pos_;
    }
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '-' || text_[pos_] == '+')) {
      ++pos_;
    }
    if (pos_ == start) return Err("expected a JSON value");
    const std::string num = text_.substr(start, pos_ - start);
    char* end = nullptr;
    const double v = std::strtod(num.c_str(), &end);
    if (end == nullptr || *end != '\0') return Err("malformed number");
    JsonValue out;
    out.kind = JsonValue::Kind::kNumber;
    out.num = v;
    return out;
  }

  const std::string& text_;
  size_t pos_ = 0;
};

/// True when `num` truncates to an int64 without overflow (false for
/// NaN and the infinities).
bool FitsInt64(double num) { return num >= -0x1p63 && num < 0x1p63; }

/// Count `key` of stage `index`: 0 when absent or not a number, an error
/// when no int64 holds it.
StatusOr<int64_t> StageCount(const JsonValue* v, size_t index,
                             const std::string& key) {
  if (v == nullptr || v->kind != JsonValue::Kind::kNumber) return 0;
  if (!FitsInt64(v->num)) {
    return Status::InvalidArgument(
        StrCat("profile JSON: stage ", index, " \"", key, "\": ", v->num,
               " is not a finite count in the int64 range"));
  }
  return static_cast<int64_t>(v->num);
}

}  // namespace

const JsonValue* JsonValue::Find(const std::string& key) const {
  if (kind != Kind::kObject) return nullptr;
  auto it = obj.find(key);
  return it == obj.end() ? nullptr : &it->second;
}

int64_t JsonValue::Int(const std::string& key, int64_t fallback) const {
  const JsonValue* v = Find(key);
  if (v == nullptr || v->kind != Kind::kNumber || !FitsInt64(v->num)) {
    return fallback;
  }
  return static_cast<int64_t>(v->num);
}

std::string JsonValue::Str(const std::string& key) const {
  const JsonValue* v = Find(key);
  if (v == nullptr || v->kind != Kind::kString) return "";
  return v->str;
}

StatusOr<JsonValue> ParseJson(const std::string& text) {
  return JsonParser(text).Parse();
}

StatusOr<ProfileData> ProfileData::Parse(const std::string& json_text) {
  DIABLO_ASSIGN_OR_RETURN(JsonValue root, ParseJson(json_text));
  if (!root.is_object()) {
    return Status::InvalidArgument("profile JSON: top level is not an object");
  }
  if (root.Int("schema_version", 0) < 1) {
    return Status::InvalidArgument(
        "profile JSON: missing or invalid schema_version");
  }
  const JsonValue* stages = root.Find("stages");
  if (stages == nullptr || !stages->is_array()) {
    return Status::InvalidArgument("profile JSON: missing \"stages\" array");
  }
  ProfileData data;
  data.program_ = root.Str("program");
  data.stages_.reserve(stages->arr.size());
  for (size_t i = 0; i < stages->arr.size(); ++i) {
    const JsonValue& s = stages->arr[i];
    if (!s.is_object()) continue;
    ProfileStage stage;
    stage.label = s.Str("label");
    if (const JsonValue* w = s.Find("wide")) {
      stage.wide = w->kind == JsonValue::Kind::kBool && w->b;
    }
    if (const JsonValue* loc = s.Find("location")) {
      stage.file = loc->Str("file");
      stage.line = static_cast<int>(loc->Int("line"));
      stage.column = static_cast<int>(loc->Int("column"));
    }
    for (auto [key, count] :
         {std::pair{"map_work", &stage.map_work},
          std::pair{"reduce_work", &stage.reduce_work},
          std::pair{"shuffle_bytes", &stage.shuffle_bytes},
          std::pair{"hash_agg_keys", &stage.hash_agg_keys}}) {
      DIABLO_ASSIGN_OR_RETURN(*count, StageCount(s.Find(key), i, key));
    }
    if (const JsonValue* parts = s.Find("partitions")) {
      if (const JsonValue* rows = parts->Find("rows")) {
        for (const JsonValue& r : rows->arr) {
          if (r.kind != JsonValue::Kind::kNumber) continue;
          DIABLO_ASSIGN_OR_RETURN(const int64_t n,
                                  StageCount(&r, i, "partitions.rows"));
          stage.partition_rows.push_back(n);
        }
      }
    }
    data.stages_.push_back(std::move(stage));
  }
  return data;
}

const ProfileStage* ProfileData::FindStage(
    const std::string& file, int line, int column,
    const std::string& label_fragment) const {
  const ProfileStage* best = nullptr;
  for (const ProfileStage& s : stages_) {
    if (s.line != line || s.column != column || s.file != file) continue;
    if (s.label.find(label_fragment) == std::string::npos) continue;
    if (best == nullptr || s.shuffle_bytes > best->shuffle_bytes) best = &s;
  }
  return best;
}

int64_t ProfileData::ShuffleBytesFor(const std::string& file, int line,
                                     int column,
                                     const std::string& label_fragment) const {
  const ProfileStage* s = FindStage(file, line, column, label_fragment);
  return s == nullptr ? -1 : s->shuffle_bytes;
}

int64_t ProfileData::MaxStageRows() const {
  int64_t best = 0;
  for (const ProfileStage& s : stages_) {
    best = std::max(best, std::max(s.map_work, s.reduce_work));
  }
  return best;
}

int RecommendPartitions(const ProfileData& profile, int num_workers,
                        int fallback_partitions,
                        int64_t target_rows_per_partition) {
  const int64_t rows = profile.MaxStageRows();
  if (rows <= 0 || target_rows_per_partition <= 0 || num_workers <= 0) {
    return fallback_partitions;
  }
  const int64_t ideal =
      (rows + target_rows_per_partition - 1) / target_rows_per_partition;
  const int64_t lo = num_workers;
  const int64_t hi = static_cast<int64_t>(num_workers) * 8;
  return static_cast<int>(std::clamp(ideal, lo, hi));
}

}  // namespace diablo::runtime
