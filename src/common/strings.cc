#include "common/strings.h"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace diablo {

std::string Join(const std::vector<std::string>& parts,
                 const std::string& sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i != 0) out += sep;
    out += parts[i];
  }
  return out;
}

NumberParse ParseInt64(const std::string& text, int64_t* out) {
  if (text.empty()) return NumberParse::kNotANumber;
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(text.c_str(), &end, 10);
  if (*end != '\0') return NumberParse::kNotANumber;
  if (errno == ERANGE) return NumberParse::kOutOfRange;
  *out = v;
  return NumberParse::kOk;
}

NumberParse ParseDouble(const std::string& text, double* out) {
  if (text.empty()) return NumberParse::kNotANumber;
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(text.c_str(), &end);
  if (*end != '\0') return NumberParse::kNotANumber;
  // strtod flags ERANGE on overflow (+-inf), on a nonzero value that
  // rounds to 0, and on subnormal results; only the first two lose it.
  if (errno == ERANGE && (std::isinf(v) || v == 0)) {
    return NumberParse::kOutOfRange;
  }
  *out = v;
  return NumberParse::kOk;
}

bool StartsWith(const std::string& s, const std::string& prefix) {
  return s.size() >= prefix.size() &&
         s.compare(0, prefix.size(), prefix) == 0;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string LocationString(const SourceLocation& loc) {
  return StrCat("line ", loc.line, ", column ", loc.column);
}

}  // namespace diablo
