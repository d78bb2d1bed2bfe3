#ifndef DIABLO_COMMON_STRINGS_H_
#define DIABLO_COMMON_STRINGS_H_

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

namespace diablo {

/// Concatenates the stream representations of all arguments.
template <typename... Args>
std::string StrCat(const Args&... args) {
  std::ostringstream os;
  (os << ... << args);
  return os.str();
}

/// Joins the elements of `parts` with `sep` between consecutive elements.
std::string Join(const std::vector<std::string>& parts,
                 const std::string& sep);

/// True iff `s` starts with `prefix`.
bool StartsWith(const std::string& s, const std::string& prefix);

/// Escapes `s` for embedding in a JSON string literal: `"` and `\`, the
/// \n \t \r shorthands, and \u00XX for every other control character.
std::string JsonEscape(const std::string& s);

/// How ParseInt64 or ParseDouble converted a spelling.
enum class NumberParse { kOk, kNotANumber, kOutOfRange };

/// The one range rule for numeric literals, shared by the lexer and by
/// diablo_run's --scalar bindings and CSV fields. Both functions convert
/// ALL of `text` (strtoll / strtod spelling) and report kNotANumber
/// otherwise. ParseInt64 rejects a value beyond int64; ParseDouble
/// rejects one that overflows to +-inf and a nonzero one that rounds to
/// 0 (subnormal results are kept). `*out` is set only on kOk.
NumberParse ParseInt64(const std::string& text, int64_t* out);
NumberParse ParseDouble(const std::string& text, double* out);

/// A position in a source file, 1-based.
struct SourceLocation {
  int line = 1;
  int column = 1;
};

/// Formats a location as "line L, column C".
std::string LocationString(const SourceLocation& loc);

}  // namespace diablo

#endif  // DIABLO_COMMON_STRINGS_H_
