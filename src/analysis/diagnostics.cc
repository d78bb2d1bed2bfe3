#include "analysis/diagnostics.h"

#include <algorithm>
#include <tuple>

namespace diablo::analysis {

const char* SeverityName(Severity s) {
  switch (s) {
    case Severity::kNote:
      return "note";
    case Severity::kWarning:
      return "warning";
    case Severity::kError:
      return "error";
  }
  return "?";
}

std::string Witness::ElementString() const {
  if (element.empty()) return array;
  std::vector<std::string> idx;
  for (int64_t v : element) idx.push_back(std::to_string(v));
  return StrCat(array, "[", Join(idx, ","), "]");
}

namespace {

std::string IterationString(
    const std::vector<std::pair<std::string, int64_t>>& iter) {
  if (iter.empty()) return "()";
  std::vector<std::string> parts;
  for (const auto& [var, val] : iter) {
    parts.push_back(StrCat(var, "=", val));
  }
  return Join(parts, ",");
}

}  // namespace

std::string Witness::ToString() const {
  if (kind == "oob-write") {
    return StrCat("write at ", IterationString(write_iteration),
                  " touches ", ElementString());
  }
  if (kind == "zero-divisor") {
    return StrCat("divisor ", array, " = 0 at ",
                  IterationString(write_iteration));
  }
  if (kind == "nonassoc") {
    return StrCat("counterexample ", IterationString(write_iteration),
                  ": (a ", array, " b) ", array, " c != a ", array,
                  " (b ", array, " c)");
  }
  return StrCat(conflict_is_write ? "writes at " : "write at ",
                IterationString(write_iteration),
                conflict_is_write ? " and " : " and read at ",
                IterationString(read_iteration), " both touch ",
                ElementString());
}

void SortAndDedupe(std::vector<Diagnostic>* diags) {
  auto key = [](const Diagnostic& d) {
    return std::make_tuple(d.loc.line, d.loc.column, d.code, d.message);
  };
  std::stable_sort(diags->begin(), diags->end(),
                   [&](const Diagnostic& a, const Diagnostic& b) {
                     return key(a) < key(b);
                   });
  diags->erase(std::unique(diags->begin(), diags->end(),
                           [&](const Diagnostic& a, const Diagnostic& b) {
                             return key(a) == key(b);
                           }),
               diags->end());
}

bool HasErrors(const std::vector<Diagnostic>& diags) {
  return CountSeverity(diags, Severity::kError) > 0;
}

int CountSeverity(const std::vector<Diagnostic>& diags, Severity s) {
  int n = 0;
  for (const auto& d : diags) {
    if (d.severity == s) ++n;
  }
  return n;
}

namespace {

/// The 1-based `line` of `source`, or empty when out of range.
std::string SourceLine(const std::string& source, int line) {
  if (line < 1) return "";
  size_t pos = 0;
  for (int i = 1; i < line; ++i) {
    pos = source.find('\n', pos);
    if (pos == std::string::npos) return "";
    ++pos;
  }
  size_t end = source.find('\n', pos);
  return source.substr(pos, end == std::string::npos ? std::string::npos
                                                     : end - pos);
}

}  // namespace

std::string RenderText(const Diagnostic& d, const std::string& source,
                       const std::string& filename) {
  std::string out =
      StrCat(filename.empty() ? "<input>" : filename, ":", d.loc.line, ":",
             d.loc.column, ": ", SeverityName(d.severity), ": ", d.code,
             ": ", d.message, "\n");
  std::string line = SourceLine(source, d.loc.line);
  if (!line.empty()) {
    out += StrCat("  ", line, "\n");
    std::string caret = "  ";
    for (int i = 1; i < d.loc.column; ++i) {
      caret += (static_cast<size_t>(i - 1) < line.size() &&
                line[i - 1] == '\t')
                   ? '\t'
                   : ' ';
    }
    out += caret + "^\n";
  }
  if (d.witness.has_value()) {
    out += StrCat("  witness: ", d.witness->ToString(), "\n");
  }
  if (!d.hint.empty()) {
    out += StrCat("  hint: ", d.hint, "\n");
  }
  return out;
}

std::string RenderTextAll(const std::vector<Diagnostic>& diags,
                          const std::string& source,
                          const std::string& filename) {
  std::string out;
  for (const auto& d : diags) out += RenderText(d, source, filename);
  return out;
}

namespace {

std::string JsonIteration(
    const std::vector<std::pair<std::string, int64_t>>& iter) {
  std::vector<std::string> parts;
  for (const auto& [var, val] : iter) {
    parts.push_back(StrCat("\"", JsonEscape(var), "\":", val));
  }
  return StrCat("{", Join(parts, ","), "}");
}

}  // namespace

std::string RenderJson(const Diagnostic& d, const std::string& filename) {
  std::string out = StrCat(
      "{\"code\":\"", JsonEscape(d.code), "\",\"severity\":\"",
      SeverityName(d.severity), "\",\"line\":", d.loc.line,
      ",\"column\":", d.loc.column, ",\"message\":\"",
      JsonEscape(d.message), "\"");
  if (!d.hint.empty()) {
    out += StrCat(",\"hint\":\"", JsonEscape(d.hint), "\"");
  }
  if (d.witness.has_value()) {
    const Witness& w = *d.witness;
    std::vector<std::string> elem;
    for (int64_t v : w.element) elem.push_back(std::to_string(v));
    // The "kind" key appears only for D2xx witnesses, keeping the
    // classic race-witness object byte-stable for existing consumers.
    out += StrCat(",\"witness\":{",
                  w.kind.empty()
                      ? std::string()
                      : StrCat("\"kind\":\"", JsonEscape(w.kind), "\","),
                  "\"array\":\"", JsonEscape(w.array),
                  "\",\"element\":[", Join(elem, ","),
                  "],\"element_string\":\"", JsonEscape(w.ElementString()),
                  "\",\"conflict\":\"", w.conflict_is_write ? "write" : "read",
                  "\",\"write\":", JsonIteration(w.write_iteration),
                  ",\"read\":", JsonIteration(w.read_iteration), "}");
  }
  // Plan-statistics lints share the tracer's location schema so a P0xx
  // finding and a stage span for the same statement join on one shape.
  if (d.code.size() >= 2 && d.code[0] == 'P' && d.code[1] == '0') {
    out += StrCat(",\"location\":{\"file\":\"", JsonEscape(filename),
                  "\",\"line\":", d.loc.line, ",\"column\":", d.loc.column,
                  "}");
  }
  out += "}";
  return out;
}

std::string RenderJson(const Diagnostic& d) { return RenderJson(d, ""); }

std::string RenderJsonAll(const std::vector<Diagnostic>& diags,
                          const std::string& filename) {
  std::vector<std::string> items;
  for (const auto& d : diags) items.push_back(RenderJson(d, filename));
  return StrCat("{\"file\":\"", JsonEscape(filename),
                "\",\"diagnostics\":[", Join(items, ","),
                "],\"errors\":", CountSeverity(diags, Severity::kError),
                ",\"warnings\":", CountSeverity(diags, Severity::kWarning),
                ",\"notes\":", CountSeverity(diags, Severity::kNote), "}");
}

}  // namespace diablo::analysis
