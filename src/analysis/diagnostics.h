#ifndef DIABLO_ANALYSIS_DIAGNOSTICS_H_
#define DIABLO_ANALYSIS_DIAGNOSTICS_H_

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/strings.h"

namespace diablo::analysis {

// ---------------------------------------------------------------------------
// Structured diagnostics shared by the loop-level (Definition 3.1) and
// plan-level (DISC algebra) analyzers. Every diagnostic carries a stable
// code so tools and golden tests can match on it:
//
//   D0xx  loop-level errors (the program is rejected for distribution)
//   D1xx  loop-level advisories (accepted, but worth a look)
//   D2xx  proven semantic errors from abstract interpretation (rejected;
//         each carries a concrete witness the reference interpreter
//         confirms)
//   P0xx  plan-level shuffle statistics (notes)
//   P1xx  plan-level advisories (missed optimizations / expensive shapes)
//   P2xx  plan-level cost advisories backed by interval evidence
//
// The full catalog with examples lives in docs/diagnostics.md.
// ---------------------------------------------------------------------------

namespace diag {
// Loop-level errors.
inline constexpr char kWriteReadRecurrence[] = "D001";
inline constexpr char kIncrReadRecurrence[] = "D002";
inline constexpr char kNonAffineDest[] = "D003";
inline constexpr char kDestMissesIndexes[] = "D004";
inline constexpr char kDeclInLoop[] = "D005";
inline constexpr char kDuplicateIndex[] = "D006";
inline constexpr char kForInWhile[] = "D007";
// Loop-level advisories.
inline constexpr char kShadowedIndex[] = "D101";
inline constexpr char kNonCommutativeUpdate[] = "D102";
inline constexpr char kNonAffineRead[] = "D103";
// Proven semantic errors (abstract interpretation / merge algebra).
inline constexpr char kOutOfBoundsWrite[] = "D201";
inline constexpr char kZeroDivisor[] = "D202";
inline constexpr char kNonAssociativeMerge[] = "D203";
// Plan-level statistics.
inline constexpr char kStmtShuffles[] = "P001";
inline constexpr char kProgramShuffles[] = "P002";
// Plan-level advisories.
inline constexpr char kGroupByReduce[] = "P101";
inline constexpr char kFilterAboveJoin[] = "P102";
inline constexpr char kMissedFusion[] = "P103";
inline constexpr char kEmptyMerge[] = "P104";
inline constexpr char kCartesianProduct[] = "P105";
// Plan-level cost advisories (interval evidence).
inline constexpr char kKeyCardinality[] = "P201";
inline constexpr char kBroadcastJoinHint[] = "P202";
}  // namespace diag

enum class Severity { kNote, kWarning, kError };

/// "note" / "warning" / "error".
const char* SeverityName(Severity s);

/// A concrete two-iteration race witness attached to a dependence
/// diagnostic: two iteration-vector assignments under which both accesses
/// resolve to the same array element (Definition 3.1 is violated *for a
/// reason*, and this is the reason).
struct Witness {
  /// Witness flavor. Empty for the classic race witness (schema-stable
  /// with pre-D2xx tools); "oob-write" (D201: write_iteration is the
  /// faulting environment, element the out-of-bounds subscript),
  /// "zero-divisor" (D202: array holds the divisor expression text,
  /// write_iteration the environment under which it evaluates to 0),
  /// "nonassoc" (D203: array holds the operator name, write_iteration
  /// binds a,b,c with the counterexample triple).
  std::string kind;
  /// Root variable both accesses touch.
  std::string array;
  /// Iteration vector of the writing (or incrementing) access: loop index
  /// variable -> value, outermost loop first.
  std::vector<std::pair<std::string, int64_t>> write_iteration;
  /// Iteration vector of the conflicting access (a read, or a second
  /// write for self-conflicting destinations).
  std::vector<std::pair<std::string, int64_t>> read_iteration;
  /// True when the conflicting access is another write of the same
  /// destination rather than a read.
  bool conflict_is_write = false;
  /// The common element's index vector (empty for scalar destinations).
  std::vector<int64_t> element;

  /// "V[1]" or the bare variable name for scalars.
  std::string ElementString() const;
  /// "write at i=2 and read at i=1 both touch V[1]".
  std::string ToString() const;
};

struct Diagnostic {
  std::string code;
  Severity severity = Severity::kError;
  SourceLocation loc;
  std::string message;
  /// Optional fix suggestion shown under the message.
  std::string hint;
  std::optional<Witness> witness;
};

/// Sorts by source location (then code, then message) and drops exact
/// duplicates, making reports deterministic across runs.
void SortAndDedupe(std::vector<Diagnostic>* diags);

bool HasErrors(const std::vector<Diagnostic>& diags);
int CountSeverity(const std::vector<Diagnostic>& diags, Severity s);

/// Renders one diagnostic as human-readable text:
///
///   prog.diablo:2:3: error: D001: recurrence: ...
///     V[i] := (V[i-1] + V[i+1]) / 2.0;
///     ^
///     witness: write at i=2 and read at i=1 both touch V[1]
///     hint: copy V into a second array first (see §3.2)
///
/// `source` is the program text used for the caret line (may be empty);
/// `filename` defaults to "<input>" when empty.
std::string RenderText(const Diagnostic& d, const std::string& source,
                       const std::string& filename);
std::string RenderTextAll(const std::vector<Diagnostic>& diags,
                          const std::string& source,
                          const std::string& filename);

/// Renders one diagnostic as a single JSON object with a schema-stable
/// key order: code, severity, line, column, message, then optionally
/// hint and witness. The witness object has keys array, element,
/// element_string, conflict, write, read. Plan-statistics diagnostics
/// (P0xx) additionally carry a trailing "location" object —
/// {"file":...,"line":N,"column":N} — the same provenance schema the
/// runtime tracer stamps on stage spans, so lint findings and trace
/// spans join on one location shape (docs/diagnostics.md).
std::string RenderJson(const Diagnostic& d, const std::string& filename);
std::string RenderJson(const Diagnostic& d);

/// {"file":"...","diagnostics":[...],"errors":N,"warnings":N,"notes":N}
std::string RenderJsonAll(const std::vector<Diagnostic>& diags,
                          const std::string& filename);

}  // namespace diablo::analysis

#endif  // DIABLO_ANALYSIS_DIAGNOSTICS_H_
