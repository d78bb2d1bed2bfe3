#ifndef DIABLO_RUNTIME_PROFILE_H_
#define DIABLO_RUNTIME_PROFILE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"

/// Prior-run profile ingestion (`--profile-in`): the feedback half of the
/// adaptive-execution loop (DESIGN.md §17). A profile JSON written by
/// `diablo_run --profile-out` (runtime/trace.h WriteProfileJson) is
/// parsed back into ProfileData, and plan-time cost decisions — broadcast
/// vs. hash join, partition count — consult the *measured* stage facts of
/// the prior run instead of static estimates alone.
///
/// Matching key: a plan node finds its prior-run stage by source
/// provenance (file:line:column of the originating loop statement) plus
/// the operator-kind fragment of the stage label ("join[M]",
/// "reduceByKey", ...). A stale profile — renamed program, shifted line
/// numbers, changed operators — simply fails every lookup and the caller
/// falls back to its static rule; a mismatched profile must never turn
/// into an error (tested in tests/skew_test.cc).

namespace diablo::runtime {

/// Minimal JSON value: exactly what the schema-stable profile export
/// needs, tolerant of unknown keys (schema growth must not break old
/// readers). No dependency beyond the standard library.
struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool b = false;
  double num = 0;
  std::string str;
  std::vector<JsonValue> arr;
  std::map<std::string, JsonValue> obj;

  bool is_object() const { return kind == Kind::kObject; }
  bool is_array() const { return kind == Kind::kArray; }
  /// Member lookup; null value when absent or not an object.
  const JsonValue* Find(const std::string& key) const;
  /// Numeric member as int64 (truncated), or `fallback` when absent, not
  /// a number, or outside the int64 range.
  int64_t Int(const std::string& key, int64_t fallback = 0) const;
  /// String member, or "" when absent.
  std::string Str(const std::string& key) const;
};

/// Strict recursive-descent JSON parser (objects, arrays, strings with
/// \uXXXX escapes, numbers, true/false/null). Errors carry the byte
/// offset of the failure.
StatusOr<JsonValue> ParseJson(const std::string& text);

/// One prior-run stage, as re-read from the profile export.
struct ProfileStage {
  std::string label;
  std::string file;
  int line = 0;
  int column = 0;
  bool wide = false;
  int64_t map_work = 0;
  int64_t reduce_work = 0;
  int64_t shuffle_bytes = 0;
  int64_t hash_agg_keys = 0;
  /// Output rows per partition (skew histogram of the prior run).
  std::vector<int64_t> partition_rows;
};

/// A parsed prior-run profile.
class ProfileData {
 public:
  /// Parses the JSON text of a `--profile-out` export. Any
  /// schema_version >= 1 is accepted (later versions only add keys).
  /// Malformed JSON, a missing "stages" array, or a stage count that no
  /// int64 holds (non-finite or out of range) is an error; individual
  /// stages missing optional keys parse as zeros.
  static StatusOr<ProfileData> Parse(const std::string& json_text);

  const std::vector<ProfileStage>& stages() const { return stages_; }
  const std::string& program() const { return program_; }

  /// The prior-run stage matching provenance (file:line:column) whose
  /// label contains `label_fragment` — the profile-feedback matching
  /// key. When the statement executed more than once (a While body),
  /// returns the stage with the most shuffled bytes: the conservative
  /// representative for cost comparisons. Null when nothing matches
  /// (stale profile => caller keeps its static choice).
  const ProfileStage* FindStage(const std::string& file, int line, int column,
                                const std::string& label_fragment) const;

  /// Measured shuffle bytes for the matching stage, or -1 when the
  /// profile has no evidence for this plan node.
  int64_t ShuffleBytesFor(const std::string& file, int line, int column,
                          const std::string& label_fragment) const;

  /// Largest per-stage row count the prior run processed (map side) —
  /// the scale estimate behind the partition-count recommendation.
  int64_t MaxStageRows() const;

 private:
  std::string program_;
  std::vector<ProfileStage> stages_;
};

/// Partition count recommended for a re-run of the profiled program:
/// enough partitions that the biggest stage lands near
/// `target_rows_per_partition` rows each, clamped to [num_workers,
/// 8 * num_workers] so every simulated worker has at least one task and
/// scheduling overhead stays bounded. Deterministic; returns
/// `fallback_partitions` when the profile carries no row counts.
int RecommendPartitions(const ProfileData& profile, int num_workers,
                        int fallback_partitions,
                        int64_t target_rows_per_partition = 1 << 18);

}  // namespace diablo::runtime

#endif  // DIABLO_RUNTIME_PROFILE_H_
