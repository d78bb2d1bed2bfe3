#ifndef DIABLO_RUNTIME_WAVE_IO_H_
#define DIABLO_RUNTIME_WAVE_IO_H_

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "runtime/keyed_accumulator.h"
#include "runtime/metrics.h"
#include "runtime/value.h"

namespace diablo::runtime {

/// Per-task tally of the intermediates a fused chain streamed through
/// instead of materializing: rows produced at each operator boundary,
/// with bytes estimated from the first row crossing that boundary (a
/// full per-row SerializedBytes() walk would cost more than the
/// materialization it measures).
struct ChainTally {
  std::vector<int64_t> rows;
  std::vector<int64_t> sample_bytes;
  /// Columnar accounting for the task (StageStats::columnar_batches /
  /// columnar_rows_fallback). Carried on the tally because it is
  /// per-task state that must cross the dist wire with the other
  /// per-task outputs.
  int64_t columnar_batches = 0;
  int64_t columnar_rows_fallback = 0;
  /// Peak estimated bytes of the task's keyed accumulator
  /// (KeyedAccumulator / TypedReduceAccumulator MemoryBytes() sampled
  /// after the fold). Crosses the dist wire so worker-side memory
  /// reaches StageStats::accumulator_bytes_peak.
  int64_t accumulator_bytes = 0;

  /// Restartable: called at the top of every task attempt.
  void Reset(size_t boundaries) {
    rows.assign(boundaries, 0);
    sample_bytes.assign(boundaries, 0);
    columnar_batches = 0;
    columnar_rows_fallback = 0;
    accumulator_bytes = 0;
  }
  void Record(size_t boundary, const Value& v) {
    if (boundary >= rows.size()) return;
    if (rows[boundary]++ == 0) sample_bytes[boundary] = v.SerializedBytes();
  }
  void MergeInto(StageStats* stats) const {
    for (size_t i = 0; i < rows.size(); ++i) {
      stats->rows_not_materialized += rows[i];
      stats->bytes_not_materialized += rows[i] * sample_bytes[i];
    }
    stats->columnar_batches += columnar_batches;
    stats->columnar_rows_fallback += columnar_rows_fallback;
    stats->accumulator_bytes_peak =
        std::max(stats->accumulator_bytes_peak, accumulator_bytes);
  }
};

/// The driver-side output slots a task wave writes. Every engine wave
/// writes only per-task slots (out[p], buckets[p], partials[p], ...), so
/// one struct of nullable pointers describes the outputs of all of them.
/// In single-process mode tasks write the slots directly; under the
/// distributed backend (src/dist/) the worker process runs the task,
/// encodes slot index p with EncodeTaskSlots, and the coordinator
/// installs the bytes into the driver's slots with DecodeTaskSlots —
/// same contract, the bytes just cross a socket.
struct WaveSlots {
  /// Plain output rows per task.
  std::vector<ValueVec>* rows = nullptr;
  /// Hashed output rows per task (map-side combine output).
  std::vector<HashedVec>* hashed = nullptr;
  /// Scatter buckets per task: buckets[p][dst] (shuffle waves).
  std::vector<std::vector<HashedVec>>* buckets = nullptr;
  /// Per-task partial aggregate (Reduce).
  std::vector<std::optional<Value>>* partials = nullptr;
  /// One per-task counter (moved bytes, written bytes).
  std::vector<int64_t>* nums = nullptr;
  /// Per-task counter vector (per-destination shuffle bytes, a wide
  /// finish task's work and keyed-table counts).
  std::vector<std::vector<int64_t>>* num_vecs = nullptr;
  /// Fused-chain materialization tallies per task.
  std::vector<ChainTally>* tallies = nullptr;
};

/// Encodes every present slot of task `task` as length-prefixed wire
/// bytes (runtime/serialize.h primitives). Fails when `task` is out of
/// range of a present slot vector.
StatusOr<std::string> EncodeTaskSlots(const WaveSlots& slots, int task);

/// Decodes `bytes` into task `task`'s slots. Strict: the payload must
/// contain exactly the slots present in `slots` (both sides of the wire
/// hold the same wave closure, so any mismatch means corruption), every
/// length prefix is bounded against the remaining bytes, and trailing
/// bytes are rejected.
Status DecodeTaskSlots(const WaveSlots& slots, int task,
                       const std::string& bytes);

}  // namespace diablo::runtime

#endif  // DIABLO_RUNTIME_WAVE_IO_H_
