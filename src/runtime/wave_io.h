#ifndef DIABLO_RUNTIME_WAVE_IO_H_
#define DIABLO_RUNTIME_WAVE_IO_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "runtime/keyed_accumulator.h"
#include "runtime/metrics.h"
#include "runtime/value.h"

namespace diablo::runtime {

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
  /// Per-task records (StageStats): what each task measured about
  /// itself. Encoded as every kStageCounters entry in table order, then
  /// reduce_work and partition_bytes, the two vectors tasks fill; the
  /// wave folds them into its stage record with FoldTaskRecords.
  std::vector<StageStats>* records = nullptr;
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
