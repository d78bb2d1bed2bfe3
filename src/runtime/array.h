#ifndef DIABLO_RUNTIME_ARRAY_H_
#define DIABLO_RUNTIME_ARRAY_H_

#include <optional>

#include "common/status.h"
#include "runtime/dataset.h"
#include "runtime/engine.h"
#include "runtime/operators.h"
#include "runtime/value.h"

namespace diablo::runtime {

/// Sparse-array helpers (paper §3.4).
///
/// A sparse array is a bag of (index, value) pairs: a vector has integer
/// keys, a matrix has (i,j) tuple keys. These helpers implement the array
/// merging operator X ⊳ Y — the union of X and Y where Y wins on
/// conflicting keys — on local bags and on distributed datasets, and the
/// combining merge X ⊳⊕ Y on distributed datasets.

/// Local ⊳: rows of `x` and `y` are (key, value) pairs; on duplicate keys
/// the value from `y` is chosen. When `y` itself contains several values
/// for one key, the last one wins (the paper's update sequencing).
/// The result is sorted by key for determinism.
StatusOr<ValueVec> ArrayMergeLocal(const ValueVec& x, const ValueVec& y);

/// Distributed ⊳ as a coGroup (as the paper notes for Spark; stages
/// "arrayMerge" and "arrayMerge.choose"): a key takes its last `y` value,
/// else its last `x` value. With `op` it is ⊳⊕ (stages "mergeInc" and
/// "mergeInc.combine"): a key in `y` takes the ⊕-fold of its `y` values,
/// combined as `x ⊕ fold` with its last `x` value when `x` has one; a key
/// only in `x` keeps its last `x` value.
StatusOr<Dataset> ArrayMerge(Engine& engine, const Dataset& x,
                             const Dataset& y,
                             std::optional<BinOp> op = std::nullopt);

/// Key helpers.
Value MatrixKey(int64_t i, int64_t j);

}  // namespace diablo::runtime

#endif  // DIABLO_RUNTIME_ARRAY_H_
