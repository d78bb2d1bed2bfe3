#ifndef DIABLO_RUNTIME_DATASET_H_
#define DIABLO_RUNTIME_DATASET_H_

#include <functional>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/status.h"
#include "runtime/value.h"

namespace diablo::runtime {

/// One node of a dataset's lineage graph — the recipe for rebuilding
/// lost partitions from its ancestors, the way Spark recovers RDD
/// partitions after an executor death. The engine attaches a node to
/// every dataset it produces; `recompute` re-derives partitions from the
/// (materialized) parent datasets captured in its closure and must
/// reproduce the original computation bit-for-bit, evaluation order
/// included, so recovered runs equal fault-free runs exactly.
struct LineageNode {
  /// Recomputes the lost partitions `parts` (ascending ids) in one call:
  /// `rebuilt` receives one entry per id, in order, and the rows scanned
  /// are added to `*work` (the cost model prices recovery from it). A
  /// shuffle-producing operator's replay scans each source row once,
  /// hashes it once, and keeps only rows whose destination is lost — not
  /// once per lost destination; a Force stage's replays each partition's
  /// chain.
  using RecomputeFn = std::function<Status(const std::vector<int>& parts,
                                           std::vector<ValueVec>* rebuilt,
                                           int64_t* work)>;

  /// Operator kind: "source", "checkpoint", "map", "fused", "shuffle", ...
  std::string kind;
  /// The stage label of the operator that produced the dataset.
  std::string label;
  /// Durable data (job input or checkpoint): partitions can be re-read
  /// from stable storage, no recomputation needed. Depth is 0.
  bool durable = false;
  std::vector<std::shared_ptr<const LineageNode>> parents;
  /// Null for durable nodes, and for every node when the engine runs
  /// without fault injection (no recovery can be asked, so no closure
  /// — and no ancestor datasets — are retained).
  RecomputeFn recompute;
  /// Length of the longest chain of non-durable ancestors, this node
  /// included. Checkpoint() resets it to 0; iterative loops use it to
  /// decide when lineage has grown long enough to truncate. Fused
  /// narrow chains count every pending operator toward the depth.
  int depth = 0;
};

/// Where a fused flatMap hands its output rows, one at a time: the rest
/// of the chain, or the stage's own sink. A non-owning reference to the
/// caller's callable `Status(const Value&)`, converted implicitly from
/// it and valid only during the call it is passed to, so emitting a row
/// costs one indirect call and no allocation.
class RowSink {
 public:
  template <typename F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, RowSink>)
  RowSink(F& f)
      : target_(&f), call_([](void* target, const Value& row) -> Status {
          return (*static_cast<F*>(target))(row);
        }) {}

  Status operator()(const Value& row) const { return call_(target_, row); }

 private:
  void* target_;
  Status (*call_)(void*, const Value&);
};

/// One deferred narrow operator in a fused chain. The callbacks mirror
/// Engine::MapFn/PredFn/FlatMapFn; which one is set depends on `kind`.
struct FusedOp {
  enum class Kind { kMap, kFilter, kFlatMap };

  Kind kind = Kind::kMap;
  /// Stage-label fragment; fused stages join these with '+'.
  std::string label;
  /// Set for kMap.
  std::function<StatusOr<Value>(const Value&)> map;
  /// Set for kFilter.
  std::function<StatusOr<bool>(const Value&)> pred;
  /// Set for kFlatMap: streams the rows of one input row into the sink,
  /// stopping at the first error (its own or the sink's).
  std::function<Status(const Value&, RowSink)> flat;
  /// How many plan operators this one stands for. A compiled row
  /// segment (plan/row_program.h) replaces several qualifiers with one
  /// closure; lineage depth still counts every one of them, so
  /// auto-checkpoints and fault coordinates do not move.
  int plan_ops = 1;
};

/// An unexecuted pipeline of narrow operators, applied element-by-element
/// on top of a dataset's materialized source partitions.
using FusedChain = std::vector<FusedOp>;

/// The lineage depth a chain contributes: its operators' plan_ops.
inline int ChainDepth(const FusedChain& chain) {
  int depth = 0;
  for (const FusedOp& op : chain) depth += op.plan_ops;
  return depth;
}

/// An immutable, partitioned collection of Values — the analogue of a
/// Spark RDD. Datasets are cheap to copy (the partition payload is
/// shared) and are only created through Engine operations, which record
/// execution statistics for the cluster cost model and attach the
/// lineage node used for fault recovery.
///
/// A dataset may be *lazy*: the stored partitions are the source rows
/// and `chain()` holds narrow operators (map / filter / flatMap) not
/// yet applied. The engine runs the whole chain
/// element-by-element inside the next stage boundary (shuffle, reduce,
/// collect, checkpoint, Force) with no intermediate materialization.
/// TotalRows()/TotalBytes()/partition() observe the SOURCE rows of a
/// lazy dataset; call Engine::Force (or any action) first when the
/// logical rows are needed.
class Dataset {
 public:
  /// An empty dataset with zero partitions.
  Dataset()
      : partitions_(std::make_shared<const std::vector<ValueVec>>()),
        lineage_(SourceLineage()) {}

  /// A source dataset (durable lineage), e.g. parallelized job input.
  explicit Dataset(std::vector<ValueVec> partitions)
      : Dataset(std::move(partitions), SourceLineage()) {}

  /// A derived dataset with an explicit lineage node.
  Dataset(std::vector<ValueVec> partitions,
          std::shared_ptr<const LineageNode> lineage)
      : partitions_(std::make_shared<const std::vector<ValueVec>>(
            std::move(partitions))),
        lineage_(std::move(lineage)) {}

  /// A derived dataset carrying a pending fused chain over `partitions`.
  Dataset(std::vector<ValueVec> partitions,
          std::shared_ptr<const LineageNode> lineage,
          std::shared_ptr<const FusedChain> chain)
      : partitions_(std::make_shared<const std::vector<ValueVec>>(
            std::move(partitions))),
        lineage_(std::move(lineage)),
        chain_(std::move(chain)) {}

  /// Shares `base`'s partitions under a new lineage node (used by
  /// Checkpoint() to truncate lineage without copying data). Drops any
  /// pending chain — callers must have folded it into the new node.
  Dataset(const Dataset& base, std::shared_ptr<const LineageNode> lineage)
      : partitions_(base.partitions_), lineage_(std::move(lineage)) {}

  int num_partitions() const {
    return static_cast<int>(partitions_->size());
  }
  const ValueVec& partition(int i) const { return (*partitions_)[i]; }
  const std::vector<ValueVec>& partitions() const { return *partitions_; }

  const std::shared_ptr<const LineageNode>& lineage() const {
    return lineage_;
  }
  /// Convenience: lineage depth (0 for sources and checkpoints). Every
  /// pending fused operator counts, so loop checkpointing sees the true
  /// recovery-chain length even while stages are deferred.
  int lineage_depth() const {
    int base = lineage_ == nullptr ? 0 : lineage_->depth;
    return base + ChainDepth(chain());
  }

  /// True when no narrow operators are pending: partition() et al.
  /// observe the dataset's logical rows directly.
  bool materialized() const { return chain_ == nullptr || chain_->empty(); }

  /// The pending narrow-operator chain (empty when materialized).
  const FusedChain& chain() const {
    static const FusedChain kEmpty;
    return chain_ == nullptr ? kEmpty : *chain_;
  }
  const std::shared_ptr<const FusedChain>& chain_ptr() const { return chain_; }

  /// A lazy dataset sharing this one's source partitions and lineage
  /// with `op` appended to the pending chain.
  Dataset WithOp(FusedOp op) const {
    auto extended = std::make_shared<FusedChain>(chain());
    extended->push_back(std::move(op));
    Dataset out;
    out.partitions_ = partitions_;
    out.lineage_ = lineage_;
    out.chain_ = std::move(extended);
    return out;
  }

  /// Total number of rows across all (source) partitions.
  int64_t TotalRows() const;

  /// Approximate serialized size of all rows, for workload reporting.
  int64_t TotalBytes() const;

  /// The shared lineage node of durable source data.
  static const std::shared_ptr<const LineageNode>& SourceLineage();

 private:
  std::shared_ptr<const std::vector<ValueVec>> partitions_;
  std::shared_ptr<const LineageNode> lineage_;
  /// Pending narrow operators; null or empty when materialized.
  std::shared_ptr<const FusedChain> chain_;
};

}  // namespace diablo::runtime

#endif  // DIABLO_RUNTIME_DATASET_H_
