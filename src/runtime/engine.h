#ifndef DIABLO_RUNTIME_ENGINE_H_
#define DIABLO_RUNTIME_ENGINE_H_

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "runtime/column_batch.h"
#include "runtime/dataset.h"
#include "runtime/events.h"
#include "runtime/fault.h"
#include "runtime/keyed_accumulator.h"
#include "runtime/metrics.h"
#include "runtime/operators.h"
#include "runtime/trace.h"
#include "runtime/value.h"
#include "runtime/wave_io.h"

namespace diablo::runtime {

class WorkerPool;
class RemoteExecutor;
class MetricsRegistry;
/// One virtual task of a wide stage's finish wave, and the per-task
/// fused-chain tally (both engine.cc).
template <typename Rows>
struct WideTask;
struct ChainTally;

/// Runtime skew mitigation (DESIGN.md §17). When one task of a combine
/// or reduce wave would receive far more rows than its peers — a hot
/// key, a key-clustered input layout, or many keys hashed together —
/// the engine "salts" that task: it is split into sub-tasks that run in
/// parallel, and a final un-salt merge reassembles the task's output
/// byte-identically to the unmitigated run. Salting is a property of
/// the shared wide-stage wave, so it works on the boxed and the typed
/// row layout alike; each operator picks the policy that keeps it exact:
///  - groupByKey reduce tasks split into contiguous row CHUNKS (a key's
///    bag is its values in arrival order, and concatenating per-chunk
///    bags in chunk order IS arrival order — exact for every type);
///  - reduceByKey reduce tasks split into hash STRIPES (remixed key
///    hash modulo fanout): no key is ever split across sub-tasks, so
///    any reduce function stays exact, and the merge is a disjoint
///    sorted merge;
///  - reduceByKey combine tasks split into contiguous row chunks whose
///    partials re-merge in the normal reduce stage, only under the
///    exactness proof: a native {+, *, min, max} over a plan-time int64
///    value schema, with every folded payload int64 at run time (these
///    ops are bit-associative on wrapping int64);
///  - join and coGroup do not salt.
struct SkewConfig {
  /// Master switch (diablo_run --no-skew; the AB10 ablation baseline).
  bool mitigate = true;
  /// A task is hot when its rows exceed `ratio` times the wave mean...
  double ratio = 4.0;
  /// ...and it carries at least this many rows. Small waves — every
  /// tier-1 test — never salt, so their stage accounting is untouched.
  int64_t min_rows = 64 * 1024;
  /// Most sub-tasks one hot task may be split into.
  int max_fanout = 8;
};

/// Configuration of the simulated cluster engine.
struct EngineConfig {
  /// Number of partitions newly parallelized datasets are split into.
  int num_partitions = 8;
  /// Real host threads used to execute partition tasks. 1 = run inline;
  /// more runs every task wave on one persistent work-stealing pool the
  /// engine creates on first use and keeps for its lifetime. Any value
  /// works on any host; this only affects wall-clock execution, never
  /// results, errors (a failing wave reports its lowest-indexed failing
  /// partition) or the cost model.
  int host_threads = 1;
  /// Parameters of the deterministic cluster cost model (see metrics.h).
  ClusterModel cluster;
  /// Extension (paper §7 future work): when > 0, the comprehension
  /// planner turns a distributed hash join whose array side is at most
  /// this many bytes into a broadcast hash join — the array ships to
  /// every worker once and the probe side never shuffles. 0 keeps the
  /// paper-faithful shuffle joins.
  int64_t broadcast_join_threshold_bytes = 0;
  /// When true, every shuffled row round-trips through the binary codec
  /// (runtime/serialize.h), exactly as it would cross a real network:
  /// validates the wire format under load and makes the accounted
  /// shuffle bytes the exact encoded size. Off by default (the
  /// SerializedBytes() estimate is used instead).
  bool serialize_shuffles = false;
  /// The typed columnar paths (runtime/column_batch.h) are not a
  /// setting. Each is chosen from what the engine observes: a built-in
  /// op that TypedFold (Reduce) or TypedReduceAccumulator (reduceByKey,
  /// whose combine output may cross the shuffle as TypedRows) covers
  /// folds natively; the plan-time ColumnSchema may skip a typed
  /// attempt; and every shuffle scatter hashes whole key columns
  /// (HashColumn, bit-identical to Value::Hash). Rows that don't
  /// columnarize (heterogeneous kinds, tuple keys, closure reduce
  /// functions) take the boxed per-row path, mid-stream and per
  /// partition, with byte-identical results (tests/columnar_test.cc);
  /// StageStats::columnar_batches and columnar_rows_fallback make the
  /// split observable. The constant stays for readers that report it,
  /// such as the end-to-end benchmark's `columnar_default` host fact.
  static constexpr bool columnar = true;
  /// Runtime skew mitigation thresholds (see SkewConfig above). On by
  /// default; outputs are byte-identical with or without it
  /// (tests/skew_test.cc), only wall-clock and task accounting change.
  SkewConfig skew;
  /// Deterministic fault injection and recovery policy (runtime/fault.h).
  /// Off by default: with no fault class enabled no draw ever fires, and
  /// the engine skips input-loss recovery and retains no lineage
  /// closures.
  FaultConfig faults;
  /// When true (the default), the engine records wall-clock trace spans
  /// (run > statement > stage > wave > task, plus recovery spans) into a
  /// TraceRecorder reachable via Engine::trace() — see runtime/trace.h
  /// and DESIGN.md §13. Tracing never changes stage numbering, fault
  /// coordinates, or any program output byte (asserted in trace_test).
  /// False makes every hook a single null-pointer test.
  bool tracing = true;
  /// When set, every task wave executes on this remote backend (the
  /// multi-process coordinator of src/dist/) instead of in-process
  /// threads: workers run the task closures against their forked
  /// copy-on-write snapshot and results come back over the wire
  /// (runtime/wave_io.h). The engine then forces host_threads = 1, so
  /// no pool thread exists at fork time. It also treats a real worker
  /// death as a partition loss: the dead worker's partitions go through
  /// the lineage recompute path at the next stage boundary (the engine
  /// sets FaultConfig::retain_lineage so the closures exist). The
  /// rebuilt partitions are bit-identical, so the fault-injection
  /// invariant (DESIGN.md §9) is the correctness oracle for real
  /// SIGKILLs. Not owned.
  RemoteExecutor* remote = nullptr;
  /// Cluster telemetry sinks (DESIGN.md §18), both nullable and not
  /// owned. `registry` receives named counters/gauges/histograms
  /// (per-stage peak RSS, accumulator watermarks, task durations) for
  /// --metrics-out; `events` receives the structured event stream
  /// (task_retry, lineage_recovery, skew_salting, cost_decision, plus
  /// the dist backend's worker-lifecycle events) for --events-out.
  /// Null sinks cost one pointer test per site and change no output.
  MetricsRegistry* registry = nullptr;
  EventLog* events = nullptr;
};

/// Source provenance the engine stamps into every finished stage (and
/// its trace span): the statement of the source program currently
/// executing. Installed by the target executor / plan evaluator around
/// each statement via Engine::SwapProvenance; `line == 0` means "no
/// statement scope is active".
struct EngineProvenance {
  std::string file;       ///< source program path ("" = unknown)
  int line = 0;
  int column = 0;
  std::string statement;  ///< short statement label, e.g. "assign P"
};

/// The DIABLO execution substrate: a from-scratch, in-process
/// data-parallel engine with the Spark RDD operator vocabulary.
///
/// The operators are the ones DIABLO plans call (paper §3.3): the narrow
/// map, filter and flatMap, the wide groupByKey, reduceByKey, join and
/// coGroup, and Force, Checkpoint, Reduce, Collect and First. Datasets
/// are hash-partitioned; narrow operators transform partitions in place,
/// wide operators redistribute rows by key hash — a shuffle. Every stage
/// records a StageStats entry in metrics(), from which the cluster cost
/// model computes a simulated distributed run time (DESIGN.md §3 explains
/// why this substitution preserves the paper's comparisons).
///
/// Narrow operators defer: they return a lazy Dataset whose pending
/// chain runs fused inside the next stage boundary, one element at a
/// time — the Spark pipelining model. A fused stage's label joins the
/// chain's labels with '+' ("flatMap+filter+map"), and
/// StageStats::fused_ops / rows_not_materialized /
/// bytes_not_materialized make the saved intermediates observable.
///
/// Wide operators all run one wide-stage wave (RunWide): scatter each
/// input side, salt and finish per destination, record the stage once.
/// They aggregate through KeyedAccumulator keyed by the key hash the
/// scatter computed once and carried with the row. Each one has a single
/// per-destination finish that both its forward finish wave and its
/// lineage replay call, so a rebuilt partition is produced by the same
/// code as the original.
///
/// Rows of keyed datasets are pair tuples (key, value); the key may be any
/// Value (ints, tuples of ints, strings, ...).
///
/// Fault tolerance (DESIGN.md §"Fault model"): when EngineConfig::faults
/// enables injection, every partition task runs under a bounded retry
/// budget; injected failures (killed attempts, corrupted shuffle
/// payloads) are retried with deterministic simulated backoff, and lost
/// input partitions are recomputed from dataset lineage — Checkpoint()
/// truncates lineage inside iterative loops. A failed attempt restarts
/// the whole fused chain for its partition. All recovery work is
/// charged to StageStats::recovery_seconds. The invariant: a run that
/// completes under injection produces bit-identical results to the
/// fault-free run.
///
/// All operator callbacks may fail; a genuine callback error is never
/// retried — the first one aborts the stage and is returned. A narrow
/// operator's error surfaces at the stage boundary that executes its
/// chain, not at the deferring call. Callbacks must be thread-safe when
/// host_threads > 1 and must be restartable (they may run more than
/// once for the same partition under retries).
class Engine {
 public:
  using MapFn = std::function<StatusOr<Value>(const Value&)>;
  using FlatMapFn = std::function<StatusOr<ValueVec>(const Value&)>;
  using PredFn = std::function<StatusOr<bool>(const Value&)>;
  using ReduceFn = std::function<StatusOr<Value>(const Value&, const Value&)>;

  explicit Engine(EngineConfig config = EngineConfig());
  ~Engine();

  const EngineConfig& config() const { return config_; }
  Metrics& metrics() { return metrics_; }
  const Metrics& metrics() const { return metrics_; }

  /// The engine's trace recorder, or null when tracing is off — the
  /// null test IS the tracing-off fast path.
  TraceRecorder* trace() const { return trace_.get(); }

  /// Installs the source provenance stamped into subsequently finished
  /// stages, returning the previous value so callers can nest scopes
  /// and restore on exit (While bodies re-enter statement scopes).
  EngineProvenance SwapProvenance(EngineProvenance p) {
    std::swap(p, provenance_);
    return p;
  }
  const EngineProvenance& provenance() const { return provenance_; }

  /// Records a driver-side synthetic stage produced outside the normal
  /// operator paths (the planner's broadcast-join ship / cartesian
  /// product accounting), stamped with provenance and traced like any
  /// other stage.
  void RecordPlannerStage(StageStats stats);

  /// Counts one profile-informed plan decision (broadcast-vs-hash join,
  /// partition count chosen from --profile-in evidence); drained into
  /// the next finished stage's StageStats::cost_decisions, since plan
  /// decisions arrive between stages.
  void RecordCostDecision() {
    ++cost_decisions_pending_;
    if (config_.events != nullptr) {
      Event e;
      e.name = "cost_decision";
      e.src_file = provenance_.file;
      e.src_line = provenance_.line;
      e.src_column = provenance_.column;
      config_.events->Emit(std::move(e));
    }
  }

  /// Clears recorded metrics and restarts stage numbering, so a fresh
  /// run on this engine sees the same fault schedule as the previous one
  /// (stage ids are the injector's coordinates). Trace spans recorded so
  /// far are dropped with them (span stage indexes point into metrics).
  void ResetRunState() {
    metrics_.Clear();
    next_stage_id_ = 0;
    cost_decisions_pending_ = 0;
    if (TraceRecorder* t = trace()) t->Clear();
  }

  /// Splits `rows` into num_partitions contiguous chunks. No stage is
  /// recorded: loading input data is not charged to any plan.
  Dataset Parallelize(ValueVec rows) const;
  Dataset Parallelize(ValueVec rows, int num_partitions) const;

  /// The integer range [lo, hi] (inclusive, as in the paper's `range`),
  /// split into contiguous partitions. The caller keeps its count within
  /// ValueVec::max_size().
  Dataset Range(int64_t lo, int64_t hi) const;

  /// Narrow: applies `fn` to every row.
  StatusOr<Dataset> Map(const Dataset& in, const MapFn& fn,
                        const std::string& label = "map");

  /// Narrow: keeps rows satisfying `pred`.
  StatusOr<Dataset> Filter(const Dataset& in, const PredFn& pred,
                           const std::string& label = "filter");

  /// Narrow: maps every row to a bag of rows and concatenates.
  StatusOr<Dataset> FlatMap(const Dataset& in, const FlatMapFn& fn,
                            const std::string& label = "flatMap");

  /// Narrow: appends a prebuilt fused operator. Map, Filter and FlatMap
  /// build theirs from a closure; the plan evaluator's compiled row
  /// segments (plan/row_program.h) arrive ready-made.
  StatusOr<Dataset> Narrow(const Dataset& in, FusedOp op);

  /// Materializes any pending fused chain as ONE task wave (the stage
  /// label joins the chain's labels with '+'). No-op for materialized
  /// datasets. Use before reading partitions()/TotalRows() directly.
  StatusOr<Dataset> Force(const Dataset& in);

  /// Wide: groups (k,v) rows by k; result rows are (k, Bag-of-v), sorted
  /// by key within each partition (for determinism).
  StatusOr<Dataset> GroupByKey(const Dataset& in,
                               const std::string& label = "groupByKey");

  /// Wide: combines values of equal keys with `fn`. Performs a map-side
  /// combine before shuffling, like Spark's reduceByKey.
  StatusOr<Dataset> ReduceByKey(const Dataset& in, const ReduceFn& fn,
                                const std::string& label = "reduceByKey");
  /// ReduceByKey with a built-in commutative operator. The combine and
  /// reduce sides run through the typed accumulator when the op and the
  /// observed key/value kinds allow it; `schema` is the plan-time hint
  /// (kUnknown fields mean "detect from the data") that lets the engine
  /// skip the typed attempt when the planner already knows the value
  /// type can't columnarize.
  StatusOr<Dataset> ReduceByKey(const Dataset& in, BinOp op,
                                const std::string& label = "reduceByKey",
                                const ColumnSchema& schema = ColumnSchema());

  /// Wide: inner equi-join of (k,a) with (k,b); result rows (k,(a,b)).
  StatusOr<Dataset> Join(const Dataset& left, const Dataset& right,
                         const std::string& label = "join");

  /// Wide: full cogroup of (k,a) with (k,b); result rows
  /// (k,(Bag-of-a, Bag-of-b)) for every key present on either side.
  StatusOr<Dataset> CoGroup(const Dataset& left, const Dataset& right,
                            const std::string& label = "coGroup");

  /// Writes the dataset to (simulated) stable storage and truncates its
  /// lineage: the result is durable, so recoveries stop here instead of
  /// walking further back. Use inside iterative loops (PageRank,
  /// K-means) to bound both recovery cost and lineage depth. Any
  /// pending fused chain executes inside the write wave; the write is
  /// charged as a narrow stage whose shuffle_bytes are the serialized
  /// dataset size.
  StatusOr<Dataset> Checkpoint(const Dataset& in,
                               const std::string& label = "checkpoint");

  /// Action: combines all rows with `fn`; nullopt for an empty dataset.
  StatusOr<std::optional<Value>> Reduce(const Dataset& in, const ReduceFn& fn,
                                        const std::string& label = "reduce");
  /// Reduce with a built-in operator: when TypedFold covers the op,
  /// per-partition partials fold with native int64/double arithmetic
  /// (same arrival order, bit-identical results).
  StatusOr<std::optional<Value>> Reduce(const Dataset& in, BinOp op,
                                        const std::string& label = "reduce");

  /// Action: gathers all rows to the driver, in partition order (forcing
  /// any pending chain first).
  StatusOr<ValueVec> Collect(const Dataset& in);

  /// Action: the first row in partition order; error when empty.
  StatusOr<Value> First(const Dataset& in);

 private:
  /// A wide operator's description for RunWide, and one such operator's
  /// stage in flight (both defined in engine.cc).
  struct WideSpec;
  struct WideRun;

  /// Allocates the next task-wave id (the injector's stage coordinate).
  int NextStageId() { return next_stage_id_++; }

  /// One task of a wave: `fn(p, attempt, record)` runs partition p as
  /// simulated attempt `attempt`, writes the wave's slot p and reports
  /// what it measured in `record`, which starts empty every attempt.
  using TaskFn = std::function<Status(int, int, StageStats*)>;

  /// Runs one wave of tasks (one per entry of `task_work`) under the
  /// fault model, on up to config_.host_threads threads (the persistent
  /// pool). Every attempt goes through one TaskAttempts ledger: injected
  /// kills and TaskLost results are retried up to the budget with
  /// simulated backoff; genuine errors abort immediately, and the error
  /// of the lowest-indexed failing task is returned, so failures are
  /// reproducible across host_threads settings. `fn` must be
  /// restartable. Adds the wave's attempts, recovery seconds and pool
  /// tasks to `stats`, the record of the stage the wave belongs to, and
  /// returns each task's record of its successful attempt, for the
  /// caller to fold into `stats` with FoldTaskRecords. `slots` describes
  /// the per-task output slots `fn` writes; when EngineConfig::remote is
  /// set the wave runs on the remote backend, which marshals exactly
  /// those slots, and the records, back from the workers.
  StatusOr<std::vector<StageStats>> RunTaskWave(
      const std::string& label, int stage,
      const std::vector<int64_t>& task_work, const TaskFn& fn,
      StageStats* stats, WaveSlots slots);

  /// Remote dispatch of one task wave via EngineConfig::remote: builds
  /// the RemoteTaskWave closure bundle (worker-side `run`/encode,
  /// coordinator-side install, per-attempt and worker-loss hooks) around
  /// the wave's `attempts` ledger, and adds the backend's counters and
  /// the workers' peak RSS to `stats`.
  Status RunTaskWaveRemote(const std::string& label, int stage,
                           const std::vector<int64_t>& task_work,
                           const std::function<Status(int, int)>& run,
                           TaskAttempts* attempts, StageStats* stats,
                           const WaveSlots& slots, TraceRecorder* tr,
                           int64_t wave_span_id);

  /// Applies any one-shot lost-partition directives targeting
  /// (stage, input_index): rebuilds the lost partitions from `in`'s
  /// lineage in one LineageNode::recompute call, charging the
  /// recomputation to `stats`. The returned dataset keeps `in`'s pending
  /// fused chain. Returns `in` unchanged when nothing was lost.
  StatusOr<Dataset> RecoverInput(const Dataset& in, int stage,
                                 int input_index, StageStats* stats);

  /// The wide-stage wave (DESIGN.md §12) that groupByKey, reduceByKey,
  /// join and coGroup all instantiate: allocates the stage ids,
  /// recovers lost inputs, runs reduceByKey's map-side combine
  /// (CombineWave), scatters every input side (ScatterWave) and runs the
  /// salted per-destination finish (FinishWave), which records the stage
  /// once and builds its one lineage closure.
  StatusOr<Dataset> RunWide(const WideSpec& spec,
                            const std::vector<Dataset>& inputs);

  /// reduceByKey's map-side combine wave over run.inputs[0], folding each
  /// source partition (or contiguous chunk of a hot one) into the typed
  /// accumulator or the boxed one. Fills `boxed` or `typed` with the
  /// key-sorted partials per combine task and returns true when the
  /// output stays on the typed layout: only when no boxed rows are needed
  /// before the finish (no wire format, fault injection or remote
  /// backend) and every non-empty task stayed typed with one shape.
  StatusOr<bool> CombineWave(WideRun& run, int stage,
                             std::vector<HashedVec>* boxed,
                             std::vector<TypedRows>* typed);

  /// One shuffle wave over a row layout (HashedVec or TypedRows):
  /// `produce(p, scratch, record)` yields source task p's entries, each
  /// carrying its memoized key hash (the boxed producer fills `scratch`
  /// and reports its chain and columnar counters in the task's
  /// `record`); entry i goes to destination hash % num_partitions, with
  /// the wire-format round-trip and corruption injection on the boxed
  /// layout. Charges the moved bytes to run.stats (shuffle_bytes,
  /// partition_bytes) and appends the per-destination rows, sources
  /// concatenated in order, to `sides`.
  template <typename Rows>
  Status ScatterWave(
      WideRun& run, int stage, const std::vector<int64_t>& task_work,
      const std::function<StatusOr<const Rows*>(int, Rows*, StageStats*)>&
          produce,
      std::vector<std::vector<Rows>>* sides);

  /// The finish wave over the shuffled `sides`: salts side 0's hot
  /// destinations by the operator's policy, runs `finish` once per
  /// virtual task, un-salt merges, records the stage from what the
  /// finishes reported, and builds the output's lineage node.
  template <typename Rows>
  StatusOr<Dataset> FinishWave(
      WideRun& run, const std::vector<std::vector<Rows>>& sides,
      const std::function<StatusOr<ValueVec>(WideTask<Rows>&)>& finish);

  /// A narrow stage's per-partition body: `body(p, rows, tally, record)`
  /// runs the input's pending chain over source partition p's `rows`,
  /// writes the operator's slot p, records the chain's boundaries in
  /// `tally` and any counter of its own in the task's `record`.
  /// Restartable: every attempt resets its own outputs.
  using NarrowBody =
      std::function<Status(int, const ValueVec&, ChainTally*, StageStats*)>;

  /// The narrow-stage wave (DESIGN.md §8) that Force, Checkpoint and
  /// Reduce instantiate: opens the stage span, allocates the stage id,
  /// recovers the input, and runs `body` once per source partition under
  /// the fault model, marshalling `slots`. Each attempt's tally counts
  /// the chain's interior boundaries when the stage keeps its output
  /// rows (`keeps_rows`), and every boundary otherwise, and goes into
  /// the task's record. Folds map work, fused ops and the task records
  /// into the stage record, lets `add_counters` (nullable) add the
  /// operator's own, and records the stage. Returns the recovered input.
  StatusOr<Dataset> RunNarrow(
      const Dataset& in, const std::string& label, bool keeps_rows,
      WaveSlots slots, const NarrowBody& body,
      const std::function<void(StageStats*)>& add_counters = nullptr);

  /// Both Reduce overloads: a narrow wave folds each partition into a
  /// partial (natively first when `native_op` is non-null), then the
  /// driver folds the partials in partition order with `fn`.
  StatusOr<std::optional<Value>> Fold(const Dataset& in, const ReduceFn& fn,
                                      const BinOp* native_op,
                                      const std::string& label);

  /// Drains the pending cost decisions into `stats`, raises its peak RSS
  /// to the driver's own, and records the stage on the innermost open
  /// stage span.
  void FinishStage(StageStats stats);

  /// The tail every stage record goes through (FinishStage and
  /// RecordPlannerStage): stamps the provenance, writes the registry's
  /// stage series and trace span `span`'s fields (-1 = none) from the
  /// record, and appends it to metrics().
  void AddStage(StageStats stats, int64_t span);

  /// Builds a lineage node for a dataset produced by this engine. The
  /// recompute closure is only retained when fault injection is on.
  /// `depth_increment` is how many operators the node stands for (a
  /// fused stage advances depth by its whole chain length).
  std::shared_ptr<const LineageNode> MakeLineage(
      std::string kind, std::string label,
      std::vector<std::shared_ptr<const LineageNode>> parents,
      LineageNode::RecomputeFn recompute, int depth_increment) const;

  EngineConfig config_;
  Metrics metrics_;
  /// Built from config_.faults once the constructor has clamped it.
  FaultInjector injector_;
  int next_stage_id_ = 0;
  /// Created in the constructor when config_.tracing; never reassigned,
  /// so trace() is stable for the engine's lifetime.
  std::unique_ptr<TraceRecorder> trace_;
  /// Current statement scope (SwapProvenance), driver-side only.
  EngineProvenance provenance_;
  /// Profile-informed decisions since the last FinishStage (see
  /// RecordCostDecision).
  int64_t cost_decisions_pending_ = 0;
  /// Persistent worker pool, created lazily on the first multi-threaded
  /// wave and reused for the engine's whole lifetime.
  std::unique_ptr<WorkerPool> pool_;
  /// Partitions owed by workers that died mid-wave
  /// (EngineConfig::remote): registered by the remote
  /// backend's on_worker_lost hook, consumed by the next RecoverInput
  /// (input 0), which rebuilds them from lineage — real kills exercise
  /// the same recovery path as simulated losses.
  std::vector<int> pending_lost_partitions_;
};

}  // namespace diablo::runtime

#endif  // DIABLO_RUNTIME_ENGINE_H_
