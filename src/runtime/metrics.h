#ifndef DIABLO_RUNTIME_METRICS_H_
#define DIABLO_RUNTIME_METRICS_H_

#include <algorithm>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <variant>
#include <vector>

namespace diablo::runtime {

/// Execution statistics for one engine operator (one "stage").
///
/// Narrow operators (map, filter, flatMap) only have map-side work. Wide
/// operators (groupByKey, reduceByKey, join, coGroup) additionally move
/// `shuffle_bytes` across the simulated network and then perform
/// reduce-side work on the post-shuffle partitions.
///
/// The same struct is each task attempt's record: a task sets the
/// kStageCounters entries it measures, its `reduce_work` and its
/// `partition_bytes`, and FoldTaskRecords folds a wave's records into
/// the stage's. Under the distributed backend the record crosses the
/// wire with the task's output (runtime/wave_io.h).
struct StageStats {
  std::string label;
  bool wide = false;
  /// Work units (≈ rows touched) per map-side task.
  std::vector<int64_t> map_work;
  /// Work units per reduce-side task (empty for narrow stages).
  std::vector<int64_t> reduce_work;
  /// Approximate bytes exchanged between workers during the shuffle.
  int64_t shuffle_bytes = 0;
  /// Fault-tolerance accounting (runtime/fault.h). `attempts` counts
  /// every task attempt across the stage's internal waves (== the task
  /// count on a fault-free run; 0 for driver-side metadata stages).
  int64_t attempts = 0;
  /// Input partitions rebuilt from lineage before the stage could run.
  int64_t recomputed_partitions = 0;
  /// Simulated seconds spent on recovery: wasted work of failed
  /// attempts, retry backoff, straggler delay, and lineage
  /// recomputation — priced by the engine's own ClusterModel at
  /// execution time. SimulatedSeconds() includes it; the fault-free
  /// figure is SimulatedFaultFreeSeconds().
  double recovery_seconds = 0;
  /// Narrow-operator fusion accounting. `fused_ops` is the number of
  /// deferred narrow operators this stage executed element-by-element
  /// inside its task wave. The rows/bytes fields count the intermediate
  /// results a one-operator-per-stage engine would have built as full
  /// ValueVec datasets between those operators but which this stage
  /// streamed through without materializing (bytes are estimated from
  /// the first row crossing each operator boundary).
  int64_t fused_ops = 0;
  int64_t rows_not_materialized = 0;
  int64_t bytes_not_materialized = 0;
  /// Hash-aggregation accounting (runtime/keyed_accumulator.h). Rows
  /// inserted into open-addressing KeyedAccumulators while executing
  /// this stage (combine + reduce side), and distinct keys they
  /// produced. Both 0 when the stage has no keyed aggregation.
  int64_t hash_agg_rows = 0;
  int64_t hash_agg_keys = 0;
  /// Tasks this stage ran on the persistent work-stealing WorkerPool
  /// (0 when host_threads <= 1 or the waves were too small to
  /// parallelize).
  int64_t pool_tasks = 0;
  /// Columnar-execution accounting (runtime/column_batch.h).
  /// `columnar_batches` counts task partitions this stage ran through a
  /// typed path: a scatter that hashed a whole scalar key column, a
  /// typed reduceByKey combine or reduce, or a typed Reduce fold;
  /// `columnar_rows_fallback` counts rows that took the boxed per-row
  /// path instead (heterogeneous kinds, non-scalar keys, a native op's
  /// rows spilling mid-stream).
  int64_t columnar_batches = 0;
  int64_t columnar_rows_fallback = 0;
  /// Multi-process distributed backend accounting (src/dist/). Tasks
  /// dispatched to worker processes, task re-dispatches after a worker
  /// died mid-task, and worker processes lost (heartbeat timeout,
  /// deadline, crash, or chaos SIGKILL) while this stage ran. All 0
  /// when EngineConfig::remote is unset.
  int64_t dist_tasks = 0;
  int64_t dist_retries = 0;
  int64_t dist_workers_lost = 0;
  /// Adaptive-execution accounting (DESIGN.md §17, under
  /// EngineConfig::skew). `salted_keys` counts distinct keys whose rows
  /// were folded in more than one salted sub-task and re-merged by the
  /// un-salt stage; `salt_fanout` counts the extra sub-tasks skew
  /// mitigation created beyond the unmitigated task count;
  /// `cost_decisions` counts plan/engine decisions (broadcast-vs-hash
  /// join, partition count) that consulted a `--profile-in` prior-run
  /// profile. All 0 when mitigation never triggered and no profile was
  /// supplied.
  int64_t salted_keys = 0;
  int64_t salt_fanout = 0;
  int64_t cost_decisions = 0;
  /// Source provenance: the loop statement in the .diablo program this
  /// stage was translated from. `src_line == 0` means unknown (e.g. a
  /// stage run outside any statement scope). Reports render it as
  /// "label [file:line:col]".
  std::string src_file;
  int src_line = 0;
  int src_column = 0;
  /// Output rows per partition after the stage ran (per-partition skew
  /// histograms in the profile export; may be empty for driver-side
  /// metadata stages).
  std::vector<int64_t> partition_rows;
  /// Shuffle bytes received per destination partition (empty for narrow
  /// stages; sums to shuffle_bytes for shuffling stages).
  std::vector<int64_t> partition_bytes;
  /// Memory watermarks (cluster telemetry, DESIGN.md §18).
  /// `peak_rss_bytes` is the coordinator process's peak RSS (getrusage
  /// ru_maxrss) sampled when the stage finished — monotone over the run,
  /// so the per-stage series shows which stage first pushed the
  /// high-water mark. `accumulator_bytes_peak` is the largest estimated
  /// footprint of a single KeyedAccumulator / TypedReduceAccumulator any
  /// task of this stage filled (max across tasks; under the distributed
  /// backend it crosses the wire in the task's record, so it reflects
  /// worker-side memory). On a distributed run `peak_rss_bytes` is also
  /// raised to the highest worker peak RSS the stage's task results
  /// reported.
  int64_t peak_rss_bytes = 0;
  int64_t accumulator_bytes_peak = 0;
};

class Metrics;

/// One numeric counter of StageStats, as every export renders it: the
/// profile JSON writes it under `name` in the run totals and in each
/// stage object, and the text reports print it as `name=value`.
struct StageCounter {
  /// How the counter folds over the stages of a run. Memory watermarks
  /// are maxima (RSS is monotone, accumulators are per-task peaks);
  /// every other counter is a sum.
  enum class Fold { kSum, kMax };
  const char* name;
  std::variant<int64_t StageStats::*, double StageStats::*> member;
  Fold fold = Fold::kSum;

  /// The counter of one stage: integers in full, reals as %.6g.
  std::string Format(const StageStats& stage) const;
  /// Folds `from`'s counter into `into`'s: added, or maxed for kMax.
  void FoldInto(const StageStats& from, StageStats* into) const;
  /// The counter folded over every stage of `metrics`, formatted alike.
  std::string FormatTotal(const Metrics& metrics) const;
  bool IsZero(const StageStats& stage) const;
};

/// The counter table, in export order. A counter added to StageStats and
/// listed here reaches the profile totals, each profile stage object,
/// --plan-report and --explain-analyze without further code.
inline constexpr StageCounter kStageCounters[] = {
    {"shuffle_bytes", &StageStats::shuffle_bytes},
    {"attempts", &StageStats::attempts},
    {"recomputed_partitions", &StageStats::recomputed_partitions},
    {"recovery_seconds", &StageStats::recovery_seconds},
    {"fused_ops", &StageStats::fused_ops},
    {"rows_not_materialized", &StageStats::rows_not_materialized},
    {"bytes_not_materialized", &StageStats::bytes_not_materialized},
    {"hash_agg_rows", &StageStats::hash_agg_rows},
    {"hash_agg_keys", &StageStats::hash_agg_keys},
    {"pool_tasks", &StageStats::pool_tasks},
    {"columnar_batches", &StageStats::columnar_batches},
    {"columnar_rows_fallback", &StageStats::columnar_rows_fallback},
    {"salted_keys", &StageStats::salted_keys},
    {"salt_fanout", &StageStats::salt_fanout},
    {"cost_decisions", &StageStats::cost_decisions},
    {"dist_tasks", &StageStats::dist_tasks},
    {"dist_retries", &StageStats::dist_retries},
    {"dist_workers_lost", &StageStats::dist_workers_lost},
    {"peak_rss_bytes", &StageStats::peak_rss_bytes, StageCounter::Fold::kMax},
    {"accumulator_bytes_peak", &StageStats::accumulator_bytes_peak,
     StageCounter::Fold::kMax},
};

/// Folds the records of one wave's tasks into their stage's record, in
/// task order: every kStageCounters entry by its Fold, each task's
/// reduce_work appended, and partition_bytes added per destination.
void FoldTaskRecords(const std::vector<StageStats>& tasks, StageStats* stage);

/// The one counter line of a stage in the text reports (Metrics::Report,
/// WriteExplainAnalyze): `map_work=M reduce_work=R`, then ` name=value`
/// for every nonzero summed counter. Watermarks are left out, so the
/// line is identical for identical runs.
void WriteStageCounters(const StageStats& stage, std::ostream& os);

/// Parameters of the deterministic cluster cost model.
///
/// The engine executes on the local host but *accounts* as if tasks were
/// spread over `num_workers` machines: each stage costs the makespan of a
/// longest-processing-time assignment of its tasks to workers, plus a
/// network term for shuffled bytes, plus a fixed scheduling latency for
/// wide stages. This reproduces the relative performance of competing
/// plans (fewer shuffles / less data moved => faster) without real
/// hardware; see DESIGN.md §3.
struct ClusterModel {
  int num_workers = 4;
  /// Seconds of simulated compute per work unit (row). Calibrated near
  /// Spark's per-row deserialization+closure overhead so that row counts,
  /// not stage latencies, dominate at benchmark scale.
  double seconds_per_work_unit = 200e-9;
  /// Seconds of simulated network transfer per shuffled byte (aggregate
  /// cluster bandwidth is num_workers / seconds_per_byte).
  double seconds_per_shuffle_byte = 20e-9;
  /// Fixed scheduling/coordination latency charged per wide stage.
  double wide_stage_latency_seconds = 5e-3;
  /// Fixed latency charged per narrow stage (task launch overhead).
  double narrow_stage_latency_seconds = 5e-4;
};

/// Accumulates per-stage statistics for a run and evaluates the cluster
/// cost model over them.
class Metrics {
 public:
  void AddStage(StageStats stage) { stages_.push_back(std::move(stage)); }
  void Clear() { stages_.clear(); }

  const std::vector<StageStats>& stages() const { return stages_; }
  int64_t num_stages() const { return static_cast<int64_t>(stages_.size()); }
  int64_t num_wide_stages() const;
  int64_t total_work() const;

  /// A StageStats counter summed over all stages, in stage order.
  template <typename T>
  T Sum(T StageStats::*member) const {
    T total = 0;
    for (const auto& s : stages_) total += s.*member;
    return total;
  }
  /// A StageStats counter's largest value over all stages (0 when none).
  template <typename T>
  T Max(T StageStats::*member) const {
    T high = 0;
    for (const auto& s : stages_) high = std::max(high, s.*member);
    return high;
  }

  /// Run totals of the kStageCounters entries (see StageStats).
  int64_t total_shuffle_bytes() const {
    return Sum(&StageStats::shuffle_bytes);
  }
  int64_t total_attempts() const { return Sum(&StageStats::attempts); }
  int64_t total_recomputed_partitions() const {
    return Sum(&StageStats::recomputed_partitions);
  }
  double total_recovery_seconds() const {
    return Sum(&StageStats::recovery_seconds);
  }
  int64_t total_fused_ops() const { return Sum(&StageStats::fused_ops); }
  int64_t total_rows_not_materialized() const {
    return Sum(&StageStats::rows_not_materialized);
  }
  int64_t total_bytes_not_materialized() const {
    return Sum(&StageStats::bytes_not_materialized);
  }
  int64_t total_hash_agg_rows() const {
    return Sum(&StageStats::hash_agg_rows);
  }
  int64_t total_hash_agg_keys() const {
    return Sum(&StageStats::hash_agg_keys);
  }
  int64_t total_pool_tasks() const { return Sum(&StageStats::pool_tasks); }
  int64_t total_columnar_batches() const {
    return Sum(&StageStats::columnar_batches);
  }
  int64_t total_columnar_rows_fallback() const {
    return Sum(&StageStats::columnar_rows_fallback);
  }
  int64_t total_dist_tasks() const { return Sum(&StageStats::dist_tasks); }
  int64_t total_dist_retries() const { return Sum(&StageStats::dist_retries); }
  int64_t total_dist_workers_lost() const {
    return Sum(&StageStats::dist_workers_lost);
  }
  int64_t total_salted_keys() const { return Sum(&StageStats::salted_keys); }
  int64_t total_salt_fanout() const { return Sum(&StageStats::salt_fanout); }
  int64_t total_cost_decisions() const {
    return Sum(&StageStats::cost_decisions);
  }
  int64_t max_peak_rss_bytes() const {
    return Max(&StageStats::peak_rss_bytes);
  }
  int64_t max_accumulator_bytes_peak() const {
    return Max(&StageStats::accumulator_bytes_peak);
  }

  /// Simulated wall-clock seconds on a cluster described by `model`,
  /// recovery overhead included.
  double SimulatedSeconds(const ClusterModel& model) const;

  /// The same run priced as if no fault had fired (recovery excluded);
  /// SimulatedSeconds() - SimulatedFaultFreeSeconds() is the recovery
  /// overhead the fault model charges.
  double SimulatedFaultFreeSeconds(const ClusterModel& model) const;

  /// One line per stage: kind, label, source location, then the stage's
  /// WriteStageCounters line.
  std::string Report() const;

 private:
  std::vector<StageStats> stages_;
};

/// Makespan of assigning `tasks` (work units) to `workers` identical
/// workers using the longest-processing-time greedy rule.
int64_t LptMakespan(std::vector<int64_t> tasks, int workers);

}  // namespace diablo::runtime

#endif  // DIABLO_RUNTIME_METRICS_H_
