// Fault-tolerance tests: deterministic injection, retry budgets,
// lineage-based recomputation, checkpoint truncation, and the central
// invariant — any run that completes under fault injection produces
// results identical (bit for bit, floating point included) to the
// fault-free run.

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>

#include "common/strings.h"
#include "runtime/engine.h"
#include "runtime/fault.h"
#include "runtime/serialize.h"
#include "workloads/harness.h"
#include "workloads/programs.h"

namespace diablo::runtime {
namespace {

Value I(int64_t v) { return Value::MakeInt(v); }

ValueVec KeyedRows(int n, int keys) {
  ValueVec rows;
  for (int i = 0; i < n; ++i) {
    rows.push_back(Value::MakePair(I(i % keys), Value::MakeDouble(0.1 * i)));
  }
  return rows;
}

/// A pipeline mixing narrow and wide operators, returning the collected
/// (deterministically ordered) result.
StatusOr<ValueVec> RunPipeline(Engine& engine, const ValueVec& rows) {
  Dataset ds = engine.Parallelize(rows);
  DIABLO_ASSIGN_OR_RETURN(
      Dataset scaled, engine.Map(ds, [](const Value& v) -> StatusOr<Value> {
        return Value::MakePair(
            v.tuple()[0],
            Value::MakeDouble(v.tuple()[1].AsDouble() * 1.5 + 1.0));
      }, "pl.scale"));
  DIABLO_ASSIGN_OR_RETURN(Dataset sums,
                          engine.ReduceByKey(scaled, BinOp::kAdd, "pl.sum"));
  DIABLO_ASSIGN_OR_RETURN(Dataset grouped, engine.GroupByKey(scaled, "pl.grp"));
  DIABLO_ASSIGN_OR_RETURN(
      Dataset sizes,
      engine.Map(grouped, [](const Value& row) -> StatusOr<Value> {
        return Value::MakePair(
            row.tuple()[0],
            I(static_cast<int64_t>(row.tuple()[1].bag().size())));
      }, "pl.size"));
  DIABLO_ASSIGN_OR_RETURN(Dataset joined,
                          engine.Join(sums, sizes, "pl.join"));
  return engine.Collect(joined);
}

FaultConfig MixedFaults(uint64_t seed) {
  FaultConfig faults;
  faults.seed = seed;
  faults.task_failure_rate = 0.08;
  faults.straggler_rate = 0.05;
  faults.max_task_attempts = 8;
  return faults;
}

TEST(FaultTolerance, FaultyRunMatchesFaultFreeRun) {
  ValueVec rows = KeyedRows(300, 11);
  Engine clean{EngineConfig{}};
  auto expected = RunPipeline(clean, rows);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();

  EngineConfig config;
  config.faults = MixedFaults(7);
  Engine faulty(config);
  auto got = RunPipeline(faulty, rows);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  // Bit-identical, not approximately equal.
  EXPECT_EQ(*got, *expected);
  // Faults actually fired: more attempts than tasks.
  EXPECT_GT(faulty.metrics().total_attempts(), clean.metrics().total_attempts());
  EXPECT_GT(faulty.metrics().total_recovery_seconds(), 0.0);
  // Recovery is charged on top of the fault-free figure.
  EXPECT_DOUBLE_EQ(faulty.metrics().SimulatedSeconds(config.cluster),
                   faulty.metrics().SimulatedFaultFreeSeconds(config.cluster) +
                       faulty.metrics().total_recovery_seconds());
}

TEST(FaultTolerance, FixedSeedIsFullyDeterministic) {
  ValueVec rows = KeyedRows(200, 13);
  auto run = [&](int threads) {
    EngineConfig config;
    config.host_threads = threads;
    config.faults = MixedFaults(42);
    Engine engine(config);
    auto out = RunPipeline(engine, rows);
    EXPECT_TRUE(out.ok()) << out.status().ToString();
    return std::make_tuple(out.ok() ? *out : ValueVec{},
                           engine.metrics().total_attempts(),
                           engine.metrics().total_recomputed_partitions(),
                           engine.metrics().total_recovery_seconds(),
                           engine.metrics().SimulatedSeconds(config.cluster));
  };
  auto first = run(1);
  auto second = run(1);
  // Two runs, same seed: identical results, attempts, recomputations,
  // and simulated cost.
  EXPECT_EQ(first, second);
  // Thread interleaving must not leak into anything observable either:
  // injector draws are keyed by coordinates, not by execution order.
  auto threaded = run(8);
  EXPECT_EQ(first, threaded);
}

TEST(FaultTolerance, DifferentSeedsGiveSameResultsDifferentSchedules) {
  ValueVec rows = KeyedRows(200, 13);
  EngineConfig a_config;
  a_config.faults = MixedFaults(1);
  EngineConfig b_config;
  b_config.faults = MixedFaults(2);
  Engine a(a_config), b(b_config);
  auto a_out = RunPipeline(a, rows);
  auto b_out = RunPipeline(b, rows);
  ASSERT_TRUE(a_out.ok() && b_out.ok());
  EXPECT_EQ(*a_out, *b_out);  // results never depend on the seed
}

TEST(FaultTolerance, KillDirectiveRetriesAndRecovers) {
  ValueVec rows = KeyedRows(50, 5);
  Engine clean{EngineConfig{}};
  auto expected = RunPipeline(clean, rows);
  ASSERT_TRUE(expected.ok());

  EngineConfig config;
  config.faults.kill_tasks.push_back({/*stage=*/0, /*partition=*/3});
  Engine engine(config);
  auto got = RunPipeline(engine, rows);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(*got, *expected);
  // Exactly one extra attempt across the whole run.
  EXPECT_EQ(engine.metrics().total_attempts(),
            clean.metrics().total_attempts() + 1);
  EXPECT_GT(engine.metrics().total_recovery_seconds(), 0.0);
}

TEST(FaultTolerance, LostPartitionIsRecomputedFromLineage) {
  ValueVec rows = KeyedRows(100, 7);
  Engine clean{EngineConfig{}};
  auto expected = RunPipeline(clean, rows);
  ASSERT_TRUE(expected.ok());

  // Stage ids in RunPipeline under fusion: pl.scale and pl.size are
  // deferred, so 0-2 are pl.sum (combine/shuffle/reduce), 3-4 are pl.grp
  // (shuffle/group) and 5-7 are pl.join. Losing the sizes-side input of
  // the join (input 1 of stage 5) forces the engine to rebuild the lost
  // grouped partition from pl.grp's lineage — a single-pass recompute,
  // not a durable re-read — and replay the pending pl.size chain on it.
  EngineConfig config;
  config.faults.lose_partitions.push_back(
      {/*stage=*/5, /*partition=*/2, /*input_index=*/1});
  Engine engine(config);
  auto got = RunPipeline(engine, rows);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(*got, *expected);
  EXPECT_EQ(engine.metrics().total_recomputed_partitions(), 1);
  EXPECT_GT(engine.metrics().total_recovery_seconds(), 0.0);
}

TEST(FaultTolerance, LostForcedPartitionIsReplayedThroughItsChain) {
  // Force runs a pending map+filter as stage 0; losing input partition 2
  // of the reduceByKey that consumes it (stage 1) replays that chain on
  // the partition's source rows through the Force stage's lineage.
  auto run = [](const EngineConfig& config) -> StatusOr<std::string> {
    Engine engine(config);
    Dataset ds = engine.Parallelize(KeyedRows(120, 9));
    DIABLO_ASSIGN_OR_RETURN(
        Dataset scaled,
        engine.Map(ds, [](const Value& v) -> StatusOr<Value> {
          return Value::MakePair(
              v.tuple()[0], Value::MakeDouble(v.tuple()[1].AsDouble() * 0.7));
        }));
    DIABLO_ASSIGN_OR_RETURN(
        Dataset kept,
        engine.Filter(scaled, [](const Value& v) -> StatusOr<bool> {
          return v.tuple()[0].AsInt() != 4;
        }));
    DIABLO_ASSIGN_OR_RETURN(Dataset forced, engine.Force(kept));
    if (forced.partition(2).empty()) {
      return Status::RuntimeError("partition 2 holds no rows to replay");
    }
    DIABLO_ASSIGN_OR_RETURN(Dataset sums,
                            engine.ReduceByKey(forced, BinOp::kAdd));
    DIABLO_ASSIGN_OR_RETURN(ValueVec rows, engine.Collect(sums));
    if (engine.metrics().total_recomputed_partitions() !=
        (config.faults.enabled() ? 1 : 0)) {
      return Status::RuntimeError(
          StrCat("recomputed ", engine.metrics().total_recomputed_partitions(),
                 " partitions"));
    }
    std::string bytes;
    for (const Value& v : rows) bytes += Serialize(v);
    return bytes;
  };
  auto expected = run(EngineConfig{});
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();
  EngineConfig config;
  config.faults.lose_partitions.push_back(
      {/*stage=*/1, /*partition=*/2, /*input_index=*/0});
  auto got = run(config);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(*got, *expected);
}

TEST(FaultTolerance, LostSourcePartitionIsRereadDurably) {
  ValueVec rows = KeyedRows(60, 6);
  Engine clean{EngineConfig{}};
  auto expected = RunPipeline(clean, rows);
  ASSERT_TRUE(expected.ok());

  // Stage 0 reads the parallelized source directly: durable lineage.
  EngineConfig config;
  config.faults.lose_partitions.push_back({0, 1, 0});
  Engine engine(config);
  auto got = RunPipeline(engine, rows);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(*got, *expected);
  EXPECT_EQ(engine.metrics().total_recomputed_partitions(), 1);
}

TEST(FaultTolerance, ExhaustedRetryBudgetNamesStagePartitionAndAttempts) {
  EngineConfig config;
  config.faults.task_failure_rate = 1.0;  // every attempt dies
  config.faults.max_task_attempts = 3;
  Engine engine(config);
  Dataset ds = engine.Parallelize(KeyedRows(40, 4));
  auto mapped = engine.Map(
      ds, [](const Value& v) -> StatusOr<Value> { return v; }, "doomed.map");
  ASSERT_TRUE(mapped.ok());  // deferred: the doomed wave runs at the action
  auto result = engine.Collect(*mapped);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kRuntimeError);
  const std::string& msg = result.status().message();
  EXPECT_NE(msg.find("doomed.map"), std::string::npos) << msg;
  EXPECT_NE(msg.find("partition"), std::string::npos) << msg;
  EXPECT_NE(msg.find("3 attempts"), std::string::npos) << msg;
  EXPECT_NE(msg.find("retry budget"), std::string::npos) << msg;
}

TEST(FaultTolerance, GenuineErrorsAreNotRetried) {
  EngineConfig config;
  config.faults = MixedFaults(3);
  config.faults.task_failure_rate = 0.0;  // keep the schedule quiet
  Engine engine(config);
  Dataset ds = engine.Range(0, 9);
  auto mapped = engine.Map(ds, [](const Value& v) -> StatusOr<Value> {
    if (v.AsInt() == 7) return Status::RuntimeError("boom");
    return v;
  });
  ASSERT_TRUE(mapped.ok());
  auto result = engine.Collect(*mapped);
  ASSERT_FALSE(result.ok());
  // Propagated verbatim — no retry wrapper, no budget message.
  EXPECT_EQ(result.status().message(), "boom");
}

TEST(FaultTolerance, CorruptedShufflePayloadsAreDetectedAndRetried) {
  ValueVec rows = KeyedRows(2000, 9);
  EngineConfig clean_config;
  clean_config.serialize_shuffles = true;
  Engine clean(clean_config);
  auto expected = RunPipeline(clean, rows);
  ASSERT_TRUE(expected.ok());

  EngineConfig config;
  config.serialize_shuffles = true;
  config.faults.seed = 11;
  config.faults.corrupt_shuffle_rate = 0.002;
  config.faults.max_task_attempts = 10;
  Engine engine(config);
  auto got = RunPipeline(engine, rows);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(*got, *expected);
  EXPECT_GT(engine.metrics().total_attempts(),
            clean.metrics().total_attempts());
}

TEST(FaultTolerance, CheckpointTruncatesLineageDepth) {
  EngineConfig config;
  config.faults = MixedFaults(5);
  config.faults.task_failure_rate = 0.0;
  Engine engine(config);
  Dataset ds = engine.Parallelize(KeyedRows(40, 4));
  EXPECT_EQ(ds.lineage_depth(), 0);  // sources are durable
  for (int i = 0; i < 3; ++i) {
    auto next = engine.Map(ds, [](const Value& v) -> StatusOr<Value> {
      return v;
    });
    ASSERT_TRUE(next.ok());
    ds = *next;
  }
  EXPECT_EQ(ds.lineage_depth(), 3);
  auto ckpt = engine.Checkpoint(ds);
  ASSERT_TRUE(ckpt.ok());
  EXPECT_EQ(ckpt->lineage_depth(), 0);
  EXPECT_TRUE(ckpt->lineage()->durable);
  EXPECT_EQ(ckpt->TotalRows(), ds.TotalRows());
  // The write is charged: one narrow stage with the serialized bytes.
  const StageStats& stage = engine.metrics().stages().back();
  EXPECT_EQ(stage.label, "checkpoint");
  EXPECT_GT(stage.shuffle_bytes, 0);
}

TEST(FaultTolerance, RecoveryAfterCheckpointReadsTheCheckpoint) {
  ValueVec rows = KeyedRows(80, 8);
  // Clean reference of map -> checkpoint -> map.
  auto run = [&](EngineConfig config) -> StatusOr<ValueVec> {
    Engine engine(config);
    Dataset ds = engine.Parallelize(rows);
    DIABLO_ASSIGN_OR_RETURN(
        Dataset a, engine.Map(ds, [](const Value& v) -> StatusOr<Value> {
          return Value::MakePair(v.tuple()[0],
                                 Value::MakeDouble(v.tuple()[1].AsDouble() * 2));
        }));                                       // deferred into stage 0
    DIABLO_ASSIGN_OR_RETURN(Dataset c, engine.Checkpoint(a));  // stage 0
    DIABLO_ASSIGN_OR_RETURN(
        Dataset b, engine.Map(c, [](const Value& v) -> StatusOr<Value> {
          return Value::MakePair(v.tuple()[0],
                                 Value::MakeDouble(v.tuple()[1].AsDouble() + 1));
        }));                                       // deferred into stage 1
    return engine.Collect(b);
  };
  auto expected = run(EngineConfig{});
  ASSERT_TRUE(expected.ok());
  EngineConfig config;
  // The checkpointed input of the collecting stage is lost: recovery is
  // a durable re-read, never a recomputation of the first map.
  config.faults.lose_partitions.push_back({1, 4, 0});
  auto got = run(config);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(*got, *expected);
}

// ---------------------------------------------------------------------------
// Workload-level invariants: hand-written Figure-3 programs and the
// compiled (DIABLO-translated) path, including the iterative PageRank
// which checkpoints its loop-carried ranks under injection.

class FaultWorkloadTest : public ::testing::TestWithParam<const char*> {};

TEST_P(FaultWorkloadTest, HandwrittenFaultyMatchesFaultFree) {
  const auto& spec = diablo::bench::GetProgram(GetParam());
  std::mt19937_64 rng(17);
  diablo::Bindings inputs = spec.make_inputs(
      std::string(GetParam()) == "pagerank" ? 8 : 2000, rng);

  EngineConfig clean;
  auto expected = diablo::bench::MeasureHandwritten(spec, inputs, clean);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();

  EngineConfig config;
  config.faults.seed = 29;
  config.faults.task_failure_rate = 0.05;
  config.faults.straggler_rate = 0.05;
  config.faults.max_task_attempts = 8;
  auto faulty = diablo::bench::MeasureHandwritten(spec, inputs, config);
  ASSERT_TRUE(faulty.ok()) << faulty.status().ToString();
  EXPECT_EQ(faulty->output, expected->output) << GetParam();
  EXPECT_GT(faulty->attempts, expected->attempts);
  EXPECT_GT(faulty->recovery_seconds, 0.0);
  EXPECT_DOUBLE_EQ(faulty->simulated_seconds,
                   faulty->fault_free_seconds + faulty->recovery_seconds);
}

INSTANTIATE_TEST_SUITE_P(Workloads, FaultWorkloadTest,
                         ::testing::Values("word_count", "group_by", "kmeans",
                                           "pagerank"),
                         [](const ::testing::TestParamInfo<const char*>& info) {
                           return std::string(info.param);
                         });

TEST(FaultTolerance, CompiledProgramSurvivesInjection) {
  const auto& spec = diablo::bench::GetProgram("pagerank");
  std::mt19937_64 rng(17);
  diablo::Bindings inputs = spec.make_inputs(8, rng);

  EngineConfig clean;
  auto expected = diablo::bench::RunDiablo(spec, inputs, clean);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();

  EngineConfig config;
  config.faults.seed = 31;
  config.faults.task_failure_rate = 0.03;
  config.faults.max_task_attempts = 8;
  // Force the executor's automatic loop checkpointing to kick in early.
  config.faults.lineage_checkpoint_depth = 4;
  auto faulty = diablo::bench::RunDiablo(spec, inputs, config);
  ASSERT_TRUE(faulty.ok()) << faulty.status().ToString();
  EXPECT_EQ(faulty->output, expected->output);
  EXPECT_GT(faulty->attempts, expected->attempts);
}

// ---------------------------------------------------------------------------
// Lineage recovery of each wide operator's OUTPUT. The stage consuming
// the result finds some of its partitions lost, so the engine must
// rebuild them through that operator's lineage replay (never a
// durable re-read), and the run must stay byte-identical to the
// fault-free one.

enum class WideOp { kGroupByKey, kReduceByKey, kJoin, kCoGroup };

/// How the operator's output is consumed, and as which input index of
/// the consuming stage the lost partitions are addressed.
enum class Consumer { kCheckpoint, kJoinLeft, kJoinRight, kCoGroupLeft,
                      kCoGroupRight };

/// Stage ids (task waves) a wide operator consumes: shuffle + reduce,
/// plus the combine of reduceByKey or the second shuffle of join and
/// coGroup. The consuming stage's id is this count.
int WaveCount(WideOp op) {
  return op == WideOp::kGroupByKey ? 2 : 3;
}

/// Left input: double payloads whose float sums depend on fold order.
ValueVec RecoveryLeftRows() {
  ValueVec rows;
  for (int i = 0; i < 400; ++i) {
    rows.push_back(
        Value::MakePair(I(i % 19), Value::MakeDouble(0.1 * (i % 57))));
  }
  return rows;
}

/// Right input: int payloads over keys partly absent from the left.
ValueVec RecoveryRightRows() {
  ValueVec rows;
  for (int i = 0; i < 200; ++i) {
    rows.push_back(Value::MakePair(I(i % 23), I(i)));
  }
  return rows;
}

struct RecoveryRun {
  std::string bytes;  ///< serialized rows of the consumer's output
  std::vector<size_t> op_rows;  ///< rows per partition of op's output
  int64_t recomputed = 0;
};

/// Runs `op` over the two inputs — each carrying its own pending map
/// over the values that the replay must re-apply, the left one spread over 5
/// source partitions — then consumes the result with `consumer`. Every
/// partition in `lost` of op's output is lost when the consuming stage
/// starts.
StatusOr<RecoveryRun> RunWithLostOutput(WideOp op, Consumer consumer,
                                        const std::vector<int>& lost) {
  const int input =
      consumer == Consumer::kJoinRight || consumer == Consumer::kCoGroupRight
          ? 1
          : 0;
  EngineConfig config;
  config.num_partitions = 6;
  for (int p : lost) {
    config.faults.lose_partitions.push_back({WaveCount(op), p, input});
  }
  Engine engine(config);
  DIABLO_ASSIGN_OR_RETURN(
      Dataset left,
      engine.Map(engine.Parallelize(RecoveryLeftRows(), 5),
                 [](const Value& row) -> StatusOr<Value> {
                   return Value::MakePair(
                       row.tuple()[0],
                       Value::MakeDouble(row.tuple()[1].AsDouble() * 1.5 +
                                         0.25));
                 }));
  DIABLO_ASSIGN_OR_RETURN(
      Dataset right,
      engine.Map(engine.Parallelize(RecoveryRightRows(), 4),
                 [](const Value& row) -> StatusOr<Value> {
                   return Value::MakePair(row.tuple()[0],
                                          I(row.tuple()[1].AsInt() * 2 + 1));
                 }));
  StatusOr<Dataset> out = Status::RuntimeError("unknown operator");
  switch (op) {
    case WideOp::kGroupByKey:
      out = engine.GroupByKey(left);
      break;
    case WideOp::kReduceByKey:
      out = engine.ReduceByKey(left, BinOp::kAdd);
      break;
    case WideOp::kJoin:
      out = engine.Join(left, right);
      break;
    case WideOp::kCoGroup:
      out = engine.CoGroup(left, right);
      break;
  }
  if (!out.ok()) return out.status();
  RecoveryRun run;
  for (const ValueVec& part : out->partitions()) {
    run.op_rows.push_back(part.size());
  }
  ValueVec probe_rows;
  for (int k = 0; k < 23; ++k) {
    probe_rows.push_back(Value::MakePair(I(k), Value::MakeString("p")));
  }
  Dataset probe = engine.Parallelize(probe_rows);
  StatusOr<Dataset> consumed = Status::RuntimeError("unknown consumer");
  switch (consumer) {
    case Consumer::kCheckpoint:
      consumed = engine.Checkpoint(*out);
      break;
    case Consumer::kJoinLeft:
      consumed = engine.Join(*out, probe);
      break;
    case Consumer::kJoinRight:
      consumed = engine.Join(probe, *out);
      break;
    case Consumer::kCoGroupLeft:
      consumed = engine.CoGroup(*out, probe);
      break;
    case Consumer::kCoGroupRight:
      consumed = engine.CoGroup(probe, *out);
      break;
  }
  if (!consumed.ok()) return consumed.status();
  DIABLO_ASSIGN_OR_RETURN(ValueVec rows, engine.Collect(*consumed));
  for (const Value& v : rows) run.bytes += Serialize(v);
  run.recomputed = engine.metrics().total_recomputed_partitions();
  return run;
}

void ExpectLostOutputRebuilt(WideOp op) {
  const std::vector<int> lost = {1, 4};
  for (Consumer consumer :
       {Consumer::kCheckpoint, Consumer::kJoinLeft, Consumer::kJoinRight,
        Consumer::kCoGroupLeft, Consumer::kCoGroupRight}) {
    SCOPED_TRACE("consumer " + std::to_string(static_cast<int>(consumer)));
    auto clean = RunWithLostOutput(op, consumer, {});
    ASSERT_TRUE(clean.ok()) << clean.status().ToString();
    EXPECT_EQ(clean->recomputed, 0);
    // The replay must have rows to rebuild, or the check proves nothing.
    for (int p : lost) ASSERT_GT(clean->op_rows[p], 0u) << "partition " << p;
    auto got = RunWithLostOutput(op, consumer, lost);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(got->bytes, clean->bytes);
    EXPECT_EQ(got->op_rows, clean->op_rows);
    EXPECT_EQ(got->recomputed, static_cast<int64_t>(lost.size()));
  }
}

TEST(WideRecovery, GroupByKeyOutputRebuiltFromLineage) {
  ExpectLostOutputRebuilt(WideOp::kGroupByKey);
}

TEST(WideRecovery, ReduceByKeyDoubleOutputRebuiltFromLineage) {
  // Double payloads over 5 source partitions: the replay must fold each
  // source's partials and then merge them in source order, exactly like
  // the forward combine and reduce, or the sums drift in the last bit.
  ExpectLostOutputRebuilt(WideOp::kReduceByKey);
}

TEST(WideRecovery, JoinOutputRebuiltFromLineage) {
  ExpectLostOutputRebuilt(WideOp::kJoin);
}

TEST(WideRecovery, CoGroupOutputRebuiltFromLineage) {
  ExpectLostOutputRebuilt(WideOp::kCoGroup);
}

}  // namespace
}  // namespace diablo::runtime
