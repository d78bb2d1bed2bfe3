// Hash-aggregation and worker-pool property tests.
//
// The engine's wide operators aggregate through the open-addressing
// KeyedAccumulator. The contract: every output partition is
// byte-identical to a test-local ordered std::map model of the operator
// for every key type, partition count, host thread count and fault
// schedule — hash-table iteration order must never be observable. The
// persistent work-stealing pool carries a matching contract: every
// index runs exactly once and a failing wave reports the error of the
// lowest-indexed failing task no matter how many threads raced.

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "common/strings.h"
#include "runtime/engine.h"
#include "runtime/fault.h"
#include "runtime/keyed_accumulator.h"
#include "runtime/serialize.h"
#include "runtime/worker_pool.h"

namespace diablo::runtime {
namespace {

Value I(int64_t v) { return Value::MakeInt(v); }
Value D(double v) { return Value::MakeDouble(v); }
Value S(const std::string& v) { return Value::MakeString(v); }

// ---------------------------------------------------------------------
// KeyedAccumulator unit tests.

TEST(KeyedAccumulator, FindOrCreateGroupsAndGrows) {
  // Start far below the final key count so Grow() runs several times;
  // growth must keep every cached-hash bucket reachable.
  KeyedAccumulator<int64_t> acc(/*expected_keys=*/0);
  for (int64_t i = 0; i < 500; ++i) {
    const Value key = I(i % 101);
    auto ref = acc.FindOrCreate(key.Hash(), key);
    if (ref.inserted) ref.payload = 0;
    ref.payload += 1;
  }
  EXPECT_EQ(acc.size(), 101u);
  for (int64_t k = 0; k < 101; ++k) {
    const Value key = I(k);
    int64_t* count = acc.Find(key.Hash(), key);
    ASSERT_NE(count, nullptr) << "key " << k;
    // 500 draws over 101 keys: keys 0..95 appear 5 times, the rest 4.
    EXPECT_EQ(*count, k < 96 ? 5 : 4) << "key " << k;
  }
  const Value absent = I(101);
  EXPECT_EQ(acc.Find(absent.Hash(), absent), nullptr);
}

TEST(KeyedAccumulator, SortByKeyCanonicalizesAndStaysUsable) {
  KeyedAccumulator<int64_t> acc;
  std::mt19937_64 rng(7);
  std::vector<int64_t> keys{9, 3, 14, 0, 7, 11, 2};
  std::shuffle(keys.begin(), keys.end(), rng);
  for (int64_t k : keys) {
    const Value key = I(k);
    acc.FindOrCreate(key.Hash(), key).payload = k * 10;
  }
  acc.SortByKey();
  std::sort(keys.begin(), keys.end());
  ASSERT_EQ(acc.entries().size(), keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(acc.entries()[i].key, I(keys[i]));
  }
  // The probe table is rebuilt after the sort: lookups still hit.
  for (int64_t k : keys) {
    const Value key = I(k);
    int64_t* payload = acc.Find(key.Hash(), key);
    ASSERT_NE(payload, nullptr);
    EXPECT_EQ(*payload, k * 10);
  }
}

TEST(KeyedAccumulator, StructuralKeysCompareByValueNotHash) {
  // Tuple keys exercise the equality fallback behind the hash compare.
  KeyedAccumulator<ValueVec> acc;
  for (int round = 0; round < 3; ++round) {
    for (int64_t a = 0; a < 8; ++a) {
      const Value key = Value::MakePair(I(a), S(StrCat("k", a % 3)));
      acc.FindOrCreate(key.Hash(), key).payload.push_back(I(round));
    }
  }
  EXPECT_EQ(acc.size(), 8u);
  for (auto& e : acc.entries()) EXPECT_EQ(e.payload.size(), 3u);
}

// ---------------------------------------------------------------------
// WorkerPool unit tests.

TEST(WorkerPool, RunsEveryIndexExactlyOnce) {
  WorkerPool pool(4);
  for (int wave = 0; wave < 20; ++wave) {
    const int n = 1 + wave * 37;
    std::vector<std::atomic<int>> hits(n);
    for (auto& h : hits) h.store(0);
    Status st = pool.Run(n, [&](int i) -> Status {
      hits[i].fetch_add(1);
      return Status::OK();
    });
    ASSERT_TRUE(st.ok()) << st.ToString();
    for (int i = 0; i < n; ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "wave " << wave << " index " << i;
    }
  }
}

TEST(WorkerPool, ReportsLowestIndexedError) {
  // Two failing indices; the higher one sits in the range a different
  // worker owns, so with naive first-error reporting the winner would
  // depend on thread timing. The pool must always report index 3.
  for (int threads : {1, 2, 4, 8}) {
    WorkerPool pool(threads);
    for (int rep = 0; rep < 25; ++rep) {
      Status st = pool.Run(64, [&](int i) -> Status {
        if (i == 3 || i == 60) {
          return Status::RuntimeError("task " + std::to_string(i));
        }
        return Status::OK();
      });
      ASSERT_FALSE(st.ok());
      EXPECT_EQ(st.message(), "task 3") << "threads " << threads;
    }
  }
}

TEST(WorkerPool, EmptyAndUndersizedWaves) {
  WorkerPool pool(8);
  EXPECT_TRUE(pool.Run(0, [](int) { return Status::OK(); }).ok());
  // Fewer indices than workers: most ranges start empty and workers can
  // only find work by stealing.
  std::vector<std::atomic<int>> hits(3);
  for (auto& h : hits) h.store(0);
  Status st = pool.Run(3, [&](int i) -> Status {
    hits[i].fetch_add(1);
    return Status::OK();
  });
  ASSERT_TRUE(st.ok()) << st.ToString();
  for (int i = 0; i < 3; ++i) EXPECT_EQ(hits[i].load(), 1);
}

// ---------------------------------------------------------------------
// Per-operator oracle: each wide operator's output partitions equal an
// ordered std::map model that shares no code with KeyedAccumulator.
// The model routes a row to key.Hash() % P, emits key-sorted rows with
// values in arrival order (source partitions in order, rows in order),
// folds reduceByKey per source partition and then the partials in
// source order, and emits join matches in probe order.

using Parts = std::vector<ValueVec>;

enum class WideOp { kGroupByKey, kReduceByKey, kJoin, kCoGroup };
enum class KeyKind { kInt, kString, kTuple };

Value RandomKey(KeyKind kind, int64_t k) {
  switch (kind) {
    case KeyKind::kInt:
      return I(k);
    case KeyKind::kString:
      return S(StrCat("k", k));
    case KeyKind::kTuple:
      return Value::MakePair(I(k % 5), S(StrCat("t", k)));
  }
  return I(k);
}

/// Random pre-partitioned (key, double) rows: 1-6 source partitions of
/// uneven size, each row placed in a random one.
Parts RandomParts(KeyKind kind, std::mt19937_64& rng) {
  Parts parts(1 + rng() % 6);
  const int n = 100 + static_cast<int>(rng() % 200);
  const uint64_t keys = 1 + rng() % 40;
  for (int i = 0; i < n; ++i) {
    const Value key = RandomKey(kind, static_cast<int64_t>(rng() % keys));
    parts[rng() % parts.size()].push_back(Value::MakePair(
        key, D(static_cast<double>(rng() % 1000) / 7.0 - 50.0)));
  }
  return parts;
}

int Dest(const Value& key, int p) {
  return static_cast<int>(key.Hash() % static_cast<size_t>(p));
}

/// Each destination's input rows in arrival order, keyed by `key_of`.
template <typename KeyOf>
Parts Arrivals(const Parts& in, int p, KeyOf key_of) {
  Parts out(p);
  for (const ValueVec& part : in) {
    for (const Value& row : part) out[Dest(key_of(row), p)].push_back(row);
  }
  return out;
}

const Value& PairKey(const Value& row) { return row.tuple()[0]; }

Value Add(const Value& a, const Value& b) {
  return *EvalBinOp(BinOp::kAdd, a, b);
}

void FoldPair(std::map<Value, Value>& acc, const Value& key,
              const Value& value) {
  auto [it, fresh] = acc.emplace(key, value);
  if (!fresh) it->second = Add(it->second, value);
}

Parts Model(WideOp op, const Parts& a, const Parts& b, int p) {
  Parts out(p);
  if (op == WideOp::kReduceByKey) {
    std::vector<std::map<Value, Value>> merged(p);
    for (const ValueVec& part : a) {
      std::map<Value, Value> partial;
      for (const Value& row : part) {
        FoldPair(partial, row.tuple()[0], row.tuple()[1]);
      }
      for (const auto& [key, value] : partial) {
        FoldPair(merged[Dest(key, p)], key, value);
      }
    }
    for (int d = 0; d < p; ++d) {
      for (const auto& [key, value] : merged[d]) {
        out[d].push_back(Value::MakePair(key, value));
      }
    }
    return out;
  }
  const Parts left = Arrivals(a, p, PairKey);
  const Parts right = Arrivals(b, p, PairKey);
  for (int d = 0; d < p; ++d) {
    std::map<Value, std::pair<ValueVec, ValueVec>> groups;
    for (const Value& row : left[d]) {
      groups[row.tuple()[0]].first.push_back(row.tuple()[1]);
    }
    if (op == WideOp::kJoin) {
      for (const Value& row : right[d]) {
        auto it = groups.find(row.tuple()[0]);
        if (it == groups.end()) continue;
        for (const Value& lv : it->second.first) {
          out[d].push_back(Value::MakePair(
              row.tuple()[0], Value::MakePair(lv, row.tuple()[1])));
        }
      }
      continue;
    }
    if (op == WideOp::kCoGroup) {
      for (const Value& row : right[d]) {
        groups[row.tuple()[0]].second.push_back(row.tuple()[1]);
      }
    }
    for (auto& [key, sides] : groups) {
      out[d].push_back(Value::MakePair(
          key, op == WideOp::kGroupByKey
                   ? Value::MakeBag(sides.first)
                   : Value::MakePair(Value::MakeBag(sides.first),
                                     Value::MakeBag(sides.second))));
    }
  }
  return out;
}

/// Runs `op` on a fresh engine; adds the run's simulated recovery
/// seconds to `*recovery`.
StatusOr<Parts> RunOp(WideOp op, const EngineConfig& config, const Parts& a,
                      const Parts& b, double* recovery) {
  Engine engine(config);
  StatusOr<Dataset> out = Status::RuntimeError("unknown operator");
  switch (op) {
    case WideOp::kGroupByKey:
      out = engine.GroupByKey(Dataset(a));
      break;
    case WideOp::kReduceByKey:
      out = engine.ReduceByKey(Dataset(a), BinOp::kAdd);
      break;
    case WideOp::kJoin:
      out = engine.Join(Dataset(a), Dataset(b));
      break;
    case WideOp::kCoGroup:
      out = engine.CoGroup(Dataset(a), Dataset(b));
      break;
  }
  if (!out.ok()) return out.status();
  *recovery += engine.metrics().total_recovery_seconds();
  return out->partitions();
}

/// Codec bytes of every row, partition by partition.
std::string Bytes(const Parts& parts) {
  std::string out;
  for (const ValueVec& part : parts) {
    out += std::to_string(part.size()) + ":";
    for (const Value& v : part) out += Serialize(v);
  }
  return out;
}

void ExpectOperatorsMatchModel(bool faults) {
  double recovery = 0;
  for (WideOp op : {WideOp::kGroupByKey, WideOp::kReduceByKey, WideOp::kJoin,
                    WideOp::kCoGroup}) {
    for (KeyKind kind : {KeyKind::kInt, KeyKind::kString, KeyKind::kTuple}) {
      for (uint64_t seed = 0; seed < 3; ++seed) {
        std::mt19937_64 rng(seed * 7919 + static_cast<uint64_t>(op) * 131 +
                            static_cast<uint64_t>(kind) * 17 + 1);
        const int p = 1 + static_cast<int>(rng() % 12);
        const Parts a = RandomParts(kind, rng);
        const Parts b = RandomParts(kind, rng);
        const std::string want = Bytes(Model(op, a, b, p));
        for (int host_threads : {1, 4}) {
          EngineConfig config;
          config.num_partitions = p;
          config.host_threads = host_threads;
          if (faults) {
            config.serialize_shuffles = true;
            config.faults.seed = seed + 17;
            config.faults.task_failure_rate = 0.08;
            // Per shuffled row: a 300-row source task still gets through
            // within the budget.
            config.faults.corrupt_shuffle_rate = 0.002;
            config.faults.max_task_attempts = 16;
          }
          auto got = RunOp(op, config, a, b, &recovery);
          ASSERT_TRUE(got.ok()) << got.status().ToString();
          EXPECT_EQ(Bytes(*got), want)
              << "op " << static_cast<int>(op) << " keys "
              << static_cast<int>(kind) << " seed " << seed << " P " << p
              << " threads " << host_threads;
        }
      }
    }
  }
  // The faulty sweep must actually have retried tasks.
  EXPECT_EQ(recovery > 0, faults);
}

TEST(HashAggProperty, HashMatchesOrderedByteForByte) {
  ExpectOperatorsMatchModel(/*faults=*/false);
}

TEST(HashAggProperty, HashUnderFaultsMatchesOrderedFaultFree) {
  // Fault schedules key off (stage id, partition, attempt, row index);
  // retried tasks and corrupted wire payloads must still land on the
  // fault-free model's bytes.
  ExpectOperatorsMatchModel(/*faults=*/true);
}

// ---------------------------------------------------------------------
// Multi-stage workloads for the recovery and pool tests.

ValueVec EdgeRows(std::mt19937_64& rng) {
  ValueVec rows;
  const int nodes = 20 + static_cast<int>(rng() % 20);
  const int edges = 150 + static_cast<int>(rng() % 150);
  for (int i = 0; i < edges; ++i) {
    rows.push_back(Value::MakePair(I(static_cast<int64_t>(rng() % nodes)),
                                   I(static_cast<int64_t>(rng() % nodes))));
  }
  return rows;
}

ValueVec KeyedDoubleRows(std::mt19937_64& rng) {
  ValueVec rows;
  const int n = 150 + static_cast<int>(rng() % 250);
  for (int i = 0; i < n; ++i) {
    rows.push_back(Value::MakePair(
        I(static_cast<int64_t>(rng() % 23)),
        D(static_cast<double>(rng() % 1000) / 7.0 - 50.0)));
  }
  return rows;
}

// PageRank-flavoured: two iterations of join(ranks, links) →
// contributions → reduceByKey over doubles. Float folds make any
// arrival-order divergence visible bit-for-bit.
StatusOr<ValueVec> PageRankIters(Engine& engine, const ValueVec& edges) {
  Dataset links = engine.Parallelize(edges);
  DIABLO_ASSIGN_OR_RETURN(Dataset grouped, engine.GroupByKey(links));
  DIABLO_ASSIGN_OR_RETURN(
      Dataset ranks,
      engine.Map(grouped, [](const Value& row) -> StatusOr<Value> {
        return Value::MakePair(row.tuple()[0], D(1.0));
      }));
  for (int iter = 0; iter < 2; ++iter) {
    DIABLO_ASSIGN_OR_RETURN(Dataset joined, engine.Join(grouped, ranks));
    DIABLO_ASSIGN_OR_RETURN(
        Dataset contribs,
        engine.FlatMap(joined, [](const Value& v) -> StatusOr<ValueVec> {
          const ValueVec& outs = v.tuple()[1].tuple()[0].bag();
          const double rank = v.tuple()[1].tuple()[1].AsDouble();
          ValueVec out;
          out.reserve(outs.size());
          for (const Value& dst : outs) {
            out.push_back(Value::MakePair(
                dst, D(rank / static_cast<double>(outs.size()))));
          }
          return out;
        }));
    DIABLO_ASSIGN_OR_RETURN(Dataset summed,
                            engine.ReduceByKey(contribs, BinOp::kAdd));
    DIABLO_ASSIGN_OR_RETURN(
        ranks, engine.Map(summed, [](const Value& row) -> StatusOr<Value> {
          return Value::MakePair(row.tuple()[0],
                                 D(0.15 + 0.85 * row.tuple()[1].AsDouble()));
        }));
  }
  return engine.Collect(ranks);
}

/// Collects `ds` through a checkpoint stage: the stage that consumes a
/// wide operator's output, where its partitions can be lost.
StatusOr<ValueVec> CollectThroughCheckpoint(Engine& engine,
                                            const Dataset& ds) {
  DIABLO_ASSIGN_OR_RETURN(Dataset ckpt, engine.Checkpoint(ds));
  return engine.Collect(ckpt);
}

// Join + coGroup over the same keyed rows, concatenated. Stage ids:
// reduceByKey 0-2; join 3-5 (input 1 is the reduceByKey output); its
// checkpoint 6; coGroup 7-9 (input 1 again the reduceByKey output); its
// checkpoint 10.
StatusOr<ValueVec> RelationalMix(Engine& engine, const ValueVec& rows) {
  Dataset ds = engine.Parallelize(rows);
  DIABLO_ASSIGN_OR_RETURN(Dataset sums, engine.ReduceByKey(ds, BinOp::kAdd));
  DIABLO_ASSIGN_OR_RETURN(Dataset joined, engine.Join(ds, sums));
  DIABLO_ASSIGN_OR_RETURN(ValueVec out,
                          CollectThroughCheckpoint(engine, joined));
  DIABLO_ASSIGN_OR_RETURN(Dataset cg, engine.CoGroup(ds, sums));
  DIABLO_ASSIGN_OR_RETURN(ValueVec cg_rows,
                          CollectThroughCheckpoint(engine, cg));
  out.insert(out.end(), cg_rows.begin(), cg_rows.end());
  return out;
}

TEST(HashAggProperty, LostPartitionRecoveryUsesAccumulatorReplay) {
  // Each directive loses a partition of a wide operator's OUTPUT at the
  // stage consuming it (see the stage map on RelationalMix), so the
  // rebuild runs that operator's lineage replay — never a
  // durable re-read of the parallelized source.
  std::mt19937_64 rng(4242);
  ValueVec rows = KeyedDoubleRows(rng);
  Engine clean{EngineConfig{}};
  auto expected = RelationalMix(clean, rows);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();

  const LosePartition directives[] = {
      {3, 2, 1},   // reduceByKey output, consumed by the join
      {6, 2, 0},   // join output, consumed by its checkpoint
      {7, 2, 1},   // reduceByKey output, consumed by the coGroup
      {10, 2, 0},  // coGroup output
  };
  for (const LosePartition& lose : directives) {
    EngineConfig config;
    config.faults.lose_partitions.push_back(lose);
    Engine engine(config);
    auto got = RelationalMix(engine, rows);
    ASSERT_TRUE(got.ok()) << "stage " << lose.stage << ": "
                          << got.status().ToString();
    EXPECT_EQ(*got, *expected) << "stage " << lose.stage;
    EXPECT_EQ(engine.metrics().total_recomputed_partitions(), 1)
        << "stage " << lose.stage;
  }
}

// ---------------------------------------------------------------------
// Deterministic error selection (the RunTaskWave contract).

TEST(DeterministicErrors, SameErrorForEveryThreadCountAndScheduler) {
  // Several partitions fail; the reported error must be the one from the
  // lowest-indexed failing partition whether the wave ran inline
  // (host_threads = 1) or on the persistent pool.
  ValueVec rows;
  for (int i = 0; i < 160; ++i) rows.push_back(I(i));

  auto run = [&](int host_threads) {
    EngineConfig config;
    config.num_partitions = 16;
    config.host_threads = host_threads;
    Engine engine(config);
    Dataset ds = engine.Parallelize(rows);
    auto mapped = engine.Map(ds, [](const Value& v) -> StatusOr<Value> {
      // Rows 155 (partition 15) and 72 (partition 7) fail; partition 7
      // is the lowest failing partition, and 72 is its first bad row.
      if (v.AsInt() == 72 || v.AsInt() == 155) {
        return Status::RuntimeError("bad row " + std::to_string(v.AsInt()));
      }
      return v;
    });
    if (!mapped.ok()) return mapped.status();
    // The deferred map runs (and fails) in the Force wave.
    auto forced = engine.Force(*mapped);
    return forced.ok() ? Status::OK() : forced.status();
  };

  const Status expected = run(1);
  ASSERT_FALSE(expected.ok());
  EXPECT_EQ(expected.message(), "bad row 72");
  for (int threads : {2, 4, 8}) {
    for (int rep = 0; rep < 10; ++rep) {
      const Status got = run(threads);
      ASSERT_FALSE(got.ok());
      EXPECT_EQ(got.ToString(), expected.ToString()) << "threads " << threads;
    }
  }
}

TEST(PersistentPool, ReusedAcrossStagesAndMatchesSerial) {
  // One engine per thread count drives a multi-stage program three
  // times; its pool is created once and must keep producing the serial
  // engine's result.
  std::mt19937_64 rng(2026);
  ValueVec rows = EdgeRows(rng);
  Engine serial{EngineConfig{}};
  auto expected = PageRankIters(serial, rows);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();
  EXPECT_EQ(serial.metrics().total_pool_tasks(), 0);
  for (int threads : {2, 4, 8}) {
    EngineConfig config;
    config.host_threads = threads;
    Engine pooled(config);
    for (int round = 0; round < 3; ++round) {
      pooled.ResetRunState();
      auto got = PageRankIters(pooled, rows);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      EXPECT_EQ(*got, *expected) << "threads " << threads << " round "
                                 << round;
      EXPECT_GT(pooled.metrics().total_pool_tasks(), 0);
    }
  }
}

}  // namespace
}  // namespace diablo::runtime
