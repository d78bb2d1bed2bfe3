// Google-benchmark microbenchmarks for the engine substrate: per-operator
// throughput of the narrow and wide operators the generated plans are
// built from. These are host wall-clock numbers (single machine), useful
// for tracking engine regressions; the paper-facing numbers come from the
// cluster cost model in the other binaries.

#include <benchmark/benchmark.h>

#include <random>
#include <string>
#include <vector>

#include "dist/coordinator.h"
#include "runtime/column_batch.h"
#include "runtime/engine.h"
#include "runtime/operators.h"
#include "workloads/workloads.h"

namespace {

using diablo::runtime::BinOp;
using diablo::runtime::Dataset;
using diablo::runtime::Engine;
using diablo::runtime::Value;
using diablo::runtime::ValueVec;

Dataset KeyedData(Engine& engine, int64_t n, int64_t keys) {
  ValueVec rows;
  rows.reserve(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    rows.push_back(Value::MakePair(Value::MakeInt(i % keys),
                                   Value::MakeDouble(i * 0.5)));
  }
  return engine.Parallelize(std::move(rows));
}

void BM_Map(benchmark::State& state) {
  Engine engine;
  Dataset ds = KeyedData(engine, state.range(0), 100);
  for (auto _ : state) {
    // Narrow operators are lazy: Force runs the deferred wave so the
    // benchmark measures row throughput, not closure capture.
    auto mapped = engine.Map(ds, [](const Value& v) -> diablo::StatusOr<Value> {
      return Value::MakeDouble(v.tuple()[1].ToDouble() * 2);
    });
    auto out = engine.Force(*mapped);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Map)->Arg(10000)->Arg(100000);

void BM_Filter(benchmark::State& state) {
  Engine engine;
  Dataset ds = KeyedData(engine, state.range(0), 100);
  for (auto _ : state) {
    auto kept = engine.Filter(ds, [](const Value& v) -> diablo::StatusOr<bool> {
      return v.tuple()[1].ToDouble() < 100;
    });
    auto out = engine.Force(*kept);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Filter)->Arg(10000)->Arg(100000);

// The fused pipeline: flatMap -> filter -> map -> reduceByKey with the
// chain deferred into the map-side combine.
void BM_NarrowChain(benchmark::State& state) {
  Engine engine;
  Dataset ds = KeyedData(engine, state.range(0), 100);
  for (auto _ : state) {
    auto expanded =
        engine.FlatMap(ds, [](const Value& v) -> diablo::StatusOr<ValueVec> {
          return ValueVec{v, Value::MakePair(v.tuple()[0],
                                             Value::MakeDouble(1.0))};
        });
    auto kept = engine.Filter(
        *expanded, [](const Value& v) -> diablo::StatusOr<bool> {
          return v.tuple()[1].ToDouble() >= 0;
        });
    auto scaled = engine.Map(
        *kept, [](const Value& v) -> diablo::StatusOr<Value> {
          return Value::MakePair(v.tuple()[0],
                                 Value::MakeDouble(v.tuple()[1].ToDouble() *
                                                   0.5));
        });
    auto out = engine.ReduceByKey(*scaled, BinOp::kAdd);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_NarrowChain)->Arg(100000)->ArgName("rows");

void BM_ReduceByKey(benchmark::State& state) {
  Engine engine;
  Dataset ds = KeyedData(engine, state.range(0), state.range(1));
  for (auto _ : state) {
    auto out = engine.ReduceByKey(ds, BinOp::kAdd);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ReduceByKey)
    ->Args({10000, 10})
    ->Args({10000, 1000})
    ->Args({100000, 100});

void BM_GroupByKey(benchmark::State& state) {
  Engine engine;
  Dataset ds = KeyedData(engine, state.range(0), state.range(1));
  for (auto _ : state) {
    auto out = engine.GroupByKey(ds);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_GroupByKey)->Args({10000, 10})->Args({100000, 100});

void BM_Join(benchmark::State& state) {
  Engine engine;
  Dataset left = KeyedData(engine, state.range(0), state.range(0) / 4);
  Dataset right = KeyedData(engine, state.range(0), state.range(0) / 4);
  for (auto _ : state) {
    auto out = engine.Join(left, right);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) * 2);
}
BENCHMARK(BM_Join)->Arg(10000)->Arg(50000);

// The aggregation hot path: reduceByKey over a key set small enough
// that the map-side combine does almost all the work. Tracked by CI: a
// >20% regression against the committed baseline fails the bench-smoke
// threshold check.
void BM_ReduceByKeyHot(benchmark::State& state) {
  Engine engine;
  Dataset ds = KeyedData(engine, state.range(0), state.range(1));
  for (auto _ : state) {
    auto out = engine.ReduceByKey(ds, BinOp::kAdd);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ReduceByKeyHot)
    ->Args({100000, 1000})
    ->Args({200000, 20000})
    ->ArgNames({"rows", "keys"});

// The AB8 overhead gate: the same hot reduceByKey with tracing off vs
// on. tools/check_trace_overhead.py compares the two variants from one
// benchmark JSON and fails CI when the traced run is > 5% slower.
void BM_ReduceByKeyHotTraced(benchmark::State& state) {
  diablo::runtime::EngineConfig config;
  config.tracing = state.range(2) != 0;
  Engine engine(config);
  Dataset ds = KeyedData(engine, state.range(0), state.range(1));
  for (auto _ : state) {
    auto out = engine.ReduceByKey(ds, BinOp::kAdd);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ReduceByKeyHotTraced)
    ->Args({200000, 20000, 0})
    ->Args({200000, 20000, 1})
    ->ArgNames({"rows", "keys", "trace"});

// The cluster-telemetry overhead gate: the same reduceByKey executed
// over forked worker processes, with tracing off vs on.
// tools/check_trace_overhead.py holds the traced variant within the
// same 5% budget as the local pair above. Every task result carries
// the attempt's timing and the worker's peak RSS in both arms, so what
// this measures is the driver's span bookkeeping: building each worker
// span and splicing it into the trace.
void BM_DistReduceByKeyTraced(benchmark::State& state) {
  diablo::dist::DistConfig dist_config;
  dist_config.num_workers = 2;
  diablo::dist::Coordinator coordinator(dist_config);
  diablo::runtime::EngineConfig config;
  config.remote = &coordinator;
  config.tracing = state.range(2) != 0;
  Engine engine(config);
  Dataset ds = KeyedData(engine, state.range(0), state.range(1));
  for (auto _ : state) {
    auto out = engine.ReduceByKey(ds, BinOp::kAdd);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_DistReduceByKeyTraced)
    ->Args({100000, 10000, 0})
    ->Args({100000, 10000, 1})
    ->ArgNames({"rows", "keys", "trace"});

// reduceByKey on the typed layout: typed combine, typed shuffle, typed
// reduce — no boxed pair row between the source and the final sorted
// emit.
void BM_ColumnarReduceByKey(benchmark::State& state) {
  Engine engine;
  Dataset ds = KeyedData(engine, state.range(0), state.range(1));
  for (auto _ : state) {
    auto out = engine.ReduceByKey(ds, BinOp::kAdd);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ColumnarReduceByKey)
    ->Args({200000, 25000})
    ->ArgNames({"rows", "keys"});

// The AB10 ablation pair: reduceByKey over a Zipf(2)-keyed count whose
// input is hash-partitioned by key — the heavy hitter's rows pile into
// one oversized source partition, exactly the shape an upstream shuffle
// produces under key skew. mitigate=1 lets the engine salt the hot
// combine into chunk tasks (EngineConfig::skew); mitigate=0 serializes
// it. Times are the deterministic cluster cost model's seconds
// (UseManualTime), so the CI --pair gate is machine-independent; the
// property suite (tests/skew_test.cc) holds the two outputs
// byte-identical.
void BM_ReduceByKeySkewed(benchmark::State& state) {
  const int64_t n = state.range(0);
  diablo::runtime::EngineConfig config;
  config.skew.mitigate = state.range(1) != 0;
  std::mt19937_64 rng(7);
  diablo::bench::ZipfSampler zipf(n / 8, 2.0);
  std::vector<ValueVec> parts(static_cast<size_t>(config.num_partitions));
  for (int64_t i = 0; i < n; ++i) {
    Value key = Value::MakeInt(zipf(rng));
    ValueVec& part = parts[key.Hash() % parts.size()];
    part.push_back(Value::MakePair(std::move(key), Value::MakeInt(1)));
  }
  diablo::runtime::ColumnSchema schema;
  schema.key = diablo::runtime::ColumnTag::kInt64;
  schema.value = diablo::runtime::ColumnTag::kInt64;
  for (auto _ : state) {
    Engine engine(config);
    auto out = engine.ReduceByKey(Dataset(parts), BinOp::kAdd, "reduceByKey",
                                  schema);
    benchmark::DoNotOptimize(out);
    state.SetIterationTime(engine.metrics().SimulatedSeconds(config.cluster));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_ReduceByKeySkewed)
    ->Args({200000, 0})
    ->Args({200000, 1})
    ->ArgNames({"rows", "mitigate"})
    ->UseManualTime();

// Join probe throughput: the build side fits a hash table; the probe
// side reuses the memoized shuffle hash instead of re-walking the key.
void BM_JoinProbe(benchmark::State& state) {
  Engine engine;
  Dataset left = KeyedData(engine, state.range(0) / 8, state.range(0) / 8);
  Dataset right = KeyedData(engine, state.range(0), state.range(0) / 8);
  for (auto _ : state) {
    auto out = engine.Join(left, right);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_JoinProbe)->Arg(100000)->ArgName("rows");

void BM_ValueHash(benchmark::State& state) {
  Value v = Value::MakeTuple({Value::MakeInt(42),
                              Value::MakeString("key-string"),
                              Value::MakeDouble(3.14)});
  for (auto _ : state) {
    benchmark::DoNotOptimize(v.Hash());
  }
}
BENCHMARK(BM_ValueHash);

// Vectorized Value::Hash over a
// whole column vs hashing each boxed row. String columns read the hash
// cached at dictionary-intern time, so per-row hashing cost collapses
// to an array load; tag 0 = int64 column, 1 = dictionary strings,
// 2 = boxed rows (the fallback shape — hashes like the per-row loop).
void BM_HashColumn(benchmark::State& state) {
  const int64_t n = state.range(0);
  diablo::runtime::Column col;
  for (int64_t i = 0; i < n; ++i) {
    switch (state.range(1)) {
      case 0:
        col.Append(Value::MakeInt(i * 2654435761LL));
        break;
      case 1:
        col.Append(Value::MakeString("word" + std::to_string(i % 64)));
        break;
      default:
        col.Append(Value::MakeTuple(
            {Value::MakeInt(i % 64), Value::MakeDouble(i * 0.5)}));
        break;
    }
  }
  std::vector<size_t> hashes;
  for (auto _ : state) {
    HashColumn(col, &hashes);
    benchmark::DoNotOptimize(hashes.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_HashColumn)
    ->Args({100000, 0})
    ->Args({100000, 1})
    ->Args({100000, 2})
    ->ArgNames({"rows", "tag"});

// The boxed baseline BM_HashColumn is compared against.
void BM_HashRowsBoxed(benchmark::State& state) {
  const int64_t n = state.range(0);
  ValueVec rows;
  for (int64_t i = 0; i < n; ++i) {
    rows.push_back(state.range(1) == 0
                       ? Value::MakeInt(i * 2654435761LL)
                       : Value::MakeString("word" + std::to_string(i % 64)));
  }
  std::vector<size_t> hashes;
  for (auto _ : state) {
    hashes.clear();
    for (const Value& v : rows) hashes.push_back(v.Hash());
    benchmark::DoNotOptimize(hashes.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_HashRowsBoxed)
    ->Args({100000, 0})
    ->Args({100000, 1})
    ->ArgNames({"rows", "tag"});

void BM_ValueCopy(benchmark::State& state) {
  ValueVec elems;
  for (int i = 0; i < 1000; ++i) elems.push_back(Value::MakeInt(i));
  Value bag = Value::MakeBag(std::move(elems));
  for (auto _ : state) {
    Value copy = bag;  // O(1) shared copy
    benchmark::DoNotOptimize(copy);
  }
}
BENCHMARK(BM_ValueCopy);

}  // namespace

BENCHMARK_MAIN();
