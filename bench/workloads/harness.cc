#include "workloads/harness.h"

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "common/strings.h"
#include "runtime/array.h"

namespace diablo::bench {

using runtime::BinOp;
using runtime::Dataset;
using runtime::Engine;
using runtime::TupleView;
using runtime::Value;
using runtime::ValueVec;

namespace {

Value IV(int64_t v) { return Value::MakeInt(v); }
Value DV(double v) { return Value::MakeDouble(v); }

/// Sorted bag of the rows of `ds` (driver-side), as the canonical output
/// form for arrays.
StatusOr<Value> CollectSorted(Engine& engine, const Dataset& ds) {
  DIABLO_ASSIGN_OR_RETURN(ValueVec rows, engine.Collect(ds));
  std::sort(rows.begin(), rows.end());
  return Value::MakeBag(std::move(rows));
}

const Value& Input(const Bindings& inputs, const std::string& name) {
  static const Value kUnit;
  auto it = inputs.find(name);
  return it == inputs.end() ? kUnit : it->second;
}

Dataset LoadArray(Engine& engine, const Bindings& inputs,
                  const std::string& name) {
  const Value& v = Input(inputs, name);
  return engine.Parallelize(v.is_bag() ? v.bag() : ValueVec{});
}

/// Strips (index, value) pairs to values: the paper's hand-written Spark
/// code works on RDD[T], not on sparse arrays.
StatusOr<Dataset> Values(Engine& engine, const Dataset& ds,
                         const std::string& label) {
  return engine.Map(
      ds,
      [](const Value& row) -> StatusOr<Value> { return row.tuple()[1]; },
      label);
}

// ------------------------ per-program hand-written code ---------------------

StatusOr<Value> HwConditionalSum(Engine& engine, const Bindings& inputs) {
  DIABLO_ASSIGN_OR_RETURN(Dataset v,
                          Values(engine, LoadArray(engine, inputs, "V"), "V"));
  DIABLO_ASSIGN_OR_RETURN(
      Dataset filtered,
      engine.Filter(v, [](const Value& x) -> StatusOr<bool> {
        return x.ToDouble() < 100.0;
      }));
  DIABLO_ASSIGN_OR_RETURN(
      std::optional<Value> sum,
      engine.Reduce(filtered, [](const Value& a, const Value& b) {
        return runtime::EvalBinOp(BinOp::kAdd, a, b);
      }));
  return sum.has_value() ? *sum : DV(0);
}

StatusOr<Value> HwEqual(Engine& engine, const Bindings& inputs) {
  DIABLO_ASSIGN_OR_RETURN(Dataset v,
                          Values(engine, LoadArray(engine, inputs, "V"), "V"));
  DIABLO_ASSIGN_OR_RETURN(Value x, engine.First(v));
  DIABLO_ASSIGN_OR_RETURN(
      Dataset eq, engine.Map(v, [x](const Value& w) -> StatusOr<Value> {
        return Value::MakeBool(w == x);
      }));
  DIABLO_ASSIGN_OR_RETURN(
      std::optional<Value> all,
      engine.Reduce(eq, [](const Value& a, const Value& b) {
        return runtime::EvalBinOp(BinOp::kAnd, a, b);
      }));
  return all.has_value() ? *all : Value::MakeBool(true);
}

StatusOr<Value> HwStringMatch(Engine& engine, const Bindings& inputs) {
  DIABLO_ASSIGN_OR_RETURN(
      Dataset words,
      Values(engine, LoadArray(engine, inputs, "words"), "words"));
  DIABLO_ASSIGN_OR_RETURN(
      Dataset hit, engine.Map(words, [](const Value& w) -> StatusOr<Value> {
        const std::string& s = w.AsString();
        return Value::MakeBool(s == "key1" || s == "key2" || s == "key3");
      }));
  DIABLO_ASSIGN_OR_RETURN(
      std::optional<Value> any,
      engine.Reduce(hit, [](const Value& a, const Value& b) {
        return runtime::EvalBinOp(BinOp::kOr, a, b);
      }));
  return any.has_value() ? *any : Value::MakeBool(false);
}

StatusOr<Value> HwWordCount(Engine& engine, const Bindings& inputs) {
  DIABLO_ASSIGN_OR_RETURN(
      Dataset words,
      Values(engine, LoadArray(engine, inputs, "words"), "words"));
  DIABLO_ASSIGN_OR_RETURN(
      Dataset ones, engine.Map(words, [](const Value& w) -> StatusOr<Value> {
        return Value::MakePair(w, IV(1));
      }));
  DIABLO_ASSIGN_OR_RETURN(Dataset counts,
                          engine.ReduceByKey(ones, BinOp::kAdd));
  return CollectSorted(engine, counts);
}

StatusOr<Value> HwHistogram(Engine& engine, const Bindings& inputs) {
  DIABLO_ASSIGN_OR_RETURN(Dataset pixels,
                          Values(engine, LoadArray(engine, inputs, "P"), "P"));
  Value red_histogram;
  for (const char* channel : {"red", "green", "blue"}) {
    std::string field = channel;
    DIABLO_ASSIGN_OR_RETURN(
        Dataset keyed,
        engine.Map(pixels, [field](const Value& p) -> StatusOr<Value> {
          const Value* c = p.FindField(field);
          if (c == nullptr) return Status::RuntimeError("missing channel");
          return Value::MakePair(*c, IV(1));
        }, StrCat("hist.", field)));
    DIABLO_ASSIGN_OR_RETURN(Dataset counts,
                            engine.ReduceByKey(keyed, BinOp::kAdd));
    // All three channels are computed (and costed); the red one is the
    // primary output compared against DIABLO's R.
    if (field == "red") {
      DIABLO_ASSIGN_OR_RETURN(red_histogram, CollectSorted(engine, counts));
    }
  }
  return red_histogram;
}

StatusOr<Value> HwLinearRegression(Engine& engine, const Bindings& inputs) {
  DIABLO_ASSIGN_OR_RETURN(Dataset points,
                          Values(engine, LoadArray(engine, inputs, "P"), "P"));
  double n = Input(inputs, "n").ToDouble();
  auto sum_of = [&](const std::function<double(double, double)>& f,
                    const std::string& label) -> StatusOr<double> {
    DIABLO_ASSIGN_OR_RETURN(
        Dataset mapped,
        engine.Map(points, [f](const Value& p) -> StatusOr<Value> {
          return DV(f(p.tuple()[0].ToDouble(), p.tuple()[1].ToDouble()));
        }, label));
    DIABLO_ASSIGN_OR_RETURN(
        std::optional<Value> s,
        engine.Reduce(mapped, [](const Value& a, const Value& b) {
          return runtime::EvalBinOp(BinOp::kAdd, a, b);
        }));
    return s.has_value() ? s->ToDouble() : 0.0;
  };
  DIABLO_ASSIGN_OR_RETURN(double sx,
                          sum_of([](double x, double) { return x; }, "sx"));
  DIABLO_ASSIGN_OR_RETURN(double sy,
                          sum_of([](double, double y) { return y; }, "sy"));
  double x_bar = sx / n, y_bar = sy / n;
  DIABLO_ASSIGN_OR_RETURN(
      double xx, sum_of([x_bar](double x, double) {
        return (x - x_bar) * (x - x_bar);
      }, "xx"));
  DIABLO_ASSIGN_OR_RETURN(
      double xy, sum_of([x_bar, y_bar](double x, double y) {
        return (x - x_bar) * (y - y_bar);
      }, "xy"));
  double slope = xy / xx;
  double intercept = y_bar - slope * x_bar;
  (void)intercept;  // computed (and costed); slope is the compared output
  return DV(slope);
}

StatusOr<Value> HwGroupBy(Engine& engine, const Bindings& inputs) {
  DIABLO_ASSIGN_OR_RETURN(Dataset v,
                          Values(engine, LoadArray(engine, inputs, "V"), "V"));
  DIABLO_ASSIGN_OR_RETURN(
      Dataset keyed, engine.Map(v, [](const Value& kv) -> StatusOr<Value> {
        return Value::MakePair(kv.tuple()[0], kv.tuple()[1]);
      }));
  DIABLO_ASSIGN_OR_RETURN(Dataset sums, engine.ReduceByKey(keyed, BinOp::kAdd));
  return CollectSorted(engine, sums);
}

StatusOr<Value> HwMatrixAddition(Engine& engine, const Bindings& inputs) {
  Dataset m = LoadArray(engine, inputs, "M");
  Dataset n = LoadArray(engine, inputs, "N");
  DIABLO_ASSIGN_OR_RETURN(Dataset joined, engine.Join(m, n, "add.join"));
  DIABLO_ASSIGN_OR_RETURN(
      Dataset sum, engine.Map(joined, [](const Value& row) -> StatusOr<Value> {
        const Value& pair = row.tuple()[1];
        return Value::MakePair(
            row.tuple()[0],
            DV(pair.tuple()[0].ToDouble() + pair.tuple()[1].ToDouble()));
      }));
  return CollectSorted(engine, sum);
}

StatusOr<Value> HwMatrixMultiplication(Engine& engine,
                                       const Bindings& inputs) {
  Dataset m = LoadArray(engine, inputs, "M");
  Dataset n = LoadArray(engine, inputs, "N");
  // M.map{case ((i,j),m) => (j,(i,m))}.join(N.map{case ((i,j),n) =>
  // (i,(j,n))}).map{case (k,((i,m),(j,n))) => ((i,j),m*n)}.reduceByKey(+).
  DIABLO_ASSIGN_OR_RETURN(
      Dataset left, engine.Map(m, [](const Value& row) -> StatusOr<Value> {
        return Value::MakePair(
            row.tuple()[0].tuple()[1],
            Value::MakePair(row.tuple()[0].tuple()[0], row.tuple()[1]));
      }, "mm.keyM"));
  DIABLO_ASSIGN_OR_RETURN(
      Dataset right, engine.Map(n, [](const Value& row) -> StatusOr<Value> {
        return Value::MakePair(
            row.tuple()[0].tuple()[0],
            Value::MakePair(row.tuple()[0].tuple()[1], row.tuple()[1]));
      }, "mm.keyN"));
  DIABLO_ASSIGN_OR_RETURN(Dataset joined, engine.Join(left, right, "mm.join"));
  DIABLO_ASSIGN_OR_RETURN(
      Dataset partial,
      engine.Map(joined, [](const Value& row) -> StatusOr<Value> {
        const Value& p = row.tuple()[1];
        return Value::MakePair(
            Value::MakeTuple({p.tuple()[0].tuple()[0],
                              p.tuple()[1].tuple()[0]}),
            DV(p.tuple()[0].tuple()[1].ToDouble() *
               p.tuple()[1].tuple()[1].ToDouble()));
      }, "mm.multiply"));
  DIABLO_ASSIGN_OR_RETURN(Dataset result,
                          engine.ReduceByKey(partial, BinOp::kAdd));
  return CollectSorted(engine, result);
}

StatusOr<Value> HwPageRank(Engine& engine, const Bindings& inputs) {
  Dataset e = LoadArray(engine, inputs, "E");
  int64_t vertices = Input(inputs, "N").AsInt();
  int64_t num_steps = Input(inputs, "num_steps").AsInt();
  const double b = 0.85;
  // links: src -> bag of dsts.
  DIABLO_ASSIGN_OR_RETURN(
      Dataset edges, engine.Map(e, [](const Value& row) -> StatusOr<Value> {
        return Value::MakePair(row.tuple()[0].tuple()[0],
                               row.tuple()[0].tuple()[1]);
      }, "pr.edges"));
  DIABLO_ASSIGN_OR_RETURN(Dataset links, engine.GroupByKey(edges, "pr.links"));
  // ranks: every vertex starts at 1/N.
  Dataset vertex_range = engine.Range(0, vertices - 1);
  DIABLO_ASSIGN_OR_RETURN(
      Dataset ranks,
      engine.Map(vertex_range, [vertices](const Value& i) -> StatusOr<Value> {
        return Value::MakePair(i, DV(1.0 / static_cast<double>(vertices)));
      }, "pr.init"));
  for (int64_t step = 0; step < num_steps; ++step) {
    DIABLO_ASSIGN_OR_RETURN(Dataset joined,
                            engine.Join(links, ranks, "pr.join"));
    DIABLO_ASSIGN_OR_RETURN(
        Dataset contribs,
        engine.FlatMap(joined, [](const Value& row) -> StatusOr<ValueVec> {
          const ValueVec& urls = row.tuple()[1].tuple()[0].bag();
          double rank = row.tuple()[1].tuple()[1].ToDouble();
          ValueVec out;
          out.reserve(urls.size());
          for (const Value& url : urls) {
            out.push_back(
                Value::MakePair(url, DV(rank / static_cast<double>(urls.size()))));
          }
          return out;
        }, "pr.contribs"));
    DIABLO_ASSIGN_OR_RETURN(Dataset summed,
                            engine.ReduceByKey(contribs, BinOp::kAdd));
    // ranks = (1-b)/N + b * contribution, for every vertex.
    DIABLO_ASSIGN_OR_RETURN(
        Dataset base,
        engine.Map(vertex_range, [vertices, b](const Value& i) -> StatusOr<Value> {
          return Value::MakePair(i, DV((1.0 - b) / static_cast<double>(vertices)));
        }, "pr.base"));
    DIABLO_ASSIGN_OR_RETURN(Dataset merged,
                            engine.CoGroup(base, summed, "pr.update"));
    DIABLO_ASSIGN_OR_RETURN(
        ranks,
        engine.FlatMap(merged, [b](const Value& row) -> StatusOr<ValueVec> {
          const ValueVec& bases = row.tuple()[1].tuple()[0].bag();
          const ValueVec& sums = row.tuple()[1].tuple()[1].bag();
          ValueVec out;
          if (bases.empty()) return out;  // not a vertex
          double r = bases[0].ToDouble();
          if (!sums.empty()) r += b * sums[0].ToDouble();
          out.push_back(Value::MakePair(row.tuple()[0], DV(r)));
          return out;
        }, "pr.newRanks"));
    // Under fault injection, persist the loop-carried ranks each step so
    // a lost partition replays at most one iteration, not the whole
    // chain back to pr.init (Spark jobs checkpoint iterative RDDs for
    // the same reason).
    if (engine.config().faults.enabled()) {
      DIABLO_ASSIGN_OR_RETURN(ranks, engine.Checkpoint(ranks, "pr.ckpt"));
    }
  }
  return CollectSorted(engine, ranks);
}

StatusOr<Value> HwKMeans(Engine& engine, const Bindings& inputs) {
  DIABLO_ASSIGN_OR_RETURN(Dataset points,
                          Values(engine, LoadArray(engine, inputs, "P"), "P"));
  // Broadcast the centroids (the paper's hand-written code keeps them in
  // each worker's memory).
  DIABLO_ASSIGN_OR_RETURN(ValueVec centroids,
                          engine.Collect(LoadArray(engine, inputs, "C")));
  std::sort(centroids.begin(), centroids.end());
  auto shared = std::make_shared<ValueVec>(std::move(centroids));
  DIABLO_ASSIGN_OR_RETURN(
      Dataset assigned,
      engine.Map(points, [shared](const Value& p) -> StatusOr<Value> {
        double px = p.tuple()[0].ToDouble(), py = p.tuple()[1].ToDouble();
        double best = 0;
        Value best_j;
        bool first = true;
        for (const Value& kv : *shared) {
          const Value& c = kv.tuple()[1];
          double dx = px - c.tuple()[0].ToDouble();
          double dy = py - c.tuple()[1].ToDouble();
          double d = dx * dx + dy * dy;
          if (first || d < best) {
            best = d;
            best_j = kv.tuple()[0];
            first = false;
          }
        }
        return Value::MakePair(
            best_j, Value::MakeTuple({DV(px), DV(py), IV(1)}));
      }, "km.assign"));
  DIABLO_ASSIGN_OR_RETURN(Dataset sums,
                          engine.ReduceByKey(assigned, BinOp::kAdd));
  DIABLO_ASSIGN_OR_RETURN(
      Dataset next, engine.Map(sums, [](const Value& row) -> StatusOr<Value> {
        const TupleView acc = row.tuple()[1].tuple();
        double cnt = acc[2].ToDouble();
        return Value::MakePair(
            row.tuple()[0], Value::MakeTuple({DV(acc[0].ToDouble() / cnt),
                                              DV(acc[1].ToDouble() / cnt)}));
      }, "km.centers"));
  return CollectSorted(engine, next);
}

StatusOr<Value> HwMatrixFactorization(Engine& engine,
                                      const Bindings& inputs) {
  Dataset r = LoadArray(engine, inputs, "R");
  Dataset p0 = LoadArray(engine, inputs, "P0");
  Dataset q0 = LoadArray(engine, inputs, "Q0");
  double a = Input(inputs, "a").ToDouble();
  double b = Input(inputs, "b").ToDouble();
  // pq = P0 × Q0 restricted to R's support, then err = R - pq.
  DIABLO_ASSIGN_OR_RETURN(
      Dataset p_by_k, engine.Map(p0, [](const Value& row) -> StatusOr<Value> {
        return Value::MakePair(
            row.tuple()[0].tuple()[1],
            Value::MakePair(row.tuple()[0].tuple()[0], row.tuple()[1]));
      }, "mf.keyP"));
  DIABLO_ASSIGN_OR_RETURN(
      Dataset q_by_k, engine.Map(q0, [](const Value& row) -> StatusOr<Value> {
        return Value::MakePair(
            row.tuple()[0].tuple()[0],
            Value::MakePair(row.tuple()[0].tuple()[1], row.tuple()[1]));
      }, "mf.keyQ"));
  DIABLO_ASSIGN_OR_RETURN(Dataset pq_join,
                          engine.Join(p_by_k, q_by_k, "mf.pq.join"));
  DIABLO_ASSIGN_OR_RETURN(
      Dataset pq_partial,
      engine.Map(pq_join, [](const Value& row) -> StatusOr<Value> {
        const Value& pr = row.tuple()[1];
        return Value::MakePair(
            Value::MakeTuple({pr.tuple()[0].tuple()[0],
                              pr.tuple()[1].tuple()[0]}),
            DV(pr.tuple()[0].tuple()[1].ToDouble() *
               pr.tuple()[1].tuple()[1].ToDouble()));
      }, "mf.pq.mul"));
  DIABLO_ASSIGN_OR_RETURN(Dataset pq,
                          engine.ReduceByKey(pq_partial, BinOp::kAdd));
  DIABLO_ASSIGN_OR_RETURN(Dataset r_pq, engine.Join(r, pq, "mf.err.join"));
  DIABLO_ASSIGN_OR_RETURN(
      Dataset err, engine.Map(r_pq, [](const Value& row) -> StatusOr<Value> {
        const Value& pr = row.tuple()[1];
        return Value::MakePair(row.tuple()[0],
                               DV(pr.tuple()[0].ToDouble() -
                                  pr.tuple()[1].ToDouble()));
      }, "mf.err"));
  // P[i,k] += sum_j a*(2*err[i,j]*Q0[k,j]) - cnt_i * a*b*P0[i,k], where
  // cnt_i is the number of provided R entries in row i (matching the
  // loop semantics). Symmetrically for Q.
  DIABLO_ASSIGN_OR_RETURN(
      Dataset err_by_j, engine.Map(err, [](const Value& row) -> StatusOr<Value> {
        return Value::MakePair(
            row.tuple()[0].tuple()[1],
            Value::MakePair(row.tuple()[0].tuple()[0], row.tuple()[1]));
      }, "mf.errByJ"));
  DIABLO_ASSIGN_OR_RETURN(
      Dataset q_by_j, engine.Map(q0, [](const Value& row) -> StatusOr<Value> {
        return Value::MakePair(
            row.tuple()[0].tuple()[1],
            Value::MakePair(row.tuple()[0].tuple()[0], row.tuple()[1]));
      }, "mf.qByJ"));
  DIABLO_ASSIGN_OR_RETURN(Dataset eq_join,
                          engine.Join(err_by_j, q_by_j, "mf.dp.join"));
  DIABLO_ASSIGN_OR_RETURN(
      Dataset dp,
      engine.Map(eq_join, [a](const Value& row) -> StatusOr<Value> {
        const Value& pr = row.tuple()[1];
        // ((i,k), 2*a*err*q).
        return Value::MakePair(
            Value::MakeTuple({pr.tuple()[0].tuple()[0],
                              pr.tuple()[1].tuple()[0]}),
            DV(2 * a * pr.tuple()[0].tuple()[1].ToDouble() *
               pr.tuple()[1].tuple()[1].ToDouble()));
      }, "mf.dp"));
  DIABLO_ASSIGN_OR_RETURN(Dataset dp_sum, engine.ReduceByKey(dp, BinOp::kAdd));
  // Row counts of err.
  DIABLO_ASSIGN_OR_RETURN(
      Dataset row_counts_src,
      engine.Map(err, [](const Value& row) -> StatusOr<Value> {
        return Value::MakePair(row.tuple()[0].tuple()[0], IV(1));
      }, "mf.rowCnt"));
  DIABLO_ASSIGN_OR_RETURN(Dataset row_counts,
                          engine.ReduceByKey(row_counts_src, BinOp::kAdd));
  // P update: key P0 by row, join with counts, apply regularization, then
  // merge the dp contributions.
  DIABLO_ASSIGN_OR_RETURN(
      Dataset p_by_row, engine.Map(p0, [](const Value& row) -> StatusOr<Value> {
        return Value::MakePair(row.tuple()[0].tuple()[0], row);
      }, "mf.pByRow"));
  DIABLO_ASSIGN_OR_RETURN(Dataset p_cnt,
                          engine.CoGroup(p_by_row, row_counts, "mf.pCnt"));
  DIABLO_ASSIGN_OR_RETURN(
      Dataset p_reg,
      engine.FlatMap(p_cnt, [a, b](const Value& row) -> StatusOr<ValueVec> {
        const ValueVec& cells = row.tuple()[1].tuple()[0].bag();
        const ValueVec& counts = row.tuple()[1].tuple()[1].bag();
        double cnt = counts.empty() ? 0.0 : counts[0].ToDouble();
        ValueVec out;
        for (const Value& cell : cells) {
          double v = cell.tuple()[1].ToDouble();
          out.push_back(
              Value::MakePair(cell.tuple()[0], DV(v - cnt * a * b * v)));
        }
        return out;
      }, "mf.pReg"));
  DIABLO_ASSIGN_OR_RETURN(Dataset p_new,
                          engine.CoGroup(p_reg, dp_sum, "mf.pNew"));
  DIABLO_ASSIGN_OR_RETURN(
      Dataset p_final,
      engine.FlatMap(p_new, [](const Value& row) -> StatusOr<ValueVec> {
        const ValueVec& regs = row.tuple()[1].tuple()[0].bag();
        const ValueVec& deltas = row.tuple()[1].tuple()[1].bag();
        ValueVec out;
        if (regs.empty()) return out;
        double v = regs[0].ToDouble();
        if (!deltas.empty()) v += deltas[0].ToDouble();
        out.push_back(Value::MakePair(row.tuple()[0], DV(v)));
        return out;
      }, "mf.pFinal"));
  return CollectSorted(engine, p_final);
}

}  // namespace

StatusOr<Value> RunHandwritten(const std::string& name, Engine& engine,
                               const Bindings& inputs) {
  if (name == "conditional_sum") return HwConditionalSum(engine, inputs);
  if (name == "equal") return HwEqual(engine, inputs);
  if (name == "string_match") return HwStringMatch(engine, inputs);
  if (name == "word_count") return HwWordCount(engine, inputs);
  if (name == "histogram") return HwHistogram(engine, inputs);
  if (name == "linear_regression") return HwLinearRegression(engine, inputs);
  if (name == "group_by") return HwGroupBy(engine, inputs);
  if (name == "matrix_addition") return HwMatrixAddition(engine, inputs);
  if (name == "matrix_multiplication") {
    return HwMatrixMultiplication(engine, inputs);
  }
  if (name == "pagerank") return HwPageRank(engine, inputs);
  if (name == "kmeans") return HwKMeans(engine, inputs);
  if (name == "matrix_factorization") {
    return HwMatrixFactorization(engine, inputs);
  }
  return Status::InvalidArgument(
      StrCat("no hand-written implementation for '", name, "'"));
}

StatusOr<RunStats> Measure(
    const runtime::EngineConfig& config,
    const std::function<StatusOr<Value>(Engine&)>& body) {
  Engine engine(config);
  auto start = std::chrono::steady_clock::now();
  DIABLO_ASSIGN_OR_RETURN(Value output, body(engine));
  auto end = std::chrono::steady_clock::now();
  RunStats stats;
  stats.output = std::move(output);
  stats.wall_seconds =
      std::chrono::duration<double>(end - start).count();
  stats.simulated_seconds =
      engine.metrics().SimulatedSeconds(config.cluster);
  stats.shuffles = engine.metrics().num_wide_stages();
  stats.shuffle_bytes = engine.metrics().total_shuffle_bytes();
  stats.work_units = engine.metrics().total_work();
  stats.attempts = engine.metrics().total_attempts();
  stats.recomputed_partitions = engine.metrics().total_recomputed_partitions();
  stats.recovery_seconds = engine.metrics().total_recovery_seconds();
  stats.fault_free_seconds =
      engine.metrics().SimulatedFaultFreeSeconds(config.cluster);
  return stats;
}

StatusOr<RunStats> RunDiablo(const ProgramSpec& spec, const Bindings& inputs,
                             const runtime::EngineConfig& config,
                             const CompileOptions& options) {
  DIABLO_ASSIGN_OR_RETURN(CompiledProgram program,
                          Compile(spec.source, options));
  return Measure(config, [&](Engine& engine) -> StatusOr<Value> {
    DIABLO_ASSIGN_OR_RETURN(ProgramRun run, Run(program, &engine, inputs));
    if (!spec.scalar_outputs.empty()) {
      return run.Scalar(spec.scalar_outputs[0]);
    }
    if (!spec.array_outputs.empty()) {
      return run.Array(spec.array_outputs[0]);
    }
    return Value::MakeUnit();
  });
}

StatusOr<RunStats> MeasureHandwritten(const ProgramSpec& spec,
                                      const Bindings& inputs,
                                      const runtime::EngineConfig& config) {
  return Measure(config, [&](Engine& engine) -> StatusOr<Value> {
    return RunHandwritten(spec.name, engine, inputs);
  });
}

std::string Mb(int64_t bytes) {
  return StrCat(bytes / (1024 * 1024), ".",
                (bytes % (1024 * 1024)) * 10 / (1024 * 1024), " MB");
}

void RunFigurePanel(const std::string& panel, const std::string& program,
                    const std::vector<int64_t>& sizes,
                    const runtime::EngineConfig& config) {
  const ProgramSpec& spec = GetProgram(program);
  std::printf("%s — %s\n", panel.c_str(), program.c_str());
  std::printf("  %10s %10s | %12s %12s %8s | %9s %9s | %8s\n", "size",
              "input(MB)", "hand(s)", "diablo(s)", "ratio", "hw.shfl",
              "dia.shfl", "outputs");
  for (int64_t n : sizes) {
    std::mt19937_64 rng(static_cast<uint64_t>(n) * 2654435761u + 7);
    Bindings inputs = spec.make_inputs(n, rng);
    int64_t bytes = 0;
    for (const auto& [name, value] : inputs) {
      if (value.is_bag()) bytes += value.SerializedBytes();
    }
    auto hw = MeasureHandwritten(spec, inputs, config);
    auto dia = RunDiablo(spec, inputs, config);
    if (!hw.ok() || !dia.ok()) {
      std::printf("  %10lld ERROR: %s%s\n", static_cast<long long>(n),
                  hw.ok() ? "" : hw.status().ToString().c_str(),
                  dia.ok() ? "" : dia.status().ToString().c_str());
      continue;
    }
    const char* agree = "n/a";
    if (hw->output.is_bag() && dia->output.is_bag()) {
      agree = runtime::BagAlmostEquals(hw->output, dia->output, 1e-6)
                  ? "agree"
                  : "DIFFER";
    } else if (!hw->output.is_unit() && !dia->output.is_unit()) {
      agree = runtime::AlmostEquals(hw->output, dia->output, 1e-6)
                  ? "agree"
                  : "DIFFER";
    }
    std::printf("  %10lld %10.2f | %12.4f %12.4f %7.2fx | %9lld %9lld | "
                "%8s\n",
                static_cast<long long>(n),
                static_cast<double>(bytes) / (1024 * 1024),
                hw->simulated_seconds, dia->simulated_seconds,
                hw->simulated_seconds > 0
                    ? dia->simulated_seconds / hw->simulated_seconds
                    : 0.0,
                static_cast<long long>(hw->shuffles),
                static_cast<long long>(dia->shuffles), agree);
  }
  std::printf("\n");
}

}  // namespace diablo::bench
