#include <optional>

#include "common/strings.h"
#include "plan/plan.h"
#include "plan/row_program.h"
#include "runtime/array.h"

namespace diablo::plan {

using comp::CExpr;
using comp::CExprPtr;
using comp::Pattern;
using runtime::BinOp;
using runtime::Dataset;
using runtime::Value;
using runtime::ValueVec;

namespace {

/// Appends the components of `value` that `pattern` binds to `out`.
Status BindPattern(const Pattern& pattern, const Value& value,
                   ValueVec* out) {
  return DestructurePattern(pattern, value,
                            [out](const Value& v) { out->push_back(v); });
}

}  // namespace

// --------------------------- plan execution ---------------------------------

StatusOr<Dataset> ExecutePlan(const CompPlan& plan, const ExecState& state) {
  runtime::Engine& engine = *state.engine;
  // Variables bound on the driver before any generator.
  std::vector<std::string> prefix_schema;
  ValueVec prefix;
  // Evaluates `e` on the driver, against the prefix.
  auto eval_driver = [&](const CExprPtr& e) {
    return EvalRowExpr(
        *CompileRowExpr(e, prefix_schema, state, /*on_driver=*/true), prefix);
  };
  // The stream, and the open segment compiling the narrow qualifiers
  // over it into one fused operator (DESIGN.md §19). Set together.
  std::optional<Dataset> ds;
  std::optional<RowSegmentBuilder> seg;

  auto open = [&](Dataset rows, SegmentBinder binder,
                  std::vector<std::string> schema) {
    ds = std::move(rows);
    seg.emplace(std::move(binder), std::move(schema), state);
  };
  // Appends the open segment, ended by `op`, to the stream.
  auto close = [&](std::optional<runtime::FusedOp> op) -> Status {
    seg.reset();
    if (!op.has_value()) return Status::OK();
    DIABLO_ASSIGN_OR_RETURN(ds, engine.Narrow(*ds, std::move(*op)));
    return Status::OK();
  };
  // Seeds the stream from the driver prefix when a wide operator arrives
  // before any generator.
  auto ensure_ds = [&]() {
    if (!ds.has_value()) {
      open(engine.Parallelize({Value::MakeTuple(prefix)}, 1), SegmentBinder(),
           prefix_schema);
    }
  };
  auto find_array = [&](const std::string& name) -> StatusOr<Dataset> {
    auto it = state.arrays->find(name);
    if (it == state.arrays->end()) {
      return Status::RuntimeError(StrCat("unknown array '", name, "'"));
    }
    return it->second;
  };

  for (const StreamOp& op : plan.ops) {
    switch (op.kind) {
      case StreamOp::Kind::kLet: {
        if (ds.has_value()) {
          seg->Let(op.pattern, op.expr);
          break;
        }
        DIABLO_ASSIGN_OR_RETURN(Value v, eval_driver(op.expr));
        DIABLO_RETURN_IF_ERROR(BindPattern(op.pattern, v, &prefix));
        op.pattern.CollectVars(&prefix_schema);
        break;
      }
      case StreamOp::Kind::kFilter: {
        if (ds.has_value()) {
          seg->Filter(op.expr);
          break;
        }
        DIABLO_ASSIGN_OR_RETURN(Value v, eval_driver(op.expr));
        if (!v.is_bool()) {
          return Status::RuntimeError(
              StrCat("condition evaluated to ", v.ToString()));
        }
        if (!v.AsBool()) return Dataset();  // statically empty
        break;
      }
      case StreamOp::Kind::kSourceArray: {
        DIABLO_ASSIGN_OR_RETURN(Dataset array, find_array(op.array));
        SegmentBinder binder;
        binder.kind = SegmentBinder::Kind::kScan;
        binder.label = StrCat("scan[", op.array, "]");
        binder.pattern = op.pattern;
        binder.prefix = prefix;
        open(std::move(array), std::move(binder), op.schema_after);
        break;
      }
      case StreamOp::Kind::kSourceRange: {
        DIABLO_ASSIGN_OR_RETURN(Value lo, eval_driver(op.expr));
        DIABLO_ASSIGN_OR_RETURN(Value hi, eval_driver(op.expr2));
        if (!lo.is_int() || !hi.is_int()) {
          return Status::RuntimeError("range bounds must be integers");
        }
        // The unsigned span is exact for hi >= lo; the count, span + 1,
        // is too large exactly when the span reaches max_size().
        const int64_t a = lo.AsInt(), b = hi.AsInt();
        if (b >= a && static_cast<uint64_t>(b) - static_cast<uint64_t>(a) >=
                          ValueVec().max_size()) {
          return Status::RuntimeError(
              StrCat("range(", a, ", ", b, ") at ", LocationString(op.loc),
                     " has too many elements to materialize"));
        }
        SegmentBinder binder;
        binder.kind = SegmentBinder::Kind::kRange;
        binder.label = "range";
        binder.pattern = op.pattern;
        binder.prefix = prefix;
        open(engine.Range(a, b), std::move(binder), op.schema_after);
        break;
      }
      case StreamOp::Kind::kIterateBag: {
        if (ds.has_value()) {
          seg->Iterate(op.pattern, op.expr);
          break;
        }
        DIABLO_ASSIGN_OR_RETURN(Value bag, eval_driver(op.expr));
        if (!bag.is_bag()) {
          return Status::RuntimeError(
              StrCat("generator domain is not a bag: ", bag.ToString()));
        }
        ValueVec rows;
        rows.reserve(bag.bag().size());
        for (const Value& elem : bag.bag()) {
          ValueVec env = prefix;
          DIABLO_RETURN_IF_ERROR(BindPattern(op.pattern, elem, &env));
          rows.push_back(Value::MakeTuple(std::move(env)));
        }
        open(engine.Parallelize(std::move(rows)), SegmentBinder(),
             op.schema_after);
        break;
      }
      case StreamOp::Kind::kJoinArray: {
        ensure_ds();
        DIABLO_ASSIGN_OR_RETURN(Dataset array, find_array(op.array));
        DIABLO_RETURN_IF_ERROR(
            close(std::move(*seg).FinishKeyRow("joinKeyL", op.left_keys)));
        SegmentBinder right_binder;
        right_binder.kind = SegmentBinder::Kind::kScan;
        right_binder.pattern = op.pattern;
        DIABLO_ASSIGN_OR_RETURN(
            Dataset right,
            engine.Narrow(array, RowSegmentBuilder(std::move(right_binder),
                                                   op.pattern.Vars(), state)
                                     .FinishKeyRow(
                                         StrCat("joinKeyR[", op.array, "]"),
                                         op.right_keys)));
        DIABLO_ASSIGN_OR_RETURN(
            Dataset joined,
            engine.Join(*ds, right, StrCat("join[", op.array, "]")));
        SegmentBinder merge;
        merge.kind = SegmentBinder::Kind::kJoinMerge;
        merge.label = "joinMerge";
        open(std::move(joined), std::move(merge), op.schema_after);
        break;
      }
      case StreamOp::Kind::kBroadcastJoinArray: {
        ensure_ds();
        DIABLO_ASSIGN_OR_RETURN(Dataset array, find_array(op.array));
        // A driver-side hash table keyed by the right key exprs, shipped
        // (conceptually) to every worker and probed in place.
        DIABLO_ASSIGN_OR_RETURN(ValueVec build_rows, engine.Collect(array));
        DIABLO_ASSIGN_OR_RETURN(
            std::shared_ptr<const ProbeTable> table,
            BuildProbeTable(build_rows, op.pattern, op.right_keys, state));
        seg->Probe(StrCat("broadcastJoin[", op.array, "]"), std::move(table),
                   op.left_keys, op.pattern);
        // Charge the one-time ship of the build side to every worker.
        runtime::StageStats ship;
        ship.label = StrCat("broadcastJoin[", op.array, "].ship");
        ship.wide = true;
        ship.shuffle_bytes =
            array.TotalBytes() * engine.config().cluster.num_workers;
        engine.RecordPlannerStage(std::move(ship));
        break;
      }
      case StreamOp::Kind::kCartesianArray: {
        ensure_ds();
        DIABLO_ASSIGN_OR_RETURN(Dataset array, find_array(op.array));
        // Broadcast the array: every row of the stream is combined with
        // every array element (a nested-loop / broadcast join).
        std::vector<std::string> env_schema = seg->schema();
        DIABLO_RETURN_IF_ERROR(close(std::move(*seg).FinishEnv()));
        DIABLO_ASSIGN_OR_RETURN(ValueVec broadcast, engine.Collect(array));
        auto product = std::make_shared<std::vector<ValueVec>>();
        product->reserve(broadcast.size());
        for (const Value& row : broadcast) {
          ValueVec bound;
          DIABLO_RETURN_IF_ERROR(BindPattern(op.pattern, row, &bound));
          product->push_back(std::move(bound));
        }
        // Force the stream so the product accounting below sees its
        // logical row count.
        DIABLO_ASSIGN_OR_RETURN(Dataset forced, engine.Force(*ds));
        const int64_t left_rows = forced.TotalRows();
        const int64_t right_rows = static_cast<int64_t>(product->size());
        SegmentBinder binder;
        binder.kind = SegmentBinder::Kind::kCartesian;
        binder.label = StrCat("cartesian[", op.array, "]");
        binder.pattern = op.pattern;
        binder.product = std::move(product);
        open(std::move(forced), std::move(binder), std::move(env_schema));
        // Account the product work and the broadcast traffic (the
        // segment's stage only charges |left| rows).
        const int parts = engine.config().num_partitions;
        runtime::StageStats extra;
        extra.label = StrCat("cartesian[", op.array, "].product");
        extra.wide = true;
        extra.map_work.assign(static_cast<size_t>(parts),
                              left_rows * right_rows / std::max(1, parts));
        extra.shuffle_bytes =
            array.TotalBytes() * engine.config().cluster.num_workers;
        engine.RecordPlannerStage(std::move(extra));
        break;
      }
      case StreamOp::Kind::kGroupBy: {
        ensure_ds();
        const std::vector<std::string>& in_schema = seg->schema();
        std::vector<size_t> positions;
        for (const std::string& v : op.lifted) {
          for (size_t i = 0; i < in_schema.size(); ++i) {
            if (in_schema[i] == v) positions.push_back(i);
          }
        }
        DIABLO_RETURN_IF_ERROR(close(
            std::move(*seg).FinishGroupKey(op.expr, std::move(positions))));
        DIABLO_ASSIGN_OR_RETURN(Dataset grouped,
                                engine.GroupByKey(*ds, "groupBy"));
        SegmentBinder lift;
        lift.kind = SegmentBinder::Kind::kGroupLift;
        lift.label = "groupLift";
        lift.pattern = op.pattern;
        lift.lifted = op.lifted.size();
        open(std::move(grouped), std::move(lift), op.schema_after);
        break;
      }
      case StreamOp::Kind::kReduceByKey: {
        ensure_ds();
        DIABLO_RETURN_IF_ERROR(close(
            std::move(*seg).FinishReduceKey(op.expr, op.reduce_value)));
        DIABLO_ASSIGN_OR_RETURN(
            Dataset reduced,
            engine.ReduceByKey(
                *ds, op.reduce_op,
                StrCat("reduceByKey[", runtime::BinOpName(op.reduce_op), "]"),
                op.schema));
        SegmentBinder bind;
        bind.kind = SegmentBinder::Kind::kReduceBind;
        bind.label = "reduceBind";
        bind.pattern = op.pattern;
        open(std::move(reduced), std::move(bind), op.schema_after);
        break;
      }
    }
  }

  // Yield the head per surviving row.
  if (!ds.has_value()) {
    DIABLO_ASSIGN_OR_RETURN(Value v, eval_driver(plan.head));
    return engine.Parallelize({std::move(v)}, 1);
  }
  DIABLO_RETURN_IF_ERROR(close(std::move(*seg).FinishHead(plan.head)));
  return *ds;
}

// --------------------------- driver / array entry points --------------------

StatusOr<Value> EvalDriverExpr(const CExprPtr& e, const ExecState& state) {
  return EvalRowExpr(*CompileRowExpr(e, {}, state, /*on_driver=*/true), {});
}

StatusOr<Dataset> EvalArrayExpr(const CExprPtr& e, const ExecState& state) {
  runtime::Engine& engine = *state.engine;
  if (e->is<CExpr::Var>()) {
    const std::string& name = e->as<CExpr::Var>().name;
    auto it = state.arrays->find(name);
    if (it != state.arrays->end()) return it->second;
    return Status::RuntimeError(StrCat("unknown array '", name, "'"));
  }
  if (e->is<CExpr::BagCons>()) {
    DIABLO_ASSIGN_OR_RETURN(Value bag, EvalDriverExpr(e, state));
    return engine.Parallelize(bag.bag());
  }
  if (e->is<CExpr::Nested>()) {
    DIABLO_ASSIGN_OR_RETURN(CompPlan plan,
                            BuildPlan(e->as<CExpr::Nested>().comp, state));
    return ExecutePlan(plan, state);
  }
  if (e->is<CExpr::Merge>()) {
    const auto& m = e->as<CExpr::Merge>();
    DIABLO_ASSIGN_OR_RETURN(Dataset left, EvalArrayExpr(m.left, state));
    DIABLO_ASSIGN_OR_RETURN(Dataset right, EvalArrayExpr(m.right, state));
    return runtime::ArrayMerge(
        engine, left, right,
        m.has_op ? std::optional<BinOp>(m.op) : std::nullopt);
  }
  return Status::RuntimeError(
      StrCat("expression is not array-valued: ", e->ToString()));
}

}  // namespace diablo::plan
