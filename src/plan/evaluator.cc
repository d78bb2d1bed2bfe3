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

constexpr int64_t kMaxLocalRange = 1 << 24;

/// Appends the components of `value` that `pattern` binds to `out`.
Status BindPattern(const Pattern& pattern, const Value& value,
                   ValueVec* out) {
  return DestructurePattern(pattern, value,
                            [out](const Value& v) { out->push_back(v); });
}

// --------------------------- driver expressions -----------------------------

/// Evaluates a comprehension expression on the driver. Names resolve to
/// the plan's driver-bound prefix (`schema`-ordered `values`), then to
/// driver scalars, then to whole arrays (collected); nested
/// comprehensions are planned and executed. Per-row evaluation is
/// compiled instead (plan/row_program.h).
struct DriverCtx {
  const std::vector<std::string>* schema;
  const ValueVec* values;
  const ExecState* state;
};

StatusOr<Value> EvalExpr(const CExprPtr& e, const DriverCtx& ctx);

StatusOr<Value> EvalCallExpr(const CExpr::Call& call, const DriverCtx& ctx) {
  ValueVec args;
  for (const auto& a : call.args) {
    DIABLO_ASSIGN_OR_RETURN(Value v, EvalExpr(a, ctx));
    args.push_back(std::move(v));
  }
  std::optional<runtime::Builtin> fn = runtime::FindBuiltin(call.function);
  if (!fn.has_value()) {
    return Status::RuntimeError(
        StrCat("unknown builtin '", call.function, "'"));
  }
  return runtime::EvalBuiltin(*fn, args);
}

StatusOr<Value> EvalExpr(const CExprPtr& e, const DriverCtx& ctx) {
  if (e->is<CExpr::Var>()) {
    const std::string& name = e->as<CExpr::Var>().name;
    for (size_t i = 0; i < ctx.schema->size(); ++i) {
      if ((*ctx.schema)[i] == name) return (*ctx.values)[i];
    }
    if (ctx.state->scalars != nullptr) {
      auto it = ctx.state->scalars->find(name);
      if (it != ctx.state->scalars->end()) return it->second;
    }
    if (ctx.state->arrays != nullptr) {
      auto it = ctx.state->arrays->find(name);
      if (it != ctx.state->arrays->end()) {
        // Materialize the array as a bag of pairs.
        DIABLO_ASSIGN_OR_RETURN(ValueVec rows,
                                ctx.state->engine->Collect(it->second));
        return Value::MakeBag(std::move(rows));
      }
    }
    return Status::RuntimeError(StrCat("unbound variable '", name, "'"));
  }
  if (e->is<CExpr::IntConst>()) {
    return Value::MakeInt(e->as<CExpr::IntConst>().value);
  }
  if (e->is<CExpr::DoubleConst>()) {
    return Value::MakeDouble(e->as<CExpr::DoubleConst>().value);
  }
  if (e->is<CExpr::BoolConst>()) {
    return Value::MakeBool(e->as<CExpr::BoolConst>().value);
  }
  if (e->is<CExpr::StringConst>()) {
    return Value::MakeString(e->as<CExpr::StringConst>().value);
  }
  if (e->is<CExpr::Bin>()) {
    const auto& b = e->as<CExpr::Bin>();
    DIABLO_ASSIGN_OR_RETURN(Value l, EvalExpr(b.lhs, ctx));
    // Short-circuit booleans.
    if (b.op == BinOp::kAnd && l.is_bool() && !l.AsBool()) {
      return Value::MakeBool(false);
    }
    if (b.op == BinOp::kOr && l.is_bool() && l.AsBool()) {
      return Value::MakeBool(true);
    }
    DIABLO_ASSIGN_OR_RETURN(Value r, EvalExpr(b.rhs, ctx));
    return runtime::EvalBinOp(b.op, l, r);
  }
  if (e->is<CExpr::Un>()) {
    const auto& u = e->as<CExpr::Un>();
    DIABLO_ASSIGN_OR_RETURN(Value v, EvalExpr(u.operand, ctx));
    return runtime::EvalUnOp(u.op, v);
  }
  if (e->is<CExpr::TupleCons>()) {
    ValueVec elems;
    for (const auto& c : e->as<CExpr::TupleCons>().elems) {
      DIABLO_ASSIGN_OR_RETURN(Value v, EvalExpr(c, ctx));
      elems.push_back(std::move(v));
    }
    return Value::MakeTuple(std::move(elems));
  }
  if (e->is<CExpr::RecordCons>()) {
    runtime::FieldVec fields;
    for (const auto& [n, c] : e->as<CExpr::RecordCons>().fields) {
      DIABLO_ASSIGN_OR_RETURN(Value v, EvalExpr(c, ctx));
      fields.emplace_back(n, std::move(v));
    }
    return Value::MakeRecord(std::move(fields));
  }
  if (e->is<CExpr::Proj>()) {
    const auto& p = e->as<CExpr::Proj>();
    DIABLO_ASSIGN_OR_RETURN(Value base, EvalExpr(p.base, ctx));
    if (base.is_record()) {
      const Value* f = base.FindField(p.field);
      if (f == nullptr) {
        return Status::RuntimeError(StrCat("record ", base.ToString(),
                                           " has no field '", p.field, "'"));
      }
      return *f;
    }
    if (base.is_tuple() && p.field.size() >= 2 && p.field[0] == '_') {
      int idx = std::atoi(p.field.c_str() + 1);
      if (idx >= 1 && static_cast<size_t>(idx) <= base.tuple().size()) {
        return base.tuple()[static_cast<size_t>(idx) - 1];
      }
    }
    return Status::RuntimeError(StrCat("cannot project .", p.field,
                                       " out of ", base.ToString()));
  }
  if (e->is<CExpr::Call>()) return EvalCallExpr(e->as<CExpr::Call>(), ctx);
  if (e->is<CExpr::Reduce>()) {
    const auto& r = e->as<CExpr::Reduce>();
    // Reduce a distributed comprehension without collecting it.
    if (r.arg->is<CExpr::Nested>()) {
      DIABLO_ASSIGN_OR_RETURN(
          CompPlan sub,
          BuildPlan(r.arg->as<CExpr::Nested>().comp, *ctx.state));
      DIABLO_ASSIGN_OR_RETURN(Dataset ds, ExecutePlan(sub, *ctx.state));
      BinOp op = r.op;
      // The BinOp overload lets the engine fold with native arithmetic
      // while the rows are numeric (bit-identical to EvalBinOp).
      DIABLO_ASSIGN_OR_RETURN(
          std::optional<Value> acc,
          ctx.state->engine->Reduce(
              ds, op, StrCat("reduce[", runtime::BinOpName(op), "]")));
      if (acc.has_value()) return *acc;
      return runtime::MonoidIdentity(op, Value::MakeInt(0));
    }
    DIABLO_ASSIGN_OR_RETURN(Value bag, EvalExpr(r.arg, ctx));
    if (!bag.is_bag()) {
      return Status::RuntimeError(
          StrCat("reduction ", runtime::BinOpName(r.op), "/ applied to ",
                 bag.ToString()));
    }
    return runtime::ReduceBag(r.op, bag.bag());
  }
  if (e->is<CExpr::Nested>()) {
    DIABLO_ASSIGN_OR_RETURN(
        CompPlan sub, BuildPlan(e->as<CExpr::Nested>().comp, *ctx.state));
    DIABLO_ASSIGN_OR_RETURN(Dataset ds, ExecutePlan(sub, *ctx.state));
    DIABLO_ASSIGN_OR_RETURN(ValueVec rows, ctx.state->engine->Collect(ds));
    return Value::MakeBag(std::move(rows));
  }
  if (e->is<CExpr::Range>()) {
    const auto& r = e->as<CExpr::Range>();
    DIABLO_ASSIGN_OR_RETURN(Value lo, EvalExpr(r.lo, ctx));
    DIABLO_ASSIGN_OR_RETURN(Value hi, EvalExpr(r.hi, ctx));
    if (!lo.is_int() || !hi.is_int()) {
      return Status::RuntimeError("range bounds must be integers");
    }
    int64_t a = lo.AsInt(), b = hi.AsInt();
    if (b - a + 1 > kMaxLocalRange) {
      return Status::RuntimeError("range too large to materialize per-row");
    }
    ValueVec elems;
    for (int64_t i = a; i <= b; ++i) elems.push_back(Value::MakeInt(i));
    return Value::MakeBag(std::move(elems));
  }
  if (e->is<CExpr::Merge>()) {
    DIABLO_ASSIGN_OR_RETURN(Dataset ds, EvalArrayExpr(e, *ctx.state));
    DIABLO_ASSIGN_OR_RETURN(ValueVec rows, ctx.state->engine->Collect(ds));
    return Value::MakeBag(std::move(rows));
  }
  // BagCons.
  ValueVec elems;
  for (const auto& c : e->as<CExpr::BagCons>().elems) {
    DIABLO_ASSIGN_OR_RETURN(Value v, EvalExpr(c, ctx));
    elems.push_back(std::move(v));
  }
  return Value::MakeBag(std::move(elems));
}

}  // namespace

// --------------------------- plan execution ---------------------------------

StatusOr<Dataset> ExecutePlan(const CompPlan& plan, const ExecState& state) {
  runtime::Engine& engine = *state.engine;
  // Variables bound on the driver before any generator.
  std::vector<std::string> prefix_schema;
  ValueVec prefix;
  const DriverCtx driver_ctx{&prefix_schema, &prefix, &state};
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
        DIABLO_ASSIGN_OR_RETURN(Value v, EvalExpr(op.expr, driver_ctx));
        DIABLO_RETURN_IF_ERROR(BindPattern(op.pattern, v, &prefix));
        op.pattern.CollectVars(&prefix_schema);
        break;
      }
      case StreamOp::Kind::kFilter: {
        if (ds.has_value()) {
          seg->Filter(op.expr);
          break;
        }
        DIABLO_ASSIGN_OR_RETURN(Value v, EvalExpr(op.expr, driver_ctx));
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
        DIABLO_ASSIGN_OR_RETURN(Value lo, EvalExpr(op.expr, driver_ctx));
        DIABLO_ASSIGN_OR_RETURN(Value hi, EvalExpr(op.expr2, driver_ctx));
        if (!lo.is_int() || !hi.is_int()) {
          return Status::RuntimeError("range bounds must be integers");
        }
        SegmentBinder binder;
        binder.kind = SegmentBinder::Kind::kRange;
        binder.label = "range";
        binder.pattern = op.pattern;
        binder.prefix = prefix;
        open(engine.Range(lo.AsInt(), hi.AsInt()), std::move(binder),
             op.schema_after);
        break;
      }
      case StreamOp::Kind::kIterateBag: {
        if (ds.has_value()) {
          seg->Iterate(op.pattern, op.expr);
          break;
        }
        DIABLO_ASSIGN_OR_RETURN(Value bag, EvalExpr(op.expr, driver_ctx));
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
    DIABLO_ASSIGN_OR_RETURN(Value v, EvalExpr(plan.head, driver_ctx));
    return engine.Parallelize({std::move(v)}, 1);
  }
  DIABLO_RETURN_IF_ERROR(close(std::move(*seg).FinishHead(plan.head)));
  return *ds;
}

// --------------------------- driver / array entry points --------------------

StatusOr<Value> EvalDriverExpr(const CExprPtr& e, const ExecState& state) {
  const std::vector<std::string> no_schema;
  const ValueVec no_values;
  return EvalExpr(e, DriverCtx{&no_schema, &no_values, &state});
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
    ValueVec rows;
    for (const auto& c : e->as<CExpr::BagCons>().elems) {
      DIABLO_ASSIGN_OR_RETURN(Value v, EvalDriverExpr(c, state));
      rows.push_back(std::move(v));
    }
    return engine.Parallelize(std::move(rows));
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
    if (!m.has_op) return runtime::ArrayMerge(engine, left, right);
    // Combining merge: old ⊕ delta per key, one side alone passes through.
    BinOp op = m.op;
    DIABLO_ASSIGN_OR_RETURN(Dataset grouped,
                            engine.CoGroup(left, right, "mergeInc"));
    return engine.FlatMap(
        grouped,
        [op](const Value& row) -> StatusOr<ValueVec> {
          const Value& key = row.tuple()[0];
          const ValueVec& olds = row.tuple()[1].tuple()[0].bag();
          const ValueVec& deltas = row.tuple()[1].tuple()[1].bag();
          ValueVec out;
          if (deltas.empty()) {
            if (!olds.empty()) {
              out.push_back(Value::MakePair(key, olds.back()));
            }
            return out;
          }
          DIABLO_ASSIGN_OR_RETURN(Value acc, runtime::ReduceBag(op, deltas));
          if (!olds.empty()) {
            DIABLO_ASSIGN_OR_RETURN(acc,
                                    runtime::EvalBinOp(op, olds.back(), acc));
          }
          out.push_back(Value::MakePair(key, std::move(acc)));
          return out;
        },
        "mergeInc.combine");
  }
  return Status::RuntimeError(
      StrCat("expression is not array-valued: ", e->ToString()));
}

}  // namespace diablo::plan
