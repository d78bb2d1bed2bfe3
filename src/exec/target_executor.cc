#include "exec/target_executor.h"

#include <algorithm>

#include "common/strings.h"

namespace diablo::exec {

using comp::TargetStmt;
using runtime::Dataset;
using runtime::Value;
using runtime::ValueVec;

namespace {

/// Human-readable label for a statement's trace span.
std::string StmtLabel(const comp::TargetStmtPtr& stmt) {
  if (stmt->is<TargetStmt::Declare>()) {
    return StrCat("declare ", stmt->as<TargetStmt::Declare>().var);
  }
  if (stmt->is<TargetStmt::Assign>()) {
    return StrCat("assign ", stmt->as<TargetStmt::Assign>().var);
  }
  return "while";
}

/// Installs statement provenance on the engine for the current scope and
/// restores the previous provenance on exit (While bodies re-enter).
class ProvenanceScope {
 public:
  ProvenanceScope(runtime::Engine* engine, runtime::EngineProvenance p)
      : engine_(engine), prev_(engine->SwapProvenance(std::move(p))) {}
  ~ProvenanceScope() { engine_->SwapProvenance(std::move(prev_)); }
  ProvenanceScope(const ProvenanceScope&) = delete;
  ProvenanceScope& operator=(const ProvenanceScope&) = delete;

 private:
  runtime::Engine* engine_;
  runtime::EngineProvenance prev_;
};

}  // namespace

const plan::ExecState& TargetExecutor::State() {
  state_.engine = engine_;
  state_.scalars = &scalars_;
  state_.arrays = &arrays_;
  state_.profile = profile_;
  return state_;
}

Status TargetExecutor::StoreArray(const std::string& name, Dataset sparse) {
  // Stored arrays are materialization boundaries: the plan's trailing
  // narrow operators (the translated comprehension's flatMap/map/filter
  // tail) run here as one fused stage, and everything downstream
  // (planner size estimates, tile packing, direct partition reads) sees
  // real rows.
  DIABLO_ASSIGN_OR_RETURN(sparse, engine_->Force(sparse));
  if (!IsTiled(name)) {
    arrays_[name] = std::move(sparse);
    return Status::OK();
  }
  DIABLO_ASSIGN_OR_RETURN(Dataset tiled,
                          tiles::Pack(*engine_, sparse, tile_config_));
  tiled_[name] = std::move(tiled);
  dirty_.insert(name);
  arrays_[name] = Dataset();  // placeholder until refreshed
  return Status::OK();
}

Status TargetExecutor::RefreshArray(const std::string& name) const {
  if (dirty_.count(name) == 0) return Status::OK();
  DIABLO_ASSIGN_OR_RETURN(
      Dataset unpacked,
      tiles::Unpack(*engine_, tiled_.at(name), tile_config_));
  // The sparse view is read directly (partition scans, size estimates),
  // so run the unpack chain now.
  DIABLO_ASSIGN_OR_RETURN(unpacked, engine_->Force(unpacked));
  arrays_[name] = std::move(unpacked);
  dirty_.erase(name);
  return Status::OK();
}

Status TargetExecutor::RefreshReferencedArrays(const comp::CExprPtr& e) {
  if (dirty_.empty() || e == nullptr) return Status::OK();
  for (const std::string& name : comp::FreeVars(e)) {
    if (dirty_.count(name) != 0) {
      DIABLO_RETURN_IF_ERROR(RefreshArray(name));
    }
  }
  return Status::OK();
}

StatusOr<bool> TargetExecutor::TryTiledIncrementalMerge(
    const std::string& name, const comp::CExprPtr& value) {
  // Shape: Merge(Var name, delta) with combining op +, produced by
  // rule (15a) for additive updates.
  if (!value->is<comp::CExpr::Merge>()) return false;
  const auto& merge = value->as<comp::CExpr::Merge>();
  if (!merge.has_op || merge.op != runtime::BinOp::kAdd) return false;
  if (!merge.left->is<comp::CExpr::Var>() ||
      merge.left->as<comp::CExpr::Var>().name != name) {
    return false;
  }
  auto it = tiled_.find(name);
  if (it == tiled_.end()) return false;
  DIABLO_RETURN_IF_ERROR(RefreshReferencedArrays(merge.right));
  DIABLO_ASSIGN_OR_RETURN(Dataset delta,
                          plan::EvalArrayExpr(merge.right, State()));
  // Pack the delta on the same partitioner and combine tile-by-tile.
  // Zero-filled tile slots are the + identity, so elementwise addition
  // implements old ⊳+ delta exactly. The stored tiles never shuffle and
  // the sparse view is only re-unpacked when something reads it.
  DIABLO_ASSIGN_OR_RETURN(Dataset packed_delta,
                          tiles::Pack(*engine_, delta, tile_config_));
  DIABLO_ASSIGN_OR_RETURN(
      Dataset merged, tiles::ZipMergeAdd(*engine_, it->second, packed_delta));
  tiled_[name] = std::move(merged);
  dirty_.insert(name);
  arrays_[name] = Dataset();
  return true;
}

Status TargetExecutor::Run(const comp::TargetProgram& program,
                           const Bindings& inputs) {
  scalars_.clear();
  arrays_.clear();
  tiled_.clear();
  statements_executed_ = 0;
  // The run span is the root of the trace; input materialization below
  // happens inside it but outside any statement span, so reports group
  // those stages as setup.
  runtime::ScopedSpan run_span(
      engine_->trace(), runtime::SpanKind::kRun,
      program_name_.empty() ? "run" : StrCat("run ", program_name_));
  for (const auto& [name, value] : inputs) {
    if (value.is_bag()) {
      ValueVec rows = value.bag();
      for (const Value& row : rows) {
        if (!row.is_tuple() || row.tuple().size() != 2) {
          return Status::InvalidArgument(
              StrCat("input array '", name,
                     "' must contain (key,value) pairs, got ",
                     row.ToString()));
        }
      }
      DIABLO_RETURN_IF_ERROR(
          StoreArray(name, engine_->Parallelize(std::move(rows))));
    } else {
      scalars_[name] = value;
    }
  }
  for (const auto& stmt : program.stmts) {
    DIABLO_RETURN_IF_ERROR(ExecStmt(stmt));
  }
  return Status::OK();
}

Status TargetExecutor::ExecStmt(const comp::TargetStmtPtr& stmt) {
  ++statements_executed_;
  std::string label = StmtLabel(stmt);
  runtime::ScopedSpan stmt_span(engine_->trace(),
                                runtime::SpanKind::kStatement, label);
  stmt_span.SetLocation(program_name_, stmt->loc.line, stmt->loc.column);
  if (runtime::EventLog* events = engine_->config().events) {
    runtime::Event e;
    e.name = "statement";
    e.src_file = program_name_;
    e.src_line = stmt->loc.line;
    e.src_column = stmt->loc.column;
    e.strs.emplace_back("label", label);
    events->Emit(std::move(e));
  }
  ProvenanceScope provenance(
      engine_, runtime::EngineProvenance{program_name_, stmt->loc.line,
                                         stmt->loc.column, std::move(label)});
  if (stmt->is<TargetStmt::Declare>()) {
    const auto& d = stmt->as<TargetStmt::Declare>();
    if (d.is_array) {
      arrays_[d.var] = Dataset();
      if (IsTiled(d.var)) {
        tiled_[d.var] = Dataset();
        dirty_.erase(d.var);
      }
      return Status::OK();
    }
    if (d.init != nullptr) {
      DIABLO_RETURN_IF_ERROR(RefreshReferencedArrays(d.init));
      DIABLO_ASSIGN_OR_RETURN(Value bag,
                              plan::EvalDriverExpr(d.init, State()));
      if (!bag.is_bag() || bag.bag().size() != 1) {
        return Status::RuntimeError(
            StrCat("initializer of '", d.var,
                   "' did not produce a single value: ", bag.ToString()));
      }
      scalars_[d.var] = bag.bag()[0];
    } else {
      scalars_[d.var] = Value::MakeUnit();
    }
    return Status::OK();
  }
  if (stmt->is<TargetStmt::Assign>()) {
    const auto& a = stmt->as<TargetStmt::Assign>();
    if (a.is_array) {
      if (IsTiled(a.var)) {
        DIABLO_ASSIGN_OR_RETURN(bool handled,
                                TryTiledIncrementalMerge(a.var, a.value));
        if (handled) return Status::OK();
      }
      DIABLO_RETURN_IF_ERROR(RefreshReferencedArrays(a.value));
      DIABLO_ASSIGN_OR_RETURN(Dataset ds,
                              plan::EvalArrayExpr(a.value, State()));
      return StoreArray(a.var, std::move(ds));
    }
    DIABLO_RETURN_IF_ERROR(RefreshReferencedArrays(a.value));
    DIABLO_ASSIGN_OR_RETURN(Value bag, plan::EvalDriverExpr(a.value, State()));
    if (!bag.is_bag()) {
      return Status::RuntimeError(
          StrCat("scalar assignment to '", a.var,
                 "' produced a non-bag value: ", bag.ToString()));
    }
    if (bag.bag().empty()) return Status::OK();  // lifted: no update
    if (bag.bag().size() > 1) {
      return Status::RuntimeError(
          StrCat("scalar assignment to '", a.var, "' produced ",
                 bag.bag().size(), " values"));
    }
    scalars_[a.var] = bag.bag()[0];
    return Status::OK();
  }
  const auto& w = stmt->as<TargetStmt::While>();
  for (;;) {
    DIABLO_RETURN_IF_ERROR(RefreshReferencedArrays(w.cond));
    DIABLO_ASSIGN_OR_RETURN(Value cond, plan::EvalDriverExpr(w.cond, State()));
    if (!cond.is_bag()) {
      return Status::RuntimeError("while condition did not lift to a bag");
    }
    if (cond.bag().empty()) return Status::OK();
    if (!cond.bag()[0].is_bool()) {
      return Status::RuntimeError(
          StrCat("while condition evaluated to ", cond.bag()[0].ToString()));
    }
    if (!cond.bag()[0].AsBool()) return Status::OK();
    for (const auto& child : w.body) {
      DIABLO_RETURN_IF_ERROR(ExecStmt(child));
    }
    DIABLO_RETURN_IF_ERROR(CheckpointLoopArrays());
  }
}

Status TargetExecutor::CheckpointLoopArrays() {
  const runtime::EngineConfig& config = engine_->config();
  const int threshold = config.faults.lineage_checkpoint_depth;
  if (!config.faults.enabled() || threshold <= 0) return Status::OK();
  for (auto& [name, ds] : arrays_) {
    // Dirty entries are stale sparse views of tiled arrays; they are
    // rebuilt from the tiled store on next use, so nothing to protect.
    if (dirty_.count(name) != 0) continue;
    if (ds.lineage_depth() < threshold) continue;
    DIABLO_ASSIGN_OR_RETURN(
        ds, engine_->Checkpoint(ds, StrCat("checkpoint[", name, "]")));
  }
  return Status::OK();
}

StatusOr<Value> TargetExecutor::GetScalar(const std::string& name) const {
  auto it = scalars_.find(name);
  if (it == scalars_.end()) {
    return Status::InvalidArgument(StrCat("no scalar variable '", name, "'"));
  }
  return it->second;
}

StatusOr<Value> TargetExecutor::GetArray(const std::string& name) const {
  auto it = arrays_.find(name);
  if (it == arrays_.end()) {
    return Status::InvalidArgument(StrCat("no array variable '", name, "'"));
  }
  DIABLO_RETURN_IF_ERROR(RefreshArray(name));
  DIABLO_ASSIGN_OR_RETURN(ValueVec rows, engine_->Collect(it->second));
  std::sort(rows.begin(), rows.end());
  return Value::MakeBag(std::move(rows));
}

StatusOr<Dataset> TargetExecutor::GetArrayDataset(
    const std::string& name) const {
  auto it = arrays_.find(name);
  if (it == arrays_.end()) {
    return Status::InvalidArgument(StrCat("no array variable '", name, "'"));
  }
  DIABLO_RETURN_IF_ERROR(RefreshArray(name));
  return it->second;
}

}  // namespace diablo::exec
