#include "analysis/plan_lint.h"

#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "analysis/emptiness.h"
#include "common/strings.h"
#include "plan/plan.h"
#include "runtime/dataset.h"
#include "runtime/value.h"

namespace diablo::analysis {

using comp::CExpr;
using comp::CExprPtr;
using comp::CompPtr;
using comp::TargetStmt;
using comp::TargetStmtPtr;
using plan::CompPlan;
using plan::StreamOp;

namespace {

/// What evaluating one comprehension-calculus expression costs: the wide
/// (shuffling) stages it runs, in pipeline order.
struct WideStage {
  std::string label;
  /// Row width (slots) at the shuffle, for the ~bytes/row estimate.
  int row_slots = 0;
  /// Estimated serialized bytes per shuffled row. Typed stages
  /// (reduceByKey with an inferred ColumnSchema) use the real column
  /// widths; everything else prices row_slots at --bytes-per-slot.
  int64_t row_bytes = 0;
};

/// Row-count upper bounds; kUnboundedRows = no static bound.
constexpr int64_t kUnboundedRows = Interval::kPosInf;

int64_t MulRows(int64_t a, int64_t b) {
  if (a == 0 || b == 0) return 0;
  if (a == kUnboundedRows || b == kUnboundedRows) return kUnboundedRows;
  if (a > kUnboundedRows / b) return kUnboundedRows;
  return a * b;
}

int64_t AddRows(int64_t a, int64_t b) {
  if (a == kUnboundedRows || b == kUnboundedRows) return kUnboundedRows;
  if (a > kUnboundedRows - b) return kUnboundedRows;
  return a + b;
}

struct ExprFacts {
  std::vector<WideStage> stages;
  /// Upper bound on the rows of an array-valued expression (merge,
  /// comprehension, array variable); kUnboundedRows when unknown.
  int64_t max_rows = kUnboundedRows;
};

/// True when `e` contains `⊕/v` for some v in `vars` (a reduction of a
/// group-by-lifted bag — the reduceByKey shape).
bool ContainsReduceOfVar(const CExprPtr& e,
                         const std::set<std::string>& vars) {
  if (e == nullptr) return false;
  if (e->is<CExpr::Reduce>()) {
    const auto& r = e->as<CExpr::Reduce>();
    if (r.arg != nullptr && r.arg->is<CExpr::Var>() &&
        vars.count(r.arg->as<CExpr::Var>().name) != 0) {
      return true;
    }
    return ContainsReduceOfVar(r.arg, vars);
  }
  if (e->is<CExpr::Bin>()) {
    return ContainsReduceOfVar(e->as<CExpr::Bin>().lhs, vars) ||
           ContainsReduceOfVar(e->as<CExpr::Bin>().rhs, vars);
  }
  if (e->is<CExpr::Un>()) {
    return ContainsReduceOfVar(e->as<CExpr::Un>().operand, vars);
  }
  if (e->is<CExpr::TupleCons>()) {
    for (const auto& el : e->as<CExpr::TupleCons>().elems) {
      if (ContainsReduceOfVar(el, vars)) return true;
    }
    return false;
  }
  if (e->is<CExpr::RecordCons>()) {
    for (const auto& [name, el] : e->as<CExpr::RecordCons>().fields) {
      if (ContainsReduceOfVar(el, vars)) return true;
    }
    return false;
  }
  if (e->is<CExpr::Proj>()) {
    return ContainsReduceOfVar(e->as<CExpr::Proj>().base, vars);
  }
  if (e->is<CExpr::Call>()) {
    for (const auto& a : e->as<CExpr::Call>().args) {
      if (ContainsReduceOfVar(a, vars)) return true;
    }
    return false;
  }
  if (e->is<CExpr::Nested>()) {
    const CompPtr& c = e->as<CExpr::Nested>().comp;
    if (ContainsReduceOfVar(c->head, vars)) return true;
    for (const auto& q : c->qualifiers) {
      if (ContainsReduceOfVar(q.expr, vars)) return true;
    }
    return false;
  }
  if (e->is<CExpr::Merge>()) {
    return ContainsReduceOfVar(e->as<CExpr::Merge>().left, vars) ||
           ContainsReduceOfVar(e->as<CExpr::Merge>().right, vars);
  }
  if (e->is<CExpr::BagCons>()) {
    for (const auto& el : e->as<CExpr::BagCons>().elems) {
      if (ContainsReduceOfVar(el, vars)) return true;
    }
    return false;
  }
  if (e->is<CExpr::Range>()) {
    return ContainsReduceOfVar(e->as<CExpr::Range>().lo, vars) ||
           ContainsReduceOfVar(e->as<CExpr::Range>().hi, vars);
  }
  return false;
}

void CollectDeclaredArrays(const std::vector<TargetStmtPtr>& stmts,
                           std::set<std::string>* out) {
  for (const auto& s : stmts) {
    if (s->is<TargetStmt::Declare>()) {
      if (s->as<TargetStmt::Declare>().is_array) {
        out->insert(s->as<TargetStmt::Declare>().var);
      }
    } else if (s->is<TargetStmt::While>()) {
      CollectDeclaredArrays(s->as<TargetStmt::While>().body, out);
    }
  }
}

class PlanLinter {
 public:
  PlanLinter(const std::set<std::string>& array_vars,
             const PlanLintOptions& options)
      : options_(options) {
    for (const std::string& v : array_vars) {
      arrays_[v] = runtime::Dataset();
    }
    state_.engine = nullptr;
    state_.scalars = &scalars_;
    state_.arrays = &arrays_;
  }

  PlanLintResult Run(const comp::TargetProgram& target) {
    std::set<std::string> declared;
    CollectDeclaredArrays(target.stmts, &declared);
    for (const std::string& v : declared) {
      if (arrays_.count(v) == 0) arrays_[v] = runtime::Dataset();
    }
    into_empty_ = AssignmentsToEmptyArrays(target.stmts);
    WalkStmts(target.stmts);
    // P103: a narrow-only producer whose array feeds exactly one scan and
    // no join could have been fused into its consumer.
    for (const auto& [var, info] : producers_) {
      if (!info.narrow) continue;
      if (scan_consumers_[var] != 1 || other_consumers_[var] != 0) continue;
      Emit(diag::kMissedFusion, Severity::kWarning, consumer_loc_[var],
           StrCat("array '", var,
                  "' is built by a narrow pipeline (line ", info.loc.line,
                  ") and scanned by a single consumer; the intermediate "
                  "array is a missed narrow-fusion opportunity"),
           "inline the producer comprehension into its consumer to avoid "
           "materializing and re-scanning the array");
    }
    Emit(diag::kProgramShuffles, Severity::kNote, SourceLocation{},
         StrCat("program runs ", total_wide_,
                " wide (shuffle) stage(s) per pass; while-loop bodies "
                "counted once"),
         "");
    PlanLintResult result;
    SortAndDedupe(&diags_);
    result.diagnostics = std::move(diags_);
    result.total_wide_stages = total_wide_;
    return result;
  }

 private:
  void Emit(const char* code, Severity severity, SourceLocation loc,
            std::string message, std::string hint) {
    diags_.push_back(Diagnostic{code, severity, loc, std::move(message),
                                std::move(hint), std::nullopt});
  }

  /// The prior-run stage measured for a wide stage of the statement at
  /// `loc`, or null (no --profile-in, or a stale profile).
  const runtime::ProfileStage* Measured(const std::string& label_fragment,
                                        SourceLocation loc) const {
    if (options_.profile == nullptr) return nullptr;
    return options_.profile->FindStage(options_.profile_file, loc.line,
                                       loc.column, label_fragment);
  }

  // ---- interval-backed cost evidence (P201/P202) ----

  /// Serialized bytes of one column of tag `t`: the width the engine
  /// charges per typed entry, or --bytes-per-slot for boxed/unknown.
  int64_t ColumnWidth(runtime::ColumnTag t) const {
    switch (t) {
      case runtime::ColumnTag::kBool:
        return 1;
      case runtime::ColumnTag::kInt64:
      case runtime::ColumnTag::kDouble:
        return 8;
      default:
        return options_.bytes_per_slot;
    }
  }

  /// Bytes of one (key, value) pair row under `schema`: a 4-byte kind
  /// header plus both column widths — exactly Value::SerializedBytes of
  /// the boxed pair row, which is also what TypedRows::EntryBytesAt
  /// charges for typed shuffles.
  int64_t PairRowBytes(const runtime::ColumnSchema& schema) const {
    return 4 + ColumnWidth(schema.key) + ColumnWidth(schema.value);
  }

  /// Interval of an integer-valued comprehension expression under the
  /// absint scalar facts. Top when no facts were supplied or the
  /// expression reads anything the abstract interpreter cannot bound.
  Interval EvalCExprInterval(const CExprPtr& e) const {
    if (e == nullptr) return Interval::Top();
    if (e->is<CExpr::IntConst>()) {
      return Interval::Const(e->as<CExpr::IntConst>().value);
    }
    if (e->is<CExpr::Var>()) {
      if (options_.int_scalars == nullptr) return Interval::Top();
      auto it = options_.int_scalars->find(e->as<CExpr::Var>().name);
      return it == options_.int_scalars->end() ? Interval::Top()
                                               : it->second;
    }
    if (e->is<CExpr::Un>()) {
      const auto& un = e->as<CExpr::Un>();
      if (un.op == runtime::UnOp::kNeg) {
        return NegI(EvalCExprInterval(un.operand));
      }
      return Interval::Top();
    }
    if (e->is<CExpr::Bin>()) {
      const auto& bin = e->as<CExpr::Bin>();
      Interval l = EvalCExprInterval(bin.lhs);
      Interval r = EvalCExprInterval(bin.rhs);
      switch (bin.op) {
        case runtime::BinOp::kAdd:
          return AddI(l, r);
        case runtime::BinOp::kSub:
          return SubI(l, r);
        case runtime::BinOp::kMul:
          return MulI(l, r);
        case runtime::BinOp::kMin:
          return MinI(l, r);
        case runtime::BinOp::kMax:
          return MaxI(l, r);
        default:
          return Interval::Top();
      }
    }
    return Interval::Top();
  }

  /// Upper bound on the rows a range generator [lo, hi] produces.
  int64_t RangeRowBound(const CExprPtr& lo, const CExprPtr& hi) const {
    Interval l = EvalCExprInterval(lo);
    Interval h = EvalCExprInterval(hi);
    if (l.lo == Interval::kNegInf || h.hi == Interval::kPosInf) {
      return kUnboundedRows;
    }
    int64_t n = h.hi - l.lo + 1;
    return n < 0 ? 0 : n;
  }

  int64_t ArrayRowBound(const std::string& var) const {
    auto it = array_rows_.find(var);
    return it == array_rows_.end() ? kUnboundedRows : it->second;
  }

  void WalkStmts(const std::vector<TargetStmtPtr>& stmts) {
    for (const auto& s : stmts) {
      if (s->is<TargetStmt::Declare>()) {
        const auto& d = s->as<TargetStmt::Declare>();
        if (d.is_array && d.init == nullptr) array_rows_[d.var] = 0;
        if (d.init != nullptr) {
          ExprFacts facts = AnalyzeExpr(d.init, s->loc);
          if (d.is_array) array_rows_[d.var] = facts.max_rows;
          Report(StrCat("initializer of '", d.var, "'"), facts, s->loc);
        }
        continue;
      }
      if (s->is<TargetStmt::Assign>()) {
        const auto& a = s->as<TargetStmt::Assign>();
        ExprFacts facts = AnalyzeExpr(a.value, s->loc);
        Report(StrCat("assignment to '", a.var, "'"), facts, s->loc);
        if (SelfMerge(*s) != nullptr && into_empty_.count(s.get()) != 0) {
          Emit(diag::kEmptyMerge, Severity::kWarning, s->loc,
               StrCat("merge into provably empty array '", a.var,
                      "': the coGroup's left side has no rows here"),
               "the optimizer drops this merge, and its wide stage, when "
               "the update's keys are provably unique: every incremental "
               "update, and := under for-range loops with an injective "
               "subscript");
        }
        if (a.is_array) {
          array_rows_[a.var] = facts.max_rows;
          // Producer bookkeeping for P103: narrow when the update's
          // comprehensions shuffled nothing (the only wide stage is the
          // merge itself, or none at all).
          bool narrow = true;
          for (const WideStage& w : facts.stages) {
            if (w.label.rfind("merge", 0) != 0) narrow = false;
          }
          producers_[a.var] = Producer{s->loc, narrow};
        }
        continue;
      }
      if (s->is<TargetStmt::While>()) {
        const auto& w = s->as<TargetStmt::While>();
        ExprFacts facts = AnalyzeExpr(w.cond, s->loc);
        Report("while condition", facts, s->loc);
        // Widen row bounds as the emptiness walk widens emptiness: a
        // body assignment may grow the array on every iteration.
        for (const std::string& v : WrittenVars(w.body)) {
          array_rows_[v] = kUnboundedRows;
        }
        WalkStmts(w.body);
        continue;
      }
    }
  }

  /// Emits the per-statement P001 shuffle note when `facts` has any wide
  /// stage, and adds them to the program total.
  void Report(const std::string& what, const ExprFacts& facts,
              SourceLocation loc) {
    total_wide_ += static_cast<int>(facts.stages.size());
    if (facts.stages.empty()) return;
    std::vector<std::string> parts;
    for (const WideStage& w : facts.stages) {
      int64_t bytes = w.row_bytes > 0
                          ? w.row_bytes
                          : w.row_slots * options_.bytes_per_slot;
      std::string part = StrCat(w.label, " (~", bytes, " B/row)");
      // Measured evidence from --profile-in, rendered next to the static
      // estimate so the two are directly comparable.
      if (const runtime::ProfileStage* m = Measured(w.label, loc)) {
        part = StrCat(part, " [measured ", m->shuffle_bytes,
                      " B shuffled]");
      }
      parts.push_back(part);
    }
    Emit(diag::kStmtShuffles, Severity::kNote, loc,
         StrCat(what, " runs ", facts.stages.size(), " wide stage(s): ",
                Join(parts, ", ")),
         "");
  }

  ExprFacts AnalyzeExpr(const CExprPtr& e, SourceLocation loc) {
    ExprFacts facts;
    AnalyzeExprInto(e, loc, &facts);
    return facts;
  }

  void Append(ExprFacts* into, const ExprFacts& from) {
    into->stages.insert(into->stages.end(), from.stages.begin(),
                        from.stages.end());
  }

  void AnalyzeExprInto(const CExprPtr& e, SourceLocation loc,
                       ExprFacts* facts) {
    if (e == nullptr) return;
    if (e->is<CExpr::Merge>()) {
      const auto& m = e->as<CExpr::Merge>();
      ExprFacts left = AnalyzeExpr(m.left, loc);
      ExprFacts right = AnalyzeExpr(m.right, loc);
      Append(facts, left);
      Append(facts, right);
      facts->max_rows = AddRows(left.max_rows, right.max_rows);
      std::string left_var;
      if (m.left != nullptr && m.left->is<CExpr::Var>()) {
        left_var = m.left->as<CExpr::Var>().name;
      }
      facts->stages.push_back(WideStage{
          left_var.empty() ? "merge" : StrCat("merge[", left_var, "]"), 2});
      return;
    }
    if (e->is<CExpr::Nested>()) {
      AnalyzeComp(e->as<CExpr::Nested>().comp, loc, facts);
      return;
    }
    if (e->is<CExpr::Var>()) {
      facts->max_rows = ArrayRowBound(e->as<CExpr::Var>().name);
      return;
    }
    if (e->is<CExpr::Reduce>()) {
      // Engine::Reduce over a distributed operand is narrow (tree
      // aggregation, no shuffle): only the operand's stages count.
      AnalyzeExprInto(e->as<CExpr::Reduce>().arg, loc, facts);
      return;
    }
    if (e->is<CExpr::Bin>()) {
      AnalyzeExprInto(e->as<CExpr::Bin>().lhs, loc, facts);
      AnalyzeExprInto(e->as<CExpr::Bin>().rhs, loc, facts);
      return;
    }
    if (e->is<CExpr::Un>()) {
      AnalyzeExprInto(e->as<CExpr::Un>().operand, loc, facts);
      return;
    }
    if (e->is<CExpr::TupleCons>()) {
      for (const auto& el : e->as<CExpr::TupleCons>().elems) {
        AnalyzeExprInto(el, loc, facts);
      }
      return;
    }
    if (e->is<CExpr::RecordCons>()) {
      for (const auto& [name, el] : e->as<CExpr::RecordCons>().fields) {
        AnalyzeExprInto(el, loc, facts);
      }
      return;
    }
    if (e->is<CExpr::Proj>()) {
      AnalyzeExprInto(e->as<CExpr::Proj>().base, loc, facts);
      return;
    }
    if (e->is<CExpr::Call>()) {
      for (const auto& a : e->as<CExpr::Call>().args) {
        AnalyzeExprInto(a, loc, facts);
      }
      return;
    }
    if (e->is<CExpr::BagCons>()) {
      for (const auto& el : e->as<CExpr::BagCons>().elems) {
        AnalyzeExprInto(el, loc, facts);
      }
      return;
    }
    if (e->is<CExpr::Range>()) {
      AnalyzeExprInto(e->as<CExpr::Range>().lo, loc, facts);
      AnalyzeExprInto(e->as<CExpr::Range>().hi, loc, facts);
      return;
    }
    // Var and constants cost nothing.
  }

  /// Plans a comprehension with the real planner (static state: empty
  /// placeholder datasets, no engine) and folds its wide operators into
  /// `facts`, emitting shape advisories along the way.
  void AnalyzeComp(const CompPtr& comp, SourceLocation loc,
                   ExprFacts* facts) {
    StatusOr<CompPlan> planned = plan::BuildPlan(comp, state_);
    if (!planned.ok()) {
      // Unplannable here (e.g. driver-bound scalars missing in the
      // static state): fall back to scanning the comprehension's own
      // expressions for nested work.
      AnalyzeExprInto(comp->head, loc, facts);
      for (const auto& q : comp->qualifiers) {
        AnalyzeExprInto(q.expr, loc, facts);
      }
      return;
    }
    const CompPlan& plan = planned.value();
    // Upper bound on the rows flowing through the pipeline at the
    // current operator, from range-generator intervals and producer
    // array bounds. kUnboundedRows whenever anything is unknown.
    int64_t rows = 1;
    for (size_t i = 0; i < plan.ops.size(); ++i) {
      const StreamOp& op = plan.ops[i];
      int slots = static_cast<int>(op.schema_after.size());
      switch (op.kind) {
        case StreamOp::Kind::kSourceArray:
          scan_consumers_[op.array] += 1;
          consumer_loc_[op.array] = loc;
          rows = MulRows(rows, ArrayRowBound(op.array));
          break;
        case StreamOp::Kind::kJoinArray:
          other_consumers_[op.array] += 1;
          if (!plan.driver_only) {
            facts->stages.push_back(
                WideStage{StrCat("join[", op.array, "]"), slots});
            // P202: the built side is provably small — the runtime
            // planner would broadcast it instead of shuffling both
            // sides, and the static evidence says so ahead of any run.
            int64_t side = ArrayRowBound(op.array);
            if (side != kUnboundedRows &&
                side <= options_.broadcast_hint_max_rows) {
              std::string msg = StrCat(
                  "join over '", op.array, "' shuffles both sides, but '",
                  op.array, "' is bounded by ", side,
                  " row(s) (interval evidence): a broadcast join "
                  "would keep the large side narrow");
              if (const runtime::ProfileStage* m =
                      Measured(StrCat("join[", op.array, "]"), loc)) {
                msg = StrCat(msg, "; the prior run shuffled ",
                             m->shuffle_bytes, " B through this join "
                             "(--profile-in evidence)");
              }
              Emit(diag::kBroadcastJoinHint, Severity::kWarning, loc,
                   std::move(msg),
                   "run with an engine broadcast threshold of at least "
                   "the built side's bytes so the planner replicates "
                   "the small array instead of shuffling the stream");
            }
          }
          rows = MulRows(rows, ArrayRowBound(op.array));
          break;
        case StreamOp::Kind::kBroadcastJoinArray:
          other_consumers_[op.array] += 1;
          if (!plan.driver_only) {
            facts->stages.push_back(
                WideStage{StrCat("broadcastJoin[", op.array, "]"), slots});
          }
          rows = MulRows(rows, ArrayRowBound(op.array));
          break;
        case StreamOp::Kind::kCartesianArray:
          other_consumers_[op.array] += 1;
          rows = MulRows(rows, ArrayRowBound(op.array));
          if (!plan.driver_only) {
            facts->stages.push_back(
                WideStage{StrCat("cartesian[", op.array, "]"), slots});
            Emit(diag::kCartesianProduct, Severity::kWarning, loc,
                 StrCat("generator over '", op.array,
                        "' has no linking condition: cartesian product "
                        "(|stream| x |", op.array, "| rows)"),
                 "add an equality condition between the generator and "
                 "the stream so the planner can use a hash join");
          }
          break;
        case StreamOp::Kind::kGroupBy: {
          if (!plan.driver_only) {
            facts->stages.push_back(WideStage{"groupBy", slots});
          }
          // P101: the lifted bags are only ever reduced -> reduceByKey
          // (map-side combine) would shuffle one value per key instead
          // of the whole bag.
          std::set<std::string> lifted(op.lifted.begin(), op.lifted.end());
          bool reduced = ContainsReduceOfVar(plan.head, lifted);
          for (size_t j = i + 1; j < plan.ops.size() && !reduced; ++j) {
            reduced = ContainsReduceOfVar(plan.ops[j].expr, lifted) ||
                      ContainsReduceOfVar(plan.ops[j].expr2, lifted) ||
                      ContainsReduceOfVar(plan.ops[j].reduce_value, lifted);
          }
          if (reduced) {
            Emit(diag::kGroupByReduce, Severity::kWarning, loc,
                 StrCat("group-by lifts {", Join(op.lifted, ","),
                        "} into bags that are only reduced afterwards"),
                 "reduce while grouping (reduceByKey with map-side "
                 "combine) instead of materializing per-key bags");
          }
          break;
        }
        case StreamOp::Kind::kReduceByKey:
          if (!plan.driver_only) {
            // Typed byte estimate: the inferred ColumnSchema prices the
            // shuffled (key, value) rows at their real widths.
            int64_t row_bytes = PairRowBytes(op.schema);
            facts->stages.push_back(
                WideStage{"reduceByKey", slots, row_bytes});
            // P201: the key cardinality (and so the combined rows that
            // cross this shuffle) is interval-bounded upstream; a
            // --profile-in stage adds what the prior run actually saw.
            const runtime::ProfileStage* m = Measured("reduceByKey", loc);
            if (rows != kUnboundedRows) {
              std::string msg = StrCat(
                  "reduceByKey key cardinality is bounded by ", rows,
                  " (range-generator interval evidence); at most ~",
                  MulRows(rows, row_bytes), " B cross this shuffle");
              if (m != nullptr) {
                msg = StrCat(msg, "; measured ", m->hash_agg_keys,
                             " key(s), ", m->shuffle_bytes,
                             " B shuffled in the prior run");
              }
              Emit(diag::kKeyCardinality, Severity::kNote, loc,
                   std::move(msg), "");
            } else if (m != nullptr) {
              // No static bound, but the profile has the real numbers.
              Emit(diag::kKeyCardinality, Severity::kNote, loc,
                   StrCat("reduceByKey key cardinality measured at ",
                          m->hash_agg_keys, " key(s) in the prior run (",
                          m->shuffle_bytes,
                          " B shuffled; --profile-in evidence)"),
                   "");
            }
          }
          break;
        case StreamOp::Kind::kFilter: {
          // P102: a filter that only needs variables already in scope
          // below the preceding join should run before it.
          int join_at = -1;
          for (int j = static_cast<int>(i) - 1; j >= 0; --j) {
            StreamOp::Kind k = plan.ops[j].kind;
            if (k == StreamOp::Kind::kJoinArray ||
                k == StreamOp::Kind::kBroadcastJoinArray ||
                k == StreamOp::Kind::kCartesianArray) {
              join_at = j;
              break;
            }
          }
          if (join_at > 0) {
            std::set<std::string> before(
                plan.ops[join_at - 1].schema_after.begin(),
                plan.ops[join_at - 1].schema_after.end());
            std::set<std::string> in_scope(
                plan.ops[i - 1].schema_after.begin(),
                plan.ops[i - 1].schema_after.end());
            bool pushable = true;
            bool uses_stream = false;
            for (const std::string& v : comp::FreeVars(op.expr)) {
              if (in_scope.count(v) == 0) continue;  // outer binding
              uses_stream = true;
              if (before.count(v) == 0) pushable = false;
            }
            if (pushable && uses_stream) {
              Emit(diag::kFilterAboveJoin, Severity::kWarning, loc,
                   StrCat("filter ", op.expr->ToString(),
                          " only reads variables bound before the ",
                          plan.ops[join_at].kind ==
                                  StreamOp::Kind::kCartesianArray
                              ? "cartesian product"
                              : "join",
                          " over '", plan.ops[join_at].array,
                          "' and could run below it"),
                   "filtering before the join shrinks the shuffled "
                   "stream");
            }
          }
          break;
        }
        case StreamOp::Kind::kSourceRange:
          rows = MulRows(rows, RangeRowBound(op.expr, op.expr2));
          break;
        case StreamOp::Kind::kIterateBag:
          // A flatMap over an explicit range(lo,hi) domain (the planner's
          // form for inner range loops) is as bounded as a source range;
          // any other bag expression is unknown.
          if (op.expr != nullptr && op.expr->is<comp::CExpr::Range>()) {
            const auto& r = op.expr->as<comp::CExpr::Range>();
            rows = MulRows(rows, RangeRowBound(r.lo, r.hi));
          } else {
            rows = kUnboundedRows;
          }
          break;
        case StreamOp::Kind::kLet:
          break;
      }
      // Nested comprehensions inside operator expressions (e.g. a
      // distributed reduce in a driver-only pipeline) still cost.
      AnalyzeExprInto(op.expr, loc, facts);
      AnalyzeExprInto(op.expr2, loc, facts);
      for (const auto& k : op.left_keys) AnalyzeExprInto(k, loc, facts);
      for (const auto& k : op.right_keys) AnalyzeExprInto(k, loc, facts);
      AnalyzeExprInto(op.reduce_value, loc, facts);
    }
    AnalyzeExprInto(plan.head, loc, facts);
    facts->max_rows = rows;
  }

  struct Producer {
    SourceLocation loc;
    bool narrow = false;
  };

  const PlanLintOptions& options_;
  std::map<std::string, runtime::Value> scalars_;
  std::map<std::string, runtime::Dataset> arrays_;
  plan::ExecState state_;

  std::vector<Diagnostic> diags_;
  int total_wide_ = 0;
  /// Array assignments whose destination is provably empty (P104).
  std::set<const TargetStmt*> into_empty_;
  /// Static row-count upper bounds for arrays (kUnboundedRows = unknown).
  std::map<std::string, int64_t> array_rows_;
  std::map<std::string, Producer> producers_;
  std::map<std::string, int> scan_consumers_;
  std::map<std::string, int> other_consumers_;
  std::map<std::string, SourceLocation> consumer_loc_;
};

}  // namespace

PlanLintResult LintTargetProgram(const comp::TargetProgram& target,
                                 const std::set<std::string>& array_vars,
                                 const PlanLintOptions& options) {
  PlanLinter linter(array_vars, options);
  return linter.Run(target);
}

}  // namespace diablo::analysis
