#include <optional>
#include <set>

#include "common/strings.h"
#include "plan/plan.h"
#include "plan/schema.h"
#include "runtime/profile.h"

namespace diablo::plan {

using comp::CExpr;
using comp::CExprPtr;
using comp::Pattern;
using comp::Qualifier;
using runtime::BinOp;

namespace {

bool IsArrayVar(const CExprPtr& e, const ExecState& state,
                const std::set<std::string>& schema) {
  return e->is<CExpr::Var>() && schema.count(e->as<CExpr::Var>().name) == 0 &&
         state.arrays != nullptr &&
         state.arrays->count(e->as<CExpr::Var>().name) != 0;
}

/// Rewrites every occurrence of `⊕/var` in `e` to `replacement`; fails
/// (returns nullptr) if `var` occurs outside such a reduction or under a
/// different operator than previously seen.
CExprPtr RewriteReduces(const CExprPtr& e, const std::string& var,
                        std::optional<BinOp>* op, const CExprPtr& replacement,
                        bool* failed) {
  if (e == nullptr || *failed) return e;
  if (e->is<CExpr::Reduce>()) {
    const auto& r = e->as<CExpr::Reduce>();
    if (r.arg->is<CExpr::Var>() && r.arg->as<CExpr::Var>().name == var) {
      if (op->has_value() && **op != r.op) {
        *failed = true;
        return e;
      }
      *op = r.op;
      return replacement;
    }
    CExprPtr arg = RewriteReduces(r.arg, var, op, replacement, failed);
    return comp::MakeReduce(r.op, arg);
  }
  if (e->is<CExpr::Var>()) {
    if (e->as<CExpr::Var>().name == var) *failed = true;
    return e;
  }
  if (e->is<CExpr::Bin>()) {
    const auto& b = e->as<CExpr::Bin>();
    return comp::MakeBin(b.op,
                         RewriteReduces(b.lhs, var, op, replacement, failed),
                         RewriteReduces(b.rhs, var, op, replacement, failed));
  }
  if (e->is<CExpr::Un>()) {
    const auto& u = e->as<CExpr::Un>();
    return comp::MakeUn(u.op,
                        RewriteReduces(u.operand, var, op, replacement, failed));
  }
  if (e->is<CExpr::TupleCons>()) {
    std::vector<CExprPtr> elems;
    for (const auto& c : e->as<CExpr::TupleCons>().elems) {
      elems.push_back(RewriteReduces(c, var, op, replacement, failed));
    }
    return comp::MakeTuple(std::move(elems));
  }
  if (e->is<CExpr::RecordCons>()) {
    std::vector<std::pair<std::string, CExprPtr>> fields;
    for (const auto& [n, c] : e->as<CExpr::RecordCons>().fields) {
      fields.emplace_back(n, RewriteReduces(c, var, op, replacement, failed));
    }
    return comp::MakeRecord(std::move(fields));
  }
  if (e->is<CExpr::Proj>()) {
    const auto& p = e->as<CExpr::Proj>();
    return comp::MakeProj(RewriteReduces(p.base, var, op, replacement, failed),
                          p.field);
  }
  if (e->is<CExpr::Call>()) {
    const auto& c = e->as<CExpr::Call>();
    std::vector<CExprPtr> args;
    for (const auto& a : c.args) {
      args.push_back(RewriteReduces(a, var, op, replacement, failed));
    }
    return comp::MakeCall(c.function, std::move(args));
  }
  // Nested comprehensions or other structures mentioning the lifted bag
  // are too complex for the reduceByKey rewrite.
  std::set<std::string> fv = comp::FreeVars(e);
  if (fv.count(var) != 0) *failed = true;
  return e;
}

}  // namespace

StatusOr<CompPlan> BuildPlan(const comp::CompPtr& comp,
                             const ExecState& state) {
  CompPlan plan;
  plan.head = comp->head;
  // Provenance: the executor sets the engine's current statement before
  // planning, so every plan (and through it every stage) knows the loop
  // statement it came from.
  if (state.engine != nullptr) {
    const runtime::EngineProvenance& prov = state.engine->provenance();
    plan.loc = SourceLocation{prov.line, prov.column};
  }
  std::vector<std::string> schema;
  std::set<std::string> schema_set;
  std::set<size_t> consumed;
  bool has_source = false;

  const std::vector<Qualifier>& quals = comp->qualifiers;

  // Every variable bound anywhere in this comprehension: names outside
  // this set resolve to driver scalars/arrays, names inside it are only
  // usable once their binder has run.
  std::set<std::string> comp_bound;
  for (const Qualifier& q : quals) {
    if (q.kind != Qualifier::Kind::kCondition) {
      for (const std::string& v : q.pattern.Vars()) comp_bound.insert(v);
    }
  }

  auto extend_schema = [&](const Pattern& p) {
    for (const std::string& v : p.Vars()) {
      schema.push_back(v);
      schema_set.insert(v);
    }
  };

  for (size_t i = 0; i < quals.size(); ++i) {
    if (consumed.count(i) != 0) continue;
    const Qualifier& q = quals[i];
    StreamOp op;

    switch (q.kind) {
      case Qualifier::Kind::kGenerator: {
        if (IsArrayVar(q.expr, state, schema_set)) {
          const std::string& array = q.expr->as<CExpr::Var>().name;
          if (!has_source) {
            op.kind = StreamOp::Kind::kSourceArray;
            op.array = array;
            op.pattern = q.pattern;
            extend_schema(q.pattern);
          } else {
            // Look for equality conditions linking the new generator to
            // the existing stream (up to the next group-by).
            std::vector<std::string> new_vars = q.pattern.Vars();
            std::set<std::string> new_set(new_vars.begin(), new_vars.end());
            std::vector<CExprPtr> left_keys, right_keys;
            std::vector<size_t> used_conds;
            for (size_t j = i + 1; j < quals.size(); ++j) {
              if (quals[j].kind == Qualifier::Kind::kGroupBy) break;
              if (quals[j].kind != Qualifier::Kind::kCondition) continue;
              if (consumed.count(j) != 0) continue;
              if (!quals[j].expr->is<CExpr::Bin>()) continue;
              const auto& eq = quals[j].expr->as<CExpr::Bin>();
              if (eq.op != BinOp::kEq) continue;
              auto uses_new = [&](const CExprPtr& e) {
                for (const std::string& v : comp::FreeVars(e)) {
                  if (new_set.count(v) != 0) return true;
                }
                return false;
              };
              auto all_known = [&](const CExprPtr& e) {
                // Everything resolvable before the join: stream schema or
                // driver scalars (constants). Variables bound by *later*
                // qualifiers disqualify the condition.
                for (const std::string& v : comp::FreeVars(e)) {
                  if (schema_set.count(v) != 0) continue;
                  if (comp_bound.count(v) != 0) return false;
                }
                return true;
              };
              auto right_side = [&](const CExprPtr& e) {
                if (!uses_new(e)) return false;
                for (const std::string& v : comp::FreeVars(e)) {
                  if (new_set.count(v) != 0) continue;
                  if (schema_set.count(v) != 0 || comp_bound.count(v) != 0) {
                    return false;
                  }
                }
                return true;
              };
              if (all_known(eq.lhs) && right_side(eq.rhs)) {
                left_keys.push_back(eq.lhs);
                right_keys.push_back(eq.rhs);
                used_conds.push_back(j);
              } else if (all_known(eq.rhs) && right_side(eq.lhs)) {
                left_keys.push_back(eq.rhs);
                right_keys.push_back(eq.lhs);
                used_conds.push_back(j);
              }
            }
            if (!left_keys.empty()) {
              // Broadcast small build sides when the engine allows it.
              int64_t threshold =
                  state.engine != nullptr
                      ? state.engine->config().broadcast_join_threshold_bytes
                      : 0;
              const int64_t build_bytes =
                  state.arrays->at(array).TotalBytes();
              bool broadcast = threshold > 0 && build_bytes <= threshold;
              // Profile feedback (--profile-in, DESIGN.md §17): when a
              // prior run measured THIS join (matched by the statement's
              // file:line:column provenance plus the stage label), weigh
              // shipping the build side to every worker against the
              // bytes the hash join actually shuffled, instead of the
              // static threshold alone. A prior broadcast is sticky: its
              // profile measured ship bytes, not shuffle bytes, so
              // re-comparing would flip the decision back and forth
              // between runs. A stale profile matches nothing and the
              // static rule above stands.
              if (state.profile != nullptr && state.engine != nullptr) {
                const runtime::EngineProvenance& prov =
                    state.engine->provenance();
                if (state.profile->FindStage(
                        prov.file, prov.line, prov.column,
                        StrCat("broadcastJoin[", array, "]")) != nullptr) {
                  broadcast = true;
                  state.engine->RecordCostDecision();
                } else if (const runtime::ProfileStage* measured =
                               state.profile->FindStage(
                                   prov.file, prov.line, prov.column,
                                   StrCat("join[", array, "]"));
                           measured != nullptr) {
                  const int workers =
                      state.engine->config().cluster.num_workers;
                  broadcast =
                      build_bytes * workers < measured->shuffle_bytes;
                  state.engine->RecordCostDecision();
                }
              }
              op.kind = broadcast ? StreamOp::Kind::kBroadcastJoinArray
                                  : StreamOp::Kind::kJoinArray;
              op.array = array;
              op.pattern = q.pattern;
              op.left_keys = std::move(left_keys);
              op.right_keys = std::move(right_keys);
              for (size_t j : used_conds) consumed.insert(j);
            } else {
              op.kind = StreamOp::Kind::kCartesianArray;
              op.array = array;
              op.pattern = q.pattern;
            }
            extend_schema(q.pattern);
          }
          has_source = true;
          break;
        }
        if (q.expr->is<CExpr::Range>() && !has_source) {
          const auto& r = q.expr->as<CExpr::Range>();
          bool bounds_local = true;
          for (const std::string& v : comp::FreeVars(r.lo)) {
            if (schema_set.count(v) != 0) bounds_local = false;
          }
          for (const std::string& v : comp::FreeVars(r.hi)) {
            if (schema_set.count(v) != 0) bounds_local = false;
          }
          if (bounds_local && !q.pattern.is_tuple) {
            op.kind = StreamOp::Kind::kSourceRange;
            op.pattern = q.pattern;
            op.expr = r.lo;
            op.expr2 = r.hi;
            // Its errors name the `for` header, not the body statement.
            if (r.loc.has_value()) op.loc = *r.loc;
            extend_schema(q.pattern);
            has_source = true;
            break;
          }
        }
        // Generic generator over a bag-valued expression.
        op.kind = StreamOp::Kind::kIterateBag;
        op.pattern = q.pattern;
        op.expr = q.expr;
        extend_schema(q.pattern);
        has_source = true;
        break;
      }
      case Qualifier::Kind::kCondition:
        op.kind = StreamOp::Kind::kFilter;
        op.expr = q.expr;
        break;
      case Qualifier::Kind::kLet:
        op.kind = StreamOp::Kind::kLet;
        op.pattern = q.pattern;
        op.expr = q.expr;
        extend_schema(q.pattern);
        break;
      case Qualifier::Kind::kGroupBy: {
        if (q.expr == nullptr) {
          return Status::RuntimeError(
              "group-by without an explicit key expression");
        }
        // Variables used after the group-by (lifted to bags). Variables
        // rebound by the group-by pattern resolve to the key, not to a
        // lifted bag.
        std::vector<std::string> pattern_vars = q.pattern.Vars();
        std::set<std::string> pattern_set(pattern_vars.begin(),
                                          pattern_vars.end());
        std::vector<std::string> used;
        for (const std::string& v : schema) {
          if (pattern_set.count(v) != 0) continue;
          bool is_used = comp::FreeVars(plan.head).count(v) != 0;
          for (size_t j = i + 1; !is_used && j < quals.size(); ++j) {
            if (quals[j].expr != nullptr &&
                comp::FreeVars(quals[j].expr).count(v) != 0) {
              is_used = true;
            }
          }
          if (is_used) used.push_back(v);
        }
        // Try the reduceByKey special form: a single lifted variable used
        // only as ⊕/v.
        bool rewrote = false;
        if (used.size() == 1 && i + 1 == quals.size()) {
          const std::string& v = used[0];
          std::optional<BinOp> red_op;
          bool failed = false;
          std::string result = v + "$red";
          CExprPtr new_head = RewriteReduces(
              plan.head, v, &red_op, comp::MakeVar(result), &failed);
          if (!failed && red_op.has_value()) {
            op.kind = StreamOp::Kind::kReduceByKey;
            op.expr = q.expr;
            op.pattern = q.pattern;
            op.reduce_value = comp::MakeVar(v);
            op.reduce_op = *red_op;
            op.lifted = {result};
            plan.head = new_head;
            schema.clear();
            schema_set.clear();
            extend_schema(q.pattern);
            schema.push_back(result);
            schema_set.insert(result);
            rewrote = true;
          }
        }
        if (!rewrote) {
          op.kind = StreamOp::Kind::kGroupBy;
          op.expr = q.expr;
          op.pattern = q.pattern;
          op.lifted = used;
          schema.clear();
          schema_set.clear();
          extend_schema(q.pattern);
          for (const std::string& v : used) {
            schema.push_back(v);
            schema_set.insert(v);
          }
        }
        break;
      }
    }
    op.schema_after = schema;
    plan.ops.push_back(std::move(op));
  }

  plan.driver_only = !has_source;
  for (StreamOp& op : plan.ops) {
    if (op.loc.line == 0) op.loc = plan.loc;
  }
  AnnotatePlanSchemas(&plan);
  return plan;
}

}  // namespace diablo::plan
