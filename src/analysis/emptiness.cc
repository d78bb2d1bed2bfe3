#include "analysis/emptiness.h"

#include <map>
#include <string>

namespace diablo::analysis {

using comp::CExpr;
using comp::TargetStmt;
using comp::TargetStmtPtr;

namespace {

enum class Emptiness { kEmpty, kNonEmpty, kUnknown };
using State = std::map<std::string, Emptiness>;

Emptiness StateOf(const State& state, const std::string& var) {
  auto it = state.find(var);
  return it == state.end() ? Emptiness::kUnknown : it->second;
}

void CollectWritten(const std::vector<TargetStmtPtr>& stmts,
                    std::set<std::string>* out) {
  for (const auto& s : stmts) {
    if (s->is<TargetStmt::Assign>()) {
      out->insert(s->as<TargetStmt::Assign>().var);
    } else if (s->is<TargetStmt::Declare>()) {
      out->insert(s->as<TargetStmt::Declare>().var);
    } else {
      CollectWritten(s->as<TargetStmt::While>().body, out);
    }
  }
}

void Walk(const std::vector<TargetStmtPtr>& stmts, State* state,
          std::set<const TargetStmt*>* out) {
  for (const auto& s : stmts) {
    if (s->is<TargetStmt::Declare>()) {
      const auto& d = s->as<TargetStmt::Declare>();
      (*state)[d.var] = d.is_array && d.init == nullptr
                            ? Emptiness::kEmpty
                            : Emptiness::kNonEmpty;
    } else if (s->is<TargetStmt::Assign>()) {
      const auto& a = s->as<TargetStmt::Assign>();
      if (a.is_array && StateOf(*state, a.var) == Emptiness::kEmpty) {
        out->insert(s.get());
      }
      (*state)[a.var] = Emptiness::kNonEmpty;
    } else {
      const State before = *state;
      const std::set<std::string> written =
          WrittenVars(s->as<TargetStmt::While>().body);
      for (const std::string& v : written) {
        (*state)[v] = Emptiness::kUnknown;
      }
      Walk(s->as<TargetStmt::While>().body, state, out);
      for (const std::string& v : written) {
        if (StateOf(before, v) != StateOf(*state, v)) {
          (*state)[v] = Emptiness::kUnknown;
        }
      }
    }
  }
}

}  // namespace

const CExpr::Merge* SelfMerge(const TargetStmt& stmt) {
  if (!stmt.is<TargetStmt::Assign>()) return nullptr;
  const auto& a = stmt.as<TargetStmt::Assign>();
  if (!a.is_array || !a.value->is<CExpr::Merge>()) return nullptr;
  const auto& m = a.value->as<CExpr::Merge>();
  if (!m.left->is<CExpr::Var>() || m.left->as<CExpr::Var>().name != a.var) {
    return nullptr;
  }
  return &m;
}

std::set<const TargetStmt*> AssignmentsToEmptyArrays(
    const std::vector<TargetStmtPtr>& stmts) {
  State state;
  std::set<const TargetStmt*> out;
  Walk(stmts, &state, &out);
  return out;
}

std::set<std::string> WrittenVars(const std::vector<TargetStmtPtr>& stmts) {
  std::set<std::string> out;
  CollectWritten(stmts, &out);
  return out;
}

}  // namespace diablo::analysis
