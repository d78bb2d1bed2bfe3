#ifndef DIABLO_DIABLO_DIABLO_H_
#define DIABLO_DIABLO_DIABLO_H_

#include <map>
#include <memory>
#include <set>
#include <string>

#include "algebra/local.h"
#include "ast/ast.h"
#include "common/status.h"
#include "comp/comp.h"
#include "exec/reference_interpreter.h"
#include "exec/target_executor.h"
#include "opt/optimize.h"
#include "runtime/engine.h"
#include "runtime/profile.h"
#include "tiles/tiles.h"
#include "translate/translate.h"

/// DIABLO-C++ — public API.
///
/// A from-scratch reproduction of Fegaras & Noor, "Translation of
/// Array-Based Loops to Distributed Data-Parallel Programs" (VLDB 2020).
///
/// Quickstart:
///
///   diablo::CompileOptions options;
///   auto program = diablo::Compile(R"(
///     var sum: double = 0.0;
///     for v in V do
///       if (v < 100.0) sum += v;
///   )", options);
///   runtime::Engine engine;
///   auto run = diablo::Run(*program, &engine, {{"V", my_sparse_vector}});
///   double total = run->Scalar("sum")->ToDouble();
namespace diablo {

/// Options controlling the compilation pipeline.
struct CompileOptions {
  /// Verify the restrictions of Definition 3.1 and fail compilation on
  /// violations (on by default; disable only for experiments).
  bool check_restrictions = true;
  /// Comprehension optimizations (§3.6, §4).
  opt::OptimizeOptions optimize;
  /// Skip optimizations entirely (for the ablation benchmarks).
  bool enable_optimizer = true;
};

/// A compiled loop-based program: canonicalized source, translated and
/// optimized target code, and the inferred variable table.
struct CompiledProgram {
  ast::Program source;
  comp::TargetProgram target;
  std::map<std::string, translate::VarInfo> vars;

  /// Printable target code (comprehension syntax).
  std::string TargetToString() const { return target.ToString(); }
};

/// Parses, checks (Definition 3.1), translates (Figure 2), normalizes and
/// optimizes a loop-based program.
StatusOr<CompiledProgram> Compile(const std::string& source,
                                  const CompileOptions& options = {});

/// The results of executing a compiled program.
class ProgramRun {
 public:
  explicit ProgramRun(std::unique_ptr<exec::TargetExecutor> executor)
      : executor_(std::move(executor)) {}

  /// Final value of a driver scalar.
  StatusOr<runtime::Value> Scalar(const std::string& name) const {
    return executor_->GetScalar(name);
  }
  /// Final array contents as a sorted bag of (key, value) pairs.
  StatusOr<runtime::Value> Array(const std::string& name) const {
    return executor_->GetArray(name);
  }
  /// Final array contents as a distributed dataset (no collect).
  StatusOr<runtime::Dataset> ArrayDataset(const std::string& name) const {
    return executor_->GetArrayDataset(name);
  }

 private:
  std::unique_ptr<exec::TargetExecutor> executor_;
};

/// Host inputs: bag values are sparse arrays of (key, value) pairs,
/// everything else binds a scalar. An array is a map (paper §3.4): each
/// key appears in at most one pair. The backends differ on a repeated
/// key (the reference interpreter keeps the last pair, a scan of the
/// engine or the local backend sees every pair), and the optimizer's
/// merge elision assumes maps, so callers must not bind one.
using Bindings = std::map<std::string, runtime::Value>;

/// Execution-time options.
struct RunOptions {
  /// Packed-array mode (paper §5): the named matrices are stored as
  /// dense tiles; incremental `⊳+` merges run shuffle-free. See
  /// exec::TargetExecutor::EnableTiledStorage for the semantics.
  std::set<std::string> tiled_arrays;
  tiles::TileConfig tile_config;
  /// Source file name stamped into trace spans and stage provenance
  /// ("[pagerank.diablo:12:3]"); empty renders as "<program>".
  std::string program_name;
  /// Prior-run profile (`diablo_run --profile-in`, runtime/profile.h);
  /// must outlive the run. When set, plan-time cost decisions weigh the
  /// measured stage facts of the prior run — broadcast-vs-hash join by
  /// actual shuffled bytes — instead of static estimates alone. Null
  /// keeps every decision static.
  const runtime::ProfileData* profile = nullptr;
};

/// Executes a compiled program on the distributed engine.
StatusOr<ProgramRun> Run(const CompiledProgram& program,
                         runtime::Engine* engine, const Bindings& inputs,
                         const RunOptions& options = {});

/// Convenience: compile and run in one step.
StatusOr<ProgramRun> CompileAndRun(const std::string& source,
                                   runtime::Engine* engine,
                                   const Bindings& inputs,
                                   const CompileOptions& options = {});

/// Runs a program under the sequential reference semantics (ground truth
/// for testing; see exec::ReferenceInterpreter).
StatusOr<std::unique_ptr<exec::ReferenceInterpreter>> RunReference(
    const std::string& source, const Bindings& inputs);

/// Executes a compiled program with the single-process local algebra
/// backend (the paper's "Scala collections" target; see algebra/local.h):
/// same translated bulk plan, no partitioning or shuffles.
StatusOr<std::unique_ptr<algebra::LocalExecutor>> RunLocal(
    const CompiledProgram& program, const Bindings& inputs);

}  // namespace diablo

#endif  // DIABLO_DIABLO_DIABLO_H_
