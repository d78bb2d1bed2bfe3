// diablo_run: compile and execute a loop-language program from a file,
// binding inputs from the command line or from CSV files, and print the
// requested outputs.
//
// Usage:
//   diablo_run PROGRAM.diablo [options]
//
// Options:
//   --scalar NAME=VALUE      bind a scalar input (int, double, bool or
//                            quoted string, inferred from the spelling)
//   --vector NAME=FILE.csv   bind a sparse vector: each line `key,value`
//   --matrix NAME=FILE.csv   bind a sparse matrix: each line `i,j,value`
//   --print NAME             print a scalar or array output (repeatable)
//   --target                 print the translated target code
//   --plan-report            print the engine stage report after the run
//   --explain-analyze        print the plan tree annotated with observed
//                            runtime stats (task-time percentiles, skew
//                            ratio, stragglers) after the run
//   --trace-out=FILE         write a Chrome trace_event JSON of the run
//                            (open in chrome://tracing or Perfetto)
//   --profile-out=FILE       write the schema-stable profile JSON
//                            (validated by tools/check_trace_profile.py)
//   --metrics-out=FILE       write the metrics registry (named counters,
//                            gauges, histograms; per-stage peak RSS and
//                            accumulator watermarks) after the run, as
//                            Prometheus text exposition — or JSON when
//                            FILE ends in .json
//   --events-out=FILE        write the structured event log as JSONL
//                            (task_retry, worker_respawn, lineage
//                            recovery, skew salting, ...; validated by
//                            tools/check_events.py)
//   --profile-in=FILE        feed a prior run's --profile-out JSON back
//                            into the planner: broadcast-vs-hash join and
//                            the partition count (unless --partitions is
//                            given) follow the measured stage facts
//                            instead of static estimates. A stale profile
//                            (renamed program, shifted lines) degrades
//                            gracefully to the static rules.
//   --no-skew                disable runtime skew mitigation (salting of
//                            hot reduce tasks; SkewConfig::mitigate=0)
//   --no-trace               disable span recording (EngineConfig::tracing)
//   --partitions N           engine partitions, N >= 1 (default 8)
//   --workers N              simulated cluster workers, N >= 1 (default 4)
//   --threads N              host threads executing partition tasks,
//                            N >= 1 (default 1)
//   --broadcast-mb N         enable broadcast joins for arrays <= N MB
//                            (N >= 0; 0 keeps shuffle joins)
//   --serialize-shuffles     round-trip shuffled rows through the codec
//   --fault-seed N           seed of the deterministic fault injector,
//                            0 <= N <= 9223372036854775807
//   --fail-rate P            per-attempt task kill probability [0,1]
//   --straggler-rate P       straggler probability [0,1]
//   --corrupt-rate P         shuffle-payload corruption probability
//                            [0,1] (needs --serialize-shuffles to take
//                            effect)
//   --max-attempts N         retry budget per task, N >= 1 (default 4)
//   --kill S:P               kill partition P of stage S once (repeatable)
//   --lose S:P[:I]           lose input partition P of stage S (input I,
//                            default 0); recomputed from lineage
//   --tiled NAME             store the named matrix as packed tiles (§5;
//                            repeatable)
//   --tile-rows R            tile rows, R >= 1 (default 32)
//   --tile-cols C            tile columns, C >= 1 (default 32)
//   --no-opt                 disable the comprehension optimizer
//   --local                  run on the single-process local algebra
//                            backend instead of the distributed engine
//   --reference              run the sequential reference interpreter
//                            instead of the distributed engine
//   --dist-workers N         execute task waves on N >= 1 forked worker
//                            processes over loopback TCP (src/dist/);
//                            output is byte-identical to in-process runs
//   --dist-heartbeat-ms N    worker heartbeat period, 10 <= N <= 3600000
//                            (default 250)
//   --dist-missed-beats N    heartbeats missed before a worker is
//                            declared dead, N >= 1 (default 8)
//   --dist-deadline-ms N     per-task deadline before the holding worker
//                            is declared dead, 50 <= N <= 86400000
//                            (default 30000)
//   --dist-max-task-retries N  re-dispatches allowed per task after real
//                            worker deaths, N >= 0 (default 3)
//   --dist-max-respawns N    dead workers re-forked per run, N >= 0
//                            (default 4)
//   --dist-stall W:MS        test hook: worker W sleeps MS ms per task
//   --dist-verbose           log dispatch/death/respawn events to stderr
//   --chaos-kill S:W[:K]     SIGKILL worker W during stage S after it
//                            returned K results (default 0; repeatable);
//                            requires --dist-workers
//   --chaos-kill-rate P      per-(stage,worker,result) SIGKILL
//                            probability [0,1], drawn deterministically
//                            from the chaos seed
//   --chaos-seed N           seed of the deterministic chaos schedule,
//                            0 <= N <= 9223372036854775807
//
// Counts without a stated upper bound stop at 2147483647, and so does
// every field of --kill, --lose, --dist-stall and --chaos-kill, which
// must also be >= 0. A rate outside [0,1], or NaN, dies naming the flag,
// as does a seed below 0 or beyond int64. A --scalar or CSV number
// follows the lexer's range rule: an int beyond int64, or a double that
// overflows or rounds a nonzero value to 0, dies naming the flag or
// path:line. A CSV key repeated on a later line dies naming both lines,
// since an array binds each key once (diablo::Bindings). The heartbeat
// and deadline bounds (one hour, one day) keep the coordinator's wave
// stall budget, deadline x (tasks + retries + respawns + 2) plus
// heartbeat x missed beats x 4, within int64.
//
// Exit codes (documented in docs/LANGUAGE.md): 0 success, 1 CLI or I/O
// error, 2 parse error, 3 restriction violation, 4 translation error,
// 5 runtime error (including an exhausted fault-retry budget), 6 invalid
// argument, 7 unsupported feature, 8 distributed-backend failure (retry
// or respawn budget exhausted; see docs/diagnostics.md). On any error
// the tool prints a single
// one-line diagnostic to stderr and emits none of the requested outputs —
// except restriction violations (exit 3), which print the analyzer's full
// structured diagnostics (codes, carets, race witnesses; the same output
// as diablo_lint) to stderr, one block per violation.
//
// Example:
//   diablo_run wordcount.diablo --vector words=words.csv --print C

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include <memory>

#include "analysis/restrictions.h"
#include "common/strings.h"
#include "diablo/diablo.h"
#include "dist/coordinator.h"
#include "parser/parser.h"
#include "runtime/events.h"
#include "runtime/metrics_registry.h"
#include "runtime/trace.h"

namespace {

using diablo::NumberParse;
using diablo::Status;
using diablo::StatusCode;
using diablo::runtime::Value;
using diablo::runtime::ValueVec;

/// Maps an error category to the process exit code documented above.
int ExitCodeFor(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return 0;
    case StatusCode::kParseError:
      return 2;
    case StatusCode::kRestrictionViolation:
      return 3;
    case StatusCode::kTranslationError:
      return 4;
    case StatusCode::kRuntimeError:
    case StatusCode::kTaskLost:
      return 5;
    case StatusCode::kInvalidArgument:
      return 6;
    case StatusCode::kUnsupported:
      return 7;
    case StatusCode::kDistError:
      return 8;
  }
  return 1;
}

[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "diablo_run: %s\n", message.c_str());
  std::exit(1);
}

[[noreturn]] void DieStatus(const Status& status) {
  // One line, first line of the message only: pipelines parse this.
  std::string msg = status.ToString();
  size_t eol = msg.find('\n');
  if (eol != std::string::npos) msg.resize(eol);
  std::fprintf(stderr, "diablo_run: %s\n", msg.c_str());
  std::exit(ExitCodeFor(status.code()));
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) Die("cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// Parses a literal: bool, int, double, or quoted/bare string. A number
/// the lexer would reject as out of range dies naming `where` (the flag,
/// or the CSV file's path:line) instead of clamping, so two distinct
/// keys can never load as one.
Value ParseScalar(const std::string& text, const std::string& where) {
  if (text == "true") return Value::MakeBool(true);
  if (text == "false") return Value::MakeBool(false);
  if (text.size() >= 2 && text.front() == '"' && text.back() == '"') {
    return Value::MakeString(text.substr(1, text.size() - 2));
  }
  int64_t as_int = 0;
  NumberParse parsed = diablo::ParseInt64(text, &as_int);
  if (parsed == NumberParse::kOk) return Value::MakeInt(as_int);
  double as_double = 0;
  if (parsed == NumberParse::kNotANumber) {
    parsed = diablo::ParseDouble(text, &as_double);
    if (parsed == NumberParse::kOk) return Value::MakeDouble(as_double);
  }
  if (parsed == NumberParse::kOutOfRange) {
    Die(where + ": number '" + text + "' is out of range");
  }
  return Value::MakeString(text);
}

std::vector<std::string> SplitCsvLine(const std::string& line) {
  std::vector<std::string> fields;
  std::string field;
  for (char c : line) {
    if (c == ',') {
      fields.push_back(field);
      field.clear();
    } else if (c != '\r') {
      field.push_back(c);
    }
  }
  fields.push_back(field);
  return fields;
}

/// Loads `key,value` lines into a sparse vector, or `i,j,value` lines
/// into a sparse matrix when `matrix` is set. An array is a map, so a key
/// repeated on a later line dies naming both lines: the engine would
/// keep both rows and the reference interpreter only the last.
Value LoadCsv(const std::string& path, bool matrix) {
  std::ifstream in(path);
  if (!in) Die("cannot open " + path);
  ValueVec rows;
  std::map<Value, int> first_line;
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty() || line[0] == '#') continue;
    std::vector<std::string> fields = SplitCsvLine(line);
    size_t expected = matrix ? 3 : 2;
    if (fields.size() != expected) {
      Die(path + ":" + std::to_string(lineno) + ": expected " +
          std::to_string(expected) + " fields");
    }
    const std::string where = path + ":" + std::to_string(lineno);
    Value key = matrix ? Value::MakeTuple({ParseScalar(fields[0], where),
                                           ParseScalar(fields[1], where)})
                       : ParseScalar(fields[0], where);
    auto [seen, fresh] = first_line.emplace(key, lineno);
    if (!fresh) {
      Die(where + ": key " + key.ToString() + " repeats line " +
          std::to_string(seen->second) + "; an array holds one value per key");
    }
    rows.push_back(Value::MakePair(key, ParseScalar(fields.back(), where)));
  }
  return Value::MakeBag(std::move(rows));
}

struct NameValue {
  std::string name;
  std::string value;
};

NameValue SplitBinding(const std::string& arg) {
  size_t eq = arg.find('=');
  if (eq == std::string::npos) Die("expected NAME=VALUE, got " + arg);
  return {arg.substr(0, eq), arg.substr(eq + 1)};
}

/// Strict probability flags (the four rates): a rate silently read as 0
/// would turn an injection experiment into a fault-free run, and one
/// above 1 exhausts the retry budget as if the program had failed, so
/// garbage, NaN and values outside [0, 1] die naming the flag.
double ParseRateFlag(const std::string& flag, const std::string& text) {
  double v = 0;
  if (diablo::ParseDouble(text, &v) != NumberParse::kOk ||
      !(v >= 0.0 && v <= 1.0)) {
    Die(flag + " expects a probability in [0, 1], got '" + text + "'");
  }
  return v;
}

/// Strict integer flags under the lexer's range rule, restricted to
/// [lo, hi]: a zero count would divide the cost model by zero, a seed
/// beyond int64 would clamp onto another seed's schedule, and an
/// out-of-range value must die rather than wrap when narrowed or shifted
/// into its field.
long long ParseIntFlag(const std::string& flag, const std::string& text,
                       long long lo, long long hi) {
  int64_t v = 0;
  const NumberParse parsed = diablo::ParseInt64(text, &v);
  if (parsed == NumberParse::kNotANumber) {
    Die(flag + " expects an integer, got '" + text + "'");
  }
  if (parsed == NumberParse::kOutOfRange || v < lo || v > hi) {
    Die(flag + " expects an integer in [" + std::to_string(lo) + ", " +
        std::to_string(hi) + "], got '" + text + "'");
  }
  return v;
}

constexpr long long kMaxCount = std::numeric_limits<int>::max();
constexpr long long kMaxSeed = std::numeric_limits<int64_t>::max();
/// Upper bounds of the distributed backend's timing flags (see the file
/// header): one hour and one day.
constexpr long long kMaxHeartbeatMs = 60LL * 60 * 1000;
constexpr long long kMaxDeadlineMs = 24LL * 60 * 60 * 1000;

/// Parses `flag`'s colon-separated argument ("S:P", "S:P:I", "W:MS",
/// ...). Every field narrows into an int coordinate or count, so each
/// must be an integer in [0, 2147483647].
std::vector<int> SplitColonInts(const std::string& flag,
                                const std::string& arg, size_t min_fields,
                                size_t max_fields) {
  std::vector<int> out;
  std::string field;
  std::istringstream in(arg);
  while (std::getline(in, field, ':')) {
    out.push_back(static_cast<int>(ParseIntFlag(flag, field, 0, kMaxCount)));
  }
  if (out.size() < min_fields || out.size() > max_fields) {
    Die(flag + " expects " + std::to_string(min_fields) +
        (max_fields > min_fields ? " or " + std::to_string(max_fields) : "") +
        " colon-separated fields, got " + arg);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::string program_path;
  diablo::Bindings inputs;
  std::vector<std::string> prints;
  diablo::CompileOptions compile_options;
  diablo::runtime::EngineConfig engine_config;
  diablo::RunOptions run_options;
  bool show_target = false, plan_report = false, use_reference = false;
  bool use_local = false, explain_analyze = false;
  bool partitions_set = false;
  std::string trace_out, profile_out, profile_in;
  std::string metrics_out, events_out;
  int dist_workers = 0;
  bool chaos_seed_set = false;
  diablo::dist::DistConfig dist_config;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) Die(arg + " needs an argument");
      return argv[++i];
    };
    if (arg == "--scalar") {
      NameValue nv = SplitBinding(next());
      inputs[nv.name] = ParseScalar(nv.value, "--scalar " + nv.name);
    } else if (arg == "--vector") {
      NameValue nv = SplitBinding(next());
      inputs[nv.name] = LoadCsv(nv.value, /*matrix=*/false);
    } else if (arg == "--matrix") {
      NameValue nv = SplitBinding(next());
      inputs[nv.name] = LoadCsv(nv.value, /*matrix=*/true);
    } else if (arg == "--print") {
      prints.push_back(next());
    } else if (arg == "--target") {
      show_target = true;
    } else if (arg == "--plan-report") {
      plan_report = true;
    } else if (arg == "--explain-analyze") {
      explain_analyze = true;
    } else if (arg == "--trace-out" || arg.rfind("--trace-out=", 0) == 0) {
      trace_out = arg.size() > 12 ? arg.substr(12) : next();
    } else if (arg == "--profile-out" ||
               arg.rfind("--profile-out=", 0) == 0) {
      profile_out = arg.size() > 14 ? arg.substr(14) : next();
    } else if (arg == "--profile-in" ||
               arg.rfind("--profile-in=", 0) == 0) {
      profile_in = arg.size() > 13 ? arg.substr(13) : next();
    } else if (arg == "--metrics-out" ||
               arg.rfind("--metrics-out=", 0) == 0) {
      metrics_out = arg.size() > 14 ? arg.substr(14) : next();
    } else if (arg == "--events-out" ||
               arg.rfind("--events-out=", 0) == 0) {
      events_out = arg.size() > 13 ? arg.substr(13) : next();
    } else if (arg == "--no-skew") {
      engine_config.skew.mitigate = false;
    } else if (arg == "--no-trace") {
      engine_config.tracing = false;
    } else if (arg == "--partitions") {
      engine_config.num_partitions =
          static_cast<int>(ParseIntFlag(arg, next(), 1, kMaxCount));
      partitions_set = true;
    } else if (arg == "--workers") {
      engine_config.cluster.num_workers =
          static_cast<int>(ParseIntFlag(arg, next(), 1, kMaxCount));
    } else if (arg == "--threads") {
      engine_config.host_threads =
          static_cast<int>(ParseIntFlag(arg, next(), 1, kMaxCount));
    } else if (arg == "--broadcast-mb") {
      engine_config.broadcast_join_threshold_bytes =
          ParseIntFlag(arg, next(), 0,
                       std::numeric_limits<int64_t>::max() >> 20)
          << 20;
    } else if (arg == "--serialize-shuffles") {
      engine_config.serialize_shuffles = true;
    } else if (arg == "--fault-seed") {
      engine_config.faults.seed =
          static_cast<uint64_t>(ParseIntFlag(arg, next(), 0, kMaxSeed));
    } else if (arg == "--fail-rate") {
      engine_config.faults.task_failure_rate = ParseRateFlag(arg, next());
    } else if (arg == "--straggler-rate") {
      engine_config.faults.straggler_rate = ParseRateFlag(arg, next());
    } else if (arg == "--corrupt-rate") {
      engine_config.faults.corrupt_shuffle_rate = ParseRateFlag(arg, next());
    } else if (arg == "--max-attempts") {
      engine_config.faults.max_task_attempts =
          static_cast<int>(ParseIntFlag(arg, next(), 1, kMaxCount));
    } else if (arg == "--kill") {
      std::vector<int> sp = SplitColonInts(arg, next(), 2, 2);
      engine_config.faults.kill_tasks.push_back({sp[0], sp[1]});
    } else if (arg == "--lose") {
      std::vector<int> sp = SplitColonInts(arg, next(), 2, 3);
      engine_config.faults.lose_partitions.push_back(
          {sp[0], sp[1], sp.size() > 2 ? sp[2] : 0});
    } else if (arg == "--tiled") {
      run_options.tiled_arrays.insert(next());
    } else if (arg == "--tile-rows") {
      run_options.tile_config.tile_rows =
          ParseIntFlag(arg, next(), 1, kMaxCount);
    } else if (arg == "--tile-cols") {
      run_options.tile_config.tile_cols =
          ParseIntFlag(arg, next(), 1, kMaxCount);
    } else if (arg == "--dist-workers") {
      dist_workers = static_cast<int>(ParseIntFlag(arg, next(), 1, kMaxCount));
    } else if (arg == "--dist-heartbeat-ms") {
      dist_config.heartbeat_ms =
          static_cast<int>(ParseIntFlag(arg, next(), 10, kMaxHeartbeatMs));
    } else if (arg == "--dist-missed-beats") {
      dist_config.missed_beats =
          static_cast<int>(ParseIntFlag(arg, next(), 1, kMaxCount));
    } else if (arg == "--dist-deadline-ms") {
      dist_config.task_deadline_ms =
          static_cast<int>(ParseIntFlag(arg, next(), 50, kMaxDeadlineMs));
    } else if (arg == "--dist-max-task-retries") {
      dist_config.max_task_retries =
          static_cast<int>(ParseIntFlag(arg, next(), 0, kMaxCount));
    } else if (arg == "--dist-max-respawns") {
      dist_config.max_respawns =
          static_cast<int>(ParseIntFlag(arg, next(), 0, kMaxCount));
    } else if (arg == "--dist-stall") {
      std::vector<int> wm = SplitColonInts(arg, next(), 2, 2);
      dist_config.stall_worker = wm[0];
      dist_config.stall_ms = wm[1];
    } else if (arg == "--dist-verbose") {
      dist_config.verbose = true;
    } else if (arg == "--chaos-kill") {
      std::vector<int> sw = SplitColonInts(arg, next(), 2, 3);
      dist_config.chaos.kills.push_back(
          {sw[0], sw[1], sw.size() > 2 ? sw[2] : 0});
    } else if (arg == "--chaos-kill-rate") {
      dist_config.chaos.kill_rate = ParseRateFlag(arg, next());
    } else if (arg == "--chaos-seed") {
      dist_config.chaos.seed =
          static_cast<uint64_t>(ParseIntFlag(arg, next(), 0, kMaxSeed));
      chaos_seed_set = true;
    } else if (arg == "--no-opt") {
      compile_options.enable_optimizer = false;
    } else if (arg == "--local") {
      use_local = true;
    } else if (arg == "--reference") {
      use_reference = true;
    } else if (arg.rfind("--", 0) == 0) {
      Die("unknown option " + arg);
    } else if (program_path.empty()) {
      program_path = arg;
    } else {
      Die("multiple program files given");
    }
  }
  if (program_path.empty()) {
    Die("usage: diablo_run PROGRAM.diablo [options]; see the file header");
  }

  std::string source = ReadFile(program_path);
  // Provenance file name: the program's basename, as it should read in
  // "[pagerank.diablo:12:3]" stage annotations.
  {
    size_t slash = program_path.find_last_of('/');
    run_options.program_name = slash == std::string::npos
                                   ? program_path
                                   : program_path.substr(slash + 1);
  }

  // All output lines are buffered and emitted only after every lookup
  // succeeded: an error produces the stderr diagnostic and nothing else,
  // never a partial result a pipeline could mistake for a complete one.
  std::vector<std::string> lines;
  auto format_outputs = [&prints, &lines](auto&& get_scalar,
                                          auto&& get_array) -> Status {
    for (const std::string& name : prints) {
      auto scalar = get_scalar(name);
      if (scalar.ok()) {
        lines.push_back(name + " = " + scalar->ToString());
        continue;
      }
      auto array = get_array(name);
      if (!array.ok()) return array.status();
      lines.push_back(name + " = " + array->ToString());
    }
    return Status::OK();
  };
  auto emit = [&lines] {
    for (const std::string& line : lines) std::printf("%s\n", line.c_str());
  };

  if (use_reference) {
    auto ref = diablo::RunReference(source, inputs);
    if (!ref.ok()) DieStatus(ref.status());
    Status st = format_outputs(
        [&](const std::string& n) { return (*ref)->GetScalar(n); },
        [&](const std::string& n) { return (*ref)->GetArray(n); });
    if (!st.ok()) DieStatus(st);
    emit();
    return 0;
  }

  auto compiled = diablo::Compile(source, compile_options);
  if (!compiled.ok()) {
    if (compiled.status().code() == StatusCode::kRestrictionViolation) {
      // Rejected by Definition 3.1: show the analyzer's structured
      // diagnostics (codes, carets, race witnesses) instead of the
      // one-line summary, so the user sees *why* the loop races.
      auto parsed = diablo::parser::ParseProgram(source);
      if (parsed.ok()) {
        // Proven semantic errors (D2xx) reject programs too; their
        // witnesses render the same way as race witnesses.
        std::string rendered = diablo::analysis::RenderTextAll(
            diablo::analysis::RestrictionDiagnostics(
                diablo::analysis::CanonicalizeIncrements(parsed.value())),
            source, program_path);
        if (!rendered.empty()) {
          std::fprintf(stderr, "%s", rendered.c_str());
          std::exit(3);
        }
      }
    }
    DieStatus(compiled.status());
  }
  if (show_target) {
    std::printf("=== target ===\n%s\n", compiled->TargetToString().c_str());
  }

  if (use_local) {
    auto local = diablo::RunLocal(*compiled, inputs);
    if (!local.ok()) DieStatus(local.status());
    Status st = format_outputs(
        [&](const std::string& n) { return (*local)->GetScalar(n); },
        [&](const std::string& n) { return (*local)->GetArray(n); });
    if (!st.ok()) DieStatus(st);
    emit();
    return 0;
  }

  // Telemetry sinks (stack-allocated: both outlive the engine and the
  // coordinator, which borrow pointers). Wired in only when an output
  // was requested, so runs without the flags take the null fast paths.
  diablo::runtime::MetricsRegistry registry;
  diablo::runtime::EventLog events;
  if (!metrics_out.empty()) engine_config.registry = &registry;
  if (!events_out.empty()) {
    engine_config.events = &events;
    dist_config.events = &events;
  }

  std::unique_ptr<diablo::dist::Coordinator> coordinator;
  if (dist_workers > 0) {
    dist_config.num_workers = dist_workers;
    // The chaos schedule defaults to the fault seed so one --fault-seed
    // flag drives both oracles; --chaos-seed overrides.
    if (!chaos_seed_set) dist_config.chaos.seed = engine_config.faults.seed;
    coordinator = std::make_unique<diablo::dist::Coordinator>(dist_config);
    engine_config.remote = coordinator.get();
    // Effective seeds, so any chaos run can be replayed exactly:
    // re-running with these values reproduces the kill schedule.
    std::fprintf(stderr,
                 "diablo_run: dist workers=%d chaos seed %llu "
                 "(fault seed %llu)\n",
                 dist_workers,
                 static_cast<unsigned long long>(dist_config.chaos.seed),
                 static_cast<unsigned long long>(engine_config.faults.seed));
  } else if (dist_config.chaos.enabled()) {
    Die("--chaos-kill/--chaos-kill-rate require --dist-workers");
  }

  // Profile feedback (--profile-in): the parsed profile must outlive the
  // run (RunOptions::profile is a borrowed pointer). The partition count
  // is a plan choice too: when --partitions was not given explicitly, let
  // the measured row counts of the prior run size the partitioning.
  std::unique_ptr<diablo::runtime::ProfileData> profile;
  bool partitions_recommended = false;
  if (!profile_in.empty()) {
    auto parsed_profile =
        diablo::runtime::ProfileData::Parse(ReadFile(profile_in));
    if (!parsed_profile.ok()) DieStatus(parsed_profile.status());
    profile = std::make_unique<diablo::runtime::ProfileData>(
        std::move(parsed_profile.value()));
    run_options.profile = profile.get();
    if (!partitions_set) {
      int recommended = diablo::runtime::RecommendPartitions(
          *profile, engine_config.cluster.num_workers,
          engine_config.num_partitions);
      if (recommended != engine_config.num_partitions) {
        std::fprintf(stderr,
                     "diablo_run: profile feedback: partitions %d -> %d\n",
                     engine_config.num_partitions, recommended);
        engine_config.num_partitions = recommended;
        partitions_recommended = true;
      }
    }
  }

  diablo::runtime::Engine engine(engine_config);
  if (partitions_recommended) engine.RecordCostDecision();
  auto run = diablo::Run(*compiled, &engine, inputs, run_options);
  if (!run.ok()) DieStatus(run.status());

  Status st = format_outputs(
      [&](const std::string& n) { return run->Scalar(n); },
      [&](const std::string& n) { return run->Array(n); });
  if (!st.ok()) DieStatus(st);
  emit();

  if (plan_report) {
    const diablo::runtime::Metrics& metrics = engine.metrics();
    std::printf("=== stages ===\n%s", metrics.Report().c_str());
    std::printf("simulated cluster time: %.4f s (%d workers)\n",
                metrics.SimulatedSeconds(engine_config.cluster),
                engine_config.cluster.num_workers);
    if (engine_config.faults.enabled()) {
      std::printf(
          "fault recovery: attempts=%lld recomputed_partitions=%lld "
          "recovery=%.4f s (fault-free time: %.4f s)\n",
          static_cast<long long>(metrics.total_attempts()),
          static_cast<long long>(metrics.total_recomputed_partitions()),
          metrics.total_recovery_seconds(),
          metrics.SimulatedFaultFreeSeconds(engine_config.cluster));
    }
    if (coordinator != nullptr) {
      std::printf(
          "dist backend: tasks=%lld retries=%lld workers_lost=%lld "
          "chaos_kills=%d respawns=%d\n",
          static_cast<long long>(metrics.total_dist_tasks()),
          static_cast<long long>(metrics.total_dist_retries()),
          static_cast<long long>(metrics.total_dist_workers_lost()),
          coordinator->chaos_kills(), coordinator->respawns_used());
    }
  }

  if (explain_analyze || !trace_out.empty() || !profile_out.empty()) {
    std::vector<diablo::runtime::TraceSpan> spans;
    if (engine.trace() != nullptr) spans = engine.trace()->Snapshot();
    if (!trace_out.empty()) {
      std::ofstream out(trace_out);
      if (!out) Die("cannot write " + trace_out);
      diablo::runtime::WriteChromeTrace(spans, out);
      std::fprintf(stderr, "wrote Chrome trace (%zu spans) to %s\n",
                   spans.size(), trace_out.c_str());
    }
    if (!profile_out.empty()) {
      std::ofstream out(profile_out);
      if (!out) Die("cannot write " + profile_out);
      diablo::runtime::WriteProfileJson(engine.metrics(),
                                        engine_config.cluster, spans,
                                        run_options.program_name, out);
      std::fprintf(stderr, "wrote profile to %s\n", profile_out.c_str());
    }
    if (explain_analyze) {
      std::ostringstream report;
      diablo::runtime::WriteExplainAnalyze(engine.metrics(),
                                           engine_config.cluster, spans,
                                           report);
      std::printf("%s", report.str().c_str());
    }
  }

  if (!metrics_out.empty()) {
    // Run-level rollups next to the per-stage series the engine fed in
    // during the run.
    const diablo::runtime::Metrics& metrics = engine.metrics();
    registry.GaugeMax("diablo_run_peak_rss_bytes",
                      static_cast<double>(metrics.max_peak_rss_bytes()));
    registry.GaugeMax(
        "diablo_run_accumulator_bytes_peak",
        static_cast<double>(metrics.max_accumulator_bytes_peak()));
    registry.CounterAdd("diablo_dist_tasks_total",
                        metrics.total_dist_tasks());
    registry.CounterAdd("diablo_dist_retries_total",
                        metrics.total_dist_retries());
    registry.CounterAdd("diablo_dist_workers_lost_total",
                        metrics.total_dist_workers_lost());
    if (coordinator != nullptr) {
      registry.CounterAdd("diablo_chaos_kills_total",
                          coordinator->chaos_kills());
      registry.CounterAdd("diablo_worker_respawns_total",
                          coordinator->respawns_used());
    }
    std::ofstream out(metrics_out);
    if (!out) Die("cannot write " + metrics_out);
    const bool as_json =
        metrics_out.size() >= 5 &&
        metrics_out.compare(metrics_out.size() - 5, 5, ".json") == 0;
    if (as_json) {
      registry.WriteJson(out);
    } else {
      registry.WritePrometheus(out);
    }
    std::fprintf(stderr, "wrote metrics to %s\n", metrics_out.c_str());
  }
  if (!events_out.empty()) {
    std::ofstream out(events_out);
    if (!out) Die("cannot write " + events_out);
    events.WriteJsonl(out);
    std::fprintf(stderr, "wrote %lld events to %s\n",
                 static_cast<long long>(events.size()), events_out.c_str());
  }
  return 0;
}
