#include "runtime/trace.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <map>
#include <numeric>
#include <ostream>
#include <sstream>

#include "common/strings.h"

namespace diablo::runtime {

double SteadyNowUs() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {

/// Open spans keep dur_us at this sentinel until EndSpan fixes it.
constexpr double kOpenSentinel = -1.0;

thread_local int g_trace_worker = 0;

/// Fixed-point microseconds: trace timestamps don't need more than
/// 0.001us and scientific notation confuses trace viewers.
std::string FmtUs(double us) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3f", us);
  return buf;
}

std::string FmtDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

void WriteLocationJson(const std::string& file, int line, int column,
                       std::ostream& os) {
  if (line <= 0) {
    os << "null";
    return;
  }
  os << "{\"file\":\"" << JsonEscape(file.empty() ? "<program>" : file)
     << "\",\"line\":" << line << ",\"column\":" << column << "}";
}

std::string LocationSuffix(const std::string& file, int line, int column) {
  if (line <= 0) return "";
  std::ostringstream os;
  os << " [" << (file.empty() ? "<program>" : file) << ":" << line << ":"
     << column << "]";
  return os.str();
}

double Percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0;
  const auto n = sorted.size();
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  if (rank == 0) rank = 1;
  if (rank > n) rank = n;
  return sorted[rank - 1];
}

/// children[i] = ids of spans whose parent is i.
std::vector<std::vector<int64_t>> ChildIndex(
    const std::vector<TraceSpan>& spans) {
  std::vector<std::vector<int64_t>> children(spans.size());
  for (const auto& s : spans) {
    if (s.parent >= 0 && s.parent < static_cast<int64_t>(spans.size())) {
      children[static_cast<size_t>(s.parent)].push_back(s.id);
    }
  }
  return children;
}

}  // namespace

const char* SpanKindName(SpanKind kind) {
  switch (kind) {
    case SpanKind::kRun:
      return "run";
    case SpanKind::kStatement:
      return "statement";
    case SpanKind::kStage:
      return "stage";
    case SpanKind::kWave:
      return "wave";
    case SpanKind::kTask:
      return "task";
    case SpanKind::kRecovery:
      return "recovery";
  }
  return "span";
}

TraceRecorder::TraceRecorder() : epoch_us_(SteadyNowUs()) {}

double TraceRecorder::NowUs() const { return SteadyNowUs() - epoch_us_; }

int64_t TraceRecorder::BeginSpan(SpanKind kind, std::string name) {
  const double now = NowUs();
  std::lock_guard<std::mutex> lock(mu_);
  TraceSpan span;
  span.id = static_cast<int64_t>(spans_.size());
  span.parent = stack_.empty() ? -1 : stack_.back();
  span.kind = kind;
  span.name = std::move(name);
  span.start_us = now;
  span.dur_us = kOpenSentinel;
  stack_.push_back(span.id);
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

void TraceRecorder::EndSpan(int64_t id) {
  const double now = NowUs();
  std::lock_guard<std::mutex> lock(mu_);
  if (id < 0 || id >= static_cast<int64_t>(spans_.size())) return;
  // Close everything the stack still holds above (and including) `id`;
  // a mismatched End closes the abandoned children too, keeping
  // intervals properly nested.
  while (!stack_.empty()) {
    const int64_t top = stack_.back();
    stack_.pop_back();
    auto& span = spans_[static_cast<size_t>(top)];
    if (span.dur_us == kOpenSentinel) span.dur_us = now - span.start_us;
    if (top == id) return;
  }
  auto& span = spans_[static_cast<size_t>(id)];
  if (span.dur_us == kOpenSentinel) span.dur_us = now - span.start_us;
}

int64_t TraceRecorder::OpenSpan(SpanKind kind) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = stack_.rbegin(); it != stack_.rend(); ++it) {
    if (spans_[static_cast<size_t>(*it)].kind == kind) return *it;
  }
  return -1;
}

void TraceRecorder::SetName(int64_t id, std::string name) {
  std::lock_guard<std::mutex> lock(mu_);
  if (id < 0 || id >= static_cast<int64_t>(spans_.size())) return;
  spans_[static_cast<size_t>(id)].name = std::move(name);
}

void TraceRecorder::SetStageId(int64_t id, int stage_id) {
  std::lock_guard<std::mutex> lock(mu_);
  if (id < 0 || id >= static_cast<int64_t>(spans_.size())) return;
  spans_[static_cast<size_t>(id)].stage_id = stage_id;
}

void TraceRecorder::SetRows(int64_t id, int64_t rows) {
  std::lock_guard<std::mutex> lock(mu_);
  if (id < 0 || id >= static_cast<int64_t>(spans_.size())) return;
  spans_[static_cast<size_t>(id)].rows = rows;
}

void TraceRecorder::SetShuffleBytes(int64_t id, int64_t bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  if (id < 0 || id >= static_cast<int64_t>(spans_.size())) return;
  spans_[static_cast<size_t>(id)].shuffle_bytes = bytes;
}

void TraceRecorder::SetMetricsIndex(int64_t id, int index) {
  std::lock_guard<std::mutex> lock(mu_);
  if (id < 0 || id >= static_cast<int64_t>(spans_.size())) return;
  spans_[static_cast<size_t>(id)].metrics_index = index;
}

void TraceRecorder::SetLocation(int64_t id, std::string file, int line,
                                int column) {
  std::lock_guard<std::mutex> lock(mu_);
  if (id < 0 || id >= static_cast<int64_t>(spans_.size())) return;
  auto& span = spans_[static_cast<size_t>(id)];
  span.src_file = std::move(file);
  span.src_line = line;
  span.src_column = column;
}

void TraceRecorder::AddTask(int64_t parent, double start_us, double dur_us,
                            int worker, int partition, int attempt,
                            int stage_id, int64_t rows) {
  std::lock_guard<std::mutex> lock(mu_);
  TraceSpan span;
  span.id = static_cast<int64_t>(spans_.size());
  span.parent = parent;
  span.kind = SpanKind::kTask;
  span.name = "task";
  span.start_us = start_us;
  span.dur_us = dur_us;
  span.worker = worker;
  span.partition = partition;
  span.attempt = attempt;
  span.stage_id = stage_id;
  span.rows = rows;
  spans_.push_back(std::move(span));
}

int64_t TraceRecorder::AddRemoteSpan(int64_t parent, TraceSpan span) {
  std::lock_guard<std::mutex> lock(mu_);
  span.id = static_cast<int64_t>(spans_.size());
  span.parent = parent;
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

std::vector<TraceSpan> TraceRecorder::Snapshot() const {
  const double now = NowUs();
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<TraceSpan> out = spans_;
  for (auto& span : out) {
    if (span.dur_us == kOpenSentinel) span.dur_us = now - span.start_us;
  }
  return out;
}

void TraceRecorder::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.clear();
  stack_.clear();
}

int CurrentTraceWorker() { return g_trace_worker; }

void SetCurrentTraceWorker(int worker) { g_trace_worker = worker; }

void WriteChromeTrace(const std::vector<TraceSpan>& spans, std::ostream& os) {
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  // Thread-name metadata: the driver timeline plus one row per worker
  // thread that ran a task in the coordinator process.
  std::vector<int> workers;
  // Process-lane metadata: one Chrome process group per worker PROCESS
  // (distributed runs). Single-process traces have no process > 0 spans
  // and emit no process metadata at all, keeping their bytes identical
  // to the pre-distributed format.
  std::vector<int> processes;
  for (const auto& s : spans) {
    if (s.kind == SpanKind::kTask && s.worker > 0 && s.process == 0) {
      workers.push_back(s.worker);
    }
    if (s.process > 0) processes.push_back(s.process);
  }
  std::sort(workers.begin(), workers.end());
  workers.erase(std::unique(workers.begin(), workers.end()), workers.end());
  std::sort(processes.begin(), processes.end());
  processes.erase(std::unique(processes.begin(), processes.end()),
                  processes.end());
  bool first = true;
  auto comma = [&first, &os]() {
    if (!first) os << ",";
    first = false;
    os << "\n";
  };
  comma();
  os << "{\"ph\":\"M\",\"pid\":0,\"tid\":0,\"name\":\"thread_name\","
        "\"args\":{\"name\":\"driver\"}}";
  for (int w : workers) {
    comma();
    os << "{\"ph\":\"M\",\"pid\":0,\"tid\":" << w
       << ",\"name\":\"thread_name\",\"args\":{\"name\":\"worker " << w
       << "\"}}";
  }
  if (!processes.empty()) {
    comma();
    os << "{\"ph\":\"M\",\"pid\":0,\"tid\":0,\"name\":\"process_name\","
          "\"args\":{\"name\":\"coordinator\"}}";
    for (int p : processes) {
      comma();
      os << "{\"ph\":\"M\",\"pid\":" << p
         << ",\"tid\":0,\"name\":\"process_name\","
            "\"args\":{\"name\":\"worker process "
         << (p - 1) << "\"}}";
    }
  }
  for (const auto& s : spans) {
    comma();
    const int tid = s.kind == SpanKind::kTask ? s.worker : 0;
    os << "{\"ph\":\"X\",\"pid\":" << s.process << ",\"tid\":" << tid
       << ",\"name\":\""
       << JsonEscape(s.name) << "\",\"cat\":\"" << SpanKindName(s.kind)
       << "\",\"ts\":" << FmtUs(s.start_us) << ",\"dur\":" << FmtUs(s.dur_us)
       << ",\"args\":{\"span\":" << s.id << ",\"parent\":" << s.parent;
    if (s.stage_id >= 0) os << ",\"stage\":" << s.stage_id;
    if (s.partition >= 0) os << ",\"partition\":" << s.partition;
    if (s.kind == SpanKind::kTask) os << ",\"attempt\":" << s.attempt;
    if (s.rows >= 0) os << ",\"rows\":" << s.rows;
    if (s.shuffle_bytes >= 0) os << ",\"shuffle_bytes\":" << s.shuffle_bytes;
    if (s.src_line > 0) {
      os << ",\"location\":";
      WriteLocationJson(s.src_file, s.src_line, s.src_column, os);
    }
    os << "}}";
  }
  os << "\n]}\n";
}

TaskTimeStats AggregateTaskTimes(const std::vector<TraceSpan>& spans,
                                 int64_t stage_span_id) {
  TaskTimeStats stats;
  if (stage_span_id < 0 || stage_span_id >= static_cast<int64_t>(spans.size()))
    return stats;
  const auto children = ChildIndex(spans);
  std::vector<int64_t> work = {stage_span_id};
  std::vector<std::pair<double, int>> tasks;  // (dur_us, partition)
  while (!work.empty()) {
    const int64_t id = work.back();
    work.pop_back();
    const auto& span = spans[static_cast<size_t>(id)];
    if (span.kind == SpanKind::kTask) {
      tasks.emplace_back(span.dur_us, span.partition);
    }
    for (int64_t child : children[static_cast<size_t>(id)]) {
      work.push_back(child);
    }
  }
  if (tasks.empty()) return stats;
  std::vector<double> durs;
  durs.reserve(tasks.size());
  for (const auto& [dur, part] : tasks) {
    durs.push_back(dur);
    stats.total_us += dur;
  }
  std::sort(durs.begin(), durs.end());
  stats.count = static_cast<int64_t>(durs.size());
  stats.mean_us = stats.total_us / static_cast<double>(stats.count);
  stats.p50_us = Percentile(durs, 0.50);
  stats.p90_us = Percentile(durs, 0.90);
  stats.max_us = durs.back();
  stats.skew_ratio = stats.mean_us > 0 ? stats.max_us / stats.mean_us : 0;
  const double median = stats.p50_us;
  for (const auto& [dur, part] : tasks) {
    if (median > 0 && dur > 2 * median && part >= 0) {
      stats.straggler_partitions.push_back(part);
    }
  }
  std::sort(stats.straggler_partitions.begin(),
            stats.straggler_partitions.end());
  stats.straggler_partitions.erase(
      std::unique(stats.straggler_partitions.begin(),
                  stats.straggler_partitions.end()),
      stats.straggler_partitions.end());
  return stats;
}

namespace {

void WriteTaskStatsJson(const TaskTimeStats& t, std::ostream& os) {
  os << "{\"count\":" << t.count << ",\"total_us\":" << FmtDouble(t.total_us)
     << ",\"mean_us\":" << FmtDouble(t.mean_us)
     << ",\"p50_us\":" << FmtDouble(t.p50_us)
     << ",\"p90_us\":" << FmtDouble(t.p90_us)
     << ",\"max_us\":" << FmtDouble(t.max_us)
     << ",\"skew_ratio\":" << FmtDouble(t.skew_ratio) << ",\"stragglers\":[";
  for (size_t i = 0; i < t.straggler_partitions.size(); ++i) {
    if (i > 0) os << ",";
    os << t.straggler_partitions[i];
  }
  os << "]}";
}

void WriteIntArray(const std::vector<int64_t>& xs, std::ostream& os) {
  os << "[";
  for (size_t i = 0; i < xs.size(); ++i) {
    if (i > 0) os << ",";
    os << xs[i];
  }
  os << "]";
}

}  // namespace

void WriteProfileJson(const Metrics& metrics, const ClusterModel& model,
                      const std::vector<TraceSpan>& spans,
                      const std::string& program, std::ostream& os) {
  // metrics_index -> stage span id.
  std::map<int, int64_t> stage_spans;
  double run_wall_us = 0;
  for (const auto& s : spans) {
    if (s.kind == SpanKind::kStage && s.metrics_index >= 0) {
      stage_spans[s.metrics_index] = s.id;
    }
    if (s.kind == SpanKind::kRun) run_wall_us += s.dur_us;
  }
  os << "{\"schema_version\":4,\"program\":\"" << JsonEscape(program)
     << "\",\"tracing\":" << (spans.empty() ? "false" : "true")
     << ",\"run_wall_us\":" << FmtDouble(run_wall_us) << ",\"totals\":{"
     << "\"stages\":" << metrics.num_stages()
     << ",\"wide_stages\":" << metrics.num_wide_stages()
     << ",\"work\":" << metrics.total_work();
  for (const StageCounter& c : kStageCounters) {
    os << ",\"" << c.name << "\":" << c.FormatTotal(metrics);
  }
  os << ",\"simulated_seconds\":" << FmtDouble(metrics.SimulatedSeconds(model))
     << ",\"simulated_fault_free_seconds\":"
     << FmtDouble(metrics.SimulatedFaultFreeSeconds(model))
     << "},\"processes\":[";
  // One entry per process lane observed among task spans (0 =
  // coordinator; distributed runs add one per worker process).
  std::map<int, std::pair<int64_t, double>> proc_tasks;  // tasks, time
  std::map<int, double> proc_offset;
  for (const auto& s : spans) {
    if (s.kind != SpanKind::kTask) continue;
    auto& [count, time_us] = proc_tasks[s.process];
    ++count;
    time_us += s.dur_us;
    if (s.clock_offset_us != 0) proc_offset[s.process] = s.clock_offset_us;
  }
  {
    bool first_proc = true;
    for (const auto& [proc, stats] : proc_tasks) {
      os << (first_proc ? "" : ",") << "{\"process\":" << proc
         << ",\"tasks\":" << stats.first
         << ",\"task_time_us\":" << FmtDouble(stats.second)
         << ",\"clock_offset_us\":" << FmtDouble(proc_offset[proc]) << "}";
      first_proc = false;
    }
  }
  os << "],\"stages\":[";
  const auto& stages = metrics.stages();
  for (size_t i = 0; i < stages.size(); ++i) {
    const auto& s = stages[i];
    os << (i == 0 ? "" : ",") << "\n{\"index\":" << i << ",\"label\":\""
       << JsonEscape(s.label) << "\",\"wide\":" << (s.wide ? "true" : "false")
       << ",\"location\":";
    WriteLocationJson(s.src_file, s.src_line, s.src_column, os);
    os << ",\"map_work\":"
       << std::accumulate(s.map_work.begin(), s.map_work.end(), int64_t{0})
       << ",\"reduce_work\":"
       << std::accumulate(s.reduce_work.begin(), s.reduce_work.end(),
                          int64_t{0});
    for (const StageCounter& c : kStageCounters) {
      os << ",\"" << c.name << "\":" << c.Format(s);
    }
    os << ",\"partitions\":{\"rows\":";
    WriteIntArray(s.partition_rows, os);
    os << ",\"bytes\":";
    WriteIntArray(s.partition_bytes, os);
    os << "},\"tasks\":";
    auto it = stage_spans.find(static_cast<int>(i));
    if (it == stage_spans.end()) {
      os << "null";
    } else {
      WriteTaskStatsJson(AggregateTaskTimes(spans, it->second), os);
    }
    os << "}";
  }
  os << "\n]}\n";
}

void WriteExplainAnalyze(const Metrics& metrics, const ClusterModel& model,
                         const std::vector<TraceSpan>& spans,
                         std::ostream& os) {
  const auto& stages = metrics.stages();
  if (spans.empty()) {
    os << "explain-analyze: tracing was disabled; metrics report only\n"
       << metrics.Report();
    os << "simulated cluster seconds: "
       << FmtDouble(metrics.SimulatedSeconds(model)) << "\n";
    return;
  }
  double run_wall_us = 0;
  for (const auto& s : spans) {
    if (s.kind == SpanKind::kRun) run_wall_us += s.dur_us;
  }
  os << "== explain-analyze ==\n"
     << "run: " << FmtDouble(run_wall_us / 1000.0) << " ms wall, "
     << metrics.num_stages() << " stages (" << metrics.num_wide_stages()
     << " wide), simulated " << FmtDouble(metrics.SimulatedSeconds(model))
     << " s";
  if (metrics.total_recovery_seconds() > 0) {
    os << " (incl. " << FmtDouble(metrics.total_recovery_seconds())
       << " s recovery)";
  }
  os << "\n";
  // Nearest enclosing statement span for every stage span.
  auto statement_of = [&spans](const TraceSpan& span) -> int64_t {
    int64_t p = span.parent;
    while (p >= 0) {
      const auto& anc = spans[static_cast<size_t>(p)];
      if (anc.kind == SpanKind::kStatement) return anc.id;
      p = anc.parent;
    }
    return -1;
  };
  std::map<int64_t, std::vector<const TraceSpan*>> by_statement;
  for (const auto& s : spans) {
    if (s.kind == SpanKind::kStage) by_statement[statement_of(s)].push_back(&s);
  }
  auto print_stage = [&](const TraceSpan& span) {
    os << "  stage";
    if (span.stage_id >= 0) {
      os << " " << span.stage_id;
    }
    const StageStats* stats = nullptr;
    if (span.metrics_index >= 0 &&
        span.metrics_index < static_cast<int>(stages.size())) {
      stats = &stages[static_cast<size_t>(span.metrics_index)];
    }
    os << (stats != nullptr && stats->wide ? " [wide]  " : " [narrow]") << " "
       << span.name
       << LocationSuffix(span.src_file, span.src_line, span.src_column)
       << "  (wall " << FmtDouble(span.dur_us / 1000.0) << " ms)\n";
    if (stats != nullptr) {
      os << "      ";
      WriteStageCounters(*stats, os);
      os << "\n";
    }
    const TaskTimeStats t = AggregateTaskTimes(spans, span.id);
    if (t.count > 0) {
      os << "      tasks: " << t.count << "  mean "
         << FmtDouble(t.mean_us / 1000.0) << " ms  p50 "
         << FmtDouble(t.p50_us / 1000.0) << " ms  p90 "
         << FmtDouble(t.p90_us / 1000.0) << " ms  max "
         << FmtDouble(t.max_us / 1000.0) << " ms  skew "
         << FmtDouble(t.skew_ratio) << "  stragglers: ";
      if (t.straggler_partitions.empty()) {
        os << "none";
      } else {
        for (size_t i = 0; i < t.straggler_partitions.size(); ++i) {
          if (i > 0) os << ",";
          os << "p" << t.straggler_partitions[i];
        }
      }
      os << "\n";
    }
  };
  // Statements in execution order; stages outside any statement first
  // (input materialization before the program body runs).
  if (by_statement.count(-1) > 0) {
    os << "\n(setup: input materialization outside program statements)\n";
    for (const TraceSpan* stage : by_statement[-1]) print_stage(*stage);
  }
  for (const auto& s : spans) {
    if (s.kind != SpanKind::kStatement) continue;
    os << "\nstatement: " << s.name
       << LocationSuffix(s.src_file, s.src_line, s.src_column) << "  (wall "
       << FmtDouble(s.dur_us / 1000.0) << " ms)\n";
    auto it = by_statement.find(s.id);
    if (it == by_statement.end()) {
      os << "  (driver-only: no engine stages)\n";
      continue;
    }
    for (const TraceSpan* stage : it->second) print_stage(*stage);
  }
  os << "\n";
}

}  // namespace diablo::runtime
