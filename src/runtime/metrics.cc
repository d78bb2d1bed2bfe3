#include "runtime/metrics.h"

#include <algorithm>
#include <cstdio>
#include <numeric>
#include <ostream>
#include <queue>
#include <sstream>

namespace diablo::runtime {

int64_t LptMakespan(std::vector<int64_t> tasks, int workers) {
  if (tasks.empty() || workers <= 0) return 0;
  std::sort(tasks.begin(), tasks.end(), std::greater<int64_t>());
  // Min-heap of worker loads.
  std::priority_queue<int64_t, std::vector<int64_t>, std::greater<int64_t>>
      loads;
  for (int i = 0; i < workers; ++i) loads.push(0);
  for (int64_t t : tasks) {
    int64_t load = loads.top();
    loads.pop();
    loads.push(load + t);
  }
  int64_t makespan = 0;
  while (!loads.empty()) {
    makespan = std::max(makespan, loads.top());
    loads.pop();
  }
  return makespan;
}

int64_t Metrics::num_wide_stages() const {
  int64_t n = 0;
  for (const auto& s : stages_) n += s.wide ? 1 : 0;
  return n;
}

int64_t Metrics::total_work() const {
  int64_t n = 0;
  for (const auto& s : stages_) {
    for (int64_t w : s.map_work) n += w;
    for (int64_t w : s.reduce_work) n += w;
  }
  return n;
}

namespace {

std::string FormatValue(int64_t v) { return std::to_string(v); }

std::string FormatValue(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

}  // namespace

std::string StageCounter::Format(const StageStats& stage) const {
  return std::visit([&](auto m) { return FormatValue(stage.*m); }, member);
}

void StageCounter::FoldInto(const StageStats& from, StageStats* into) const {
  std::visit(
      [&](auto m) {
        into->*m = fold == Fold::kMax ? std::max(into->*m, from.*m)
                                      : into->*m + from.*m;
      },
      member);
}

std::string StageCounter::FormatTotal(const Metrics& metrics) const {
  StageStats total;
  for (const StageStats& stage : metrics.stages()) FoldInto(stage, &total);
  return Format(total);
}

bool StageCounter::IsZero(const StageStats& stage) const {
  return std::visit([&](auto m) { return stage.*m == 0; }, member);
}

void FoldTaskRecords(const std::vector<StageStats>& tasks, StageStats* stage) {
  for (const StageStats& task : tasks) {
    for (const StageCounter& c : kStageCounters) c.FoldInto(task, stage);
    stage->reduce_work.insert(stage->reduce_work.end(),
                              task.reduce_work.begin(),
                              task.reduce_work.end());
    std::vector<int64_t>& bytes = stage->partition_bytes;
    if (bytes.size() < task.partition_bytes.size()) {
      bytes.resize(task.partition_bytes.size(), 0);
    }
    for (size_t d = 0; d < task.partition_bytes.size(); ++d) {
      bytes[d] += task.partition_bytes[d];
    }
  }
}

void WriteStageCounters(const StageStats& stage, std::ostream& os) {
  os << "map_work="
     << std::accumulate(stage.map_work.begin(), stage.map_work.end(),
                        int64_t{0})
     << " reduce_work="
     << std::accumulate(stage.reduce_work.begin(), stage.reduce_work.end(),
                        int64_t{0});
  for (const StageCounter& c : kStageCounters) {
    if (c.fold == StageCounter::Fold::kSum && !c.IsZero(stage)) {
      os << " " << c.name << "=" << c.Format(stage);
    }
  }
}

double Metrics::SimulatedFaultFreeSeconds(const ClusterModel& model) const {
  double total = 0;
  for (const auto& s : stages_) {
    total += static_cast<double>(LptMakespan(s.map_work, model.num_workers)) *
             model.seconds_per_work_unit;
    if (!s.reduce_work.empty()) {
      total +=
          static_cast<double>(LptMakespan(s.reduce_work, model.num_workers)) *
          model.seconds_per_work_unit;
    }
    total += static_cast<double>(s.shuffle_bytes) *
             model.seconds_per_shuffle_byte / model.num_workers;
    total += s.wide ? model.wide_stage_latency_seconds
                    : model.narrow_stage_latency_seconds;
  }
  return total;
}

double Metrics::SimulatedSeconds(const ClusterModel& model) const {
  return SimulatedFaultFreeSeconds(model) + total_recovery_seconds();
}

std::string Metrics::Report() const {
  std::ostringstream os;
  for (const auto& s : stages_) {
    os << (s.wide ? "[wide]   " : "[narrow] ") << s.label;
    if (s.src_line > 0) {
      os << " [" << (s.src_file.empty() ? "<program>" : s.src_file) << ":"
         << s.src_line << ":" << s.src_column << "]";
    }
    os << ": ";
    WriteStageCounters(s, os);
    os << "\n";
  }
  return os.str();
}

}  // namespace diablo::runtime
