#include "runtime/fault.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/strings.h"
#include "runtime/events.h"
#include "runtime/metrics.h"

namespace diablo::runtime {

namespace {

/// splitmix64 finalizer: a cheap, well-mixed 64-bit permutation.
uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

enum Stream : uint64_t {
  kTaskFail = 1,
  kStraggler = 2,
  kCorruptRow = 3,
  kCorruptByte = 4,
};

}  // namespace

bool FaultConfig::enabled() const {
  return task_failure_rate > 0 || straggler_rate > 0 ||
         corrupt_shuffle_rate > 0 || !kill_tasks.empty() ||
         !lose_partitions.empty() || retain_lineage;
}

FaultInjector::FaultInjector(FaultConfig config) : config_(std::move(config)) {}

double FaultInjector::Uniform(uint64_t stream, uint64_t a, uint64_t b,
                              uint64_t c) const {
  uint64_t h = Mix(config_.seed ^ (stream * 0xd6e8feb86659fd93ull));
  h = Mix(h ^ a);
  h = Mix(h ^ b);
  h = Mix(h ^ c);
  // Top 53 bits -> [0, 1) with full double precision.
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

bool FaultInjector::TaskAttemptFails(int stage, int partition,
                                     int attempt) const {
  if (attempt == 0) {
    for (const KillTask& k : config_.kill_tasks) {
      if (k.stage == stage && k.partition == partition) return true;
    }
  }
  return config_.task_failure_rate > 0 &&
         Uniform(kTaskFail, static_cast<uint64_t>(stage),
                 static_cast<uint64_t>(partition),
                 static_cast<uint64_t>(attempt)) < config_.task_failure_rate;
}

double FaultInjector::StragglerMultiplier(int stage, int partition,
                                          int attempt) const {
  if (config_.straggler_rate <= 0) return 1.0;
  bool straggles =
      Uniform(kStraggler, static_cast<uint64_t>(stage),
              static_cast<uint64_t>(partition),
              static_cast<uint64_t>(attempt)) < config_.straggler_rate;
  return straggles ? config_.straggler_multiplier : 1.0;
}

bool FaultInjector::CorruptShuffleRow(int stage, int partition, int attempt,
                                      int64_t row) const {
  return config_.corrupt_shuffle_rate > 0 &&
         Uniform(kCorruptRow, static_cast<uint64_t>(stage),
                 static_cast<uint64_t>(partition),
                 (static_cast<uint64_t>(attempt) << 40) ^
                     static_cast<uint64_t>(row)) <
             config_.corrupt_shuffle_rate;
}

size_t FaultInjector::CorruptByteIndex(int stage, int partition, int64_t row,
                                       size_t size) const {
  if (size == 0) return 0;
  uint64_t h = Mix(config_.seed ^ (kCorruptByte * 0xd6e8feb86659fd93ull));
  h = Mix(h ^ static_cast<uint64_t>(stage));
  h = Mix(h ^ static_cast<uint64_t>(partition));
  h = Mix(h ^ static_cast<uint64_t>(row));
  return static_cast<size_t>(h % size);
}

std::vector<int> FaultInjector::LostPartitions(int stage, int input_index,
                                               int num_partitions) const {
  std::vector<int> lost;
  for (const LosePartition& l : config_.lose_partitions) {
    if (l.stage == stage && l.input_index == input_index &&
        l.partition >= 0 && l.partition < num_partitions) {
      lost.push_back(l.partition);
    }
  }
  return lost;
}

TaskAttempts::TaskAttempts(const FaultInjector& injector,
                           double seconds_per_work_unit, EventLog* events,
                           std::string label, int stage,
                           const std::vector<int64_t>& task_work)
    : injector_(injector),
      seconds_per_work_unit_(seconds_per_work_unit),
      events_(events),
      label_(std::move(label)),
      stage_(stage),
      task_work_(task_work),
      started_(task_work.size(), 0),
      recovery_(task_work.size(), 0.0) {}

double TaskAttempts::TaskSeconds(int p) const {
  return static_cast<double>(task_work_[p]) * seconds_per_work_unit_;
}

StatusOr<int> TaskAttempts::Begin(int p) {
  const int budget = injector_.config().max_task_attempts;
  while (started_[p] < budget) {
    const int attempt = static_cast<int>(started_[p]++);
    if (!injector_.TaskAttemptFails(stage_, p, attempt)) return attempt;
    // The attempt dies partway through: its work is wasted and the
    // scheduler waits out a backoff before relaunching.
    Fail(p, attempt, "sim_kill");
  }
  return Status::RuntimeError(
      StrCat("stage #", stage_, " '", label_, "': partition ", p,
             " failed after ", budget, " attempts; retry budget (", budget,
             ") exhausted"));
}

void TaskAttempts::Fail(int p, int attempt, const char* reason) {
  recovery_[p] += TaskSeconds(p) +
                  injector_.config().retry_backoff_seconds *
                      std::ldexp(1.0, std::min(attempt, 16));
  if (events_ == nullptr) return;
  Event e;
  e.name = "task_retry";
  e.stage_id = stage_;
  e.ints.emplace_back("partition", p);
  e.ints.emplace_back("attempt", attempt);
  e.strs.emplace_back("reason", reason);
  events_->Emit(std::move(e));
}

void TaskAttempts::Succeed(int p, int attempt) {
  const double mult = injector_.StragglerMultiplier(stage_, p, attempt);
  if (mult > 1.0) recovery_[p] += (mult - 1.0) * TaskSeconds(p);
}

void TaskAttempts::AddTo(StageStats* stats) const {
  for (size_t p = 0; p < started_.size(); ++p) {
    stats->attempts += started_[p];
    stats->recovery_seconds += recovery_[p];
  }
}

}  // namespace diablo::runtime
