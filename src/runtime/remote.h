#ifndef DIABLO_RUNTIME_REMOTE_H_
#define DIABLO_RUNTIME_REMOTE_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/status.h"

namespace diablo::runtime {

class TaskAttempts;

/// One task wave handed to a remote executor. The engine packages every
/// wave (map, shuffle, reduce, ...) into this closure bundle so the
/// scheduling seam stays in runtime/ while the process/socket machinery
/// lives in src/dist/ — runtime/ never links against dist/.
///
/// Split of responsibilities:
///  - `run` and `encode` execute on the WORKER side (after fork they run
///    in the child against its copy-on-write snapshot of the wave
///    closures).
///  - `install`, `attempts` and the hooks below are used on the
///    COORDINATOR side, against the driver's live slot vectors.
///
/// Simulated faults stay engine-owned: the coordinator starts, fails
/// and completes every simulated attempt through the wave's
/// TaskAttempts ledger (runtime/fault.h), the same ledger the local
/// scheduler uses, so a distributed run charges identical attempts,
/// retry and straggler time, and task_retry events. Real worker deaths
/// are a separate budget: a task lost to a SIGKILL is re-dispatched with
/// the SAME simulated attempt number, keeping the deterministic fault
/// schedule aligned between local and distributed runs.
///
/// Every member must be set; the engine always provides all of them.
struct RemoteTaskWave {
  /// Human-readable op label ("map", "shuffle", ...), for errors/logs.
  std::string label;
  /// Stage id (fault-injection coordinate and trace stage).
  int stage = 0;
  /// Per-task work estimate (rows), sized to the number of tasks.
  std::vector<int64_t> task_work;

  /// WORKER: runs task `p` as simulated attempt `attempt`, writing the
  /// worker-local copy of the wave's slots. May return TaskLost (a
  /// simulated in-task fault) — retryable by the coordinator.
  std::function<Status(int p, int attempt)> run;
  /// WORKER: encodes task `p`'s slots after a successful run.
  std::function<StatusOr<std::string>(int p)> encode;
  /// COORDINATOR: installs a worker's encoded slots for task `p` into
  /// the driver's slot vectors.
  std::function<Status(int p, const std::string& bytes)> install;

  /// COORDINATOR: the wave's attempt ledger. Begin picks the simulated
  /// attempt each dispatch runs (or fails the task once its budget is
  /// spent); a TaskLost result is charged with Fail, a success with
  /// Succeed. Not owned.
  TaskAttempts* attempts = nullptr;

  /// COORDINATOR: one attempt `worker` ran, failed or not, as its task
  /// result reported it, before the result is handled: task `p` as
  /// simulated attempt `attempt`, started at `start_us` (ABSOLUTE
  /// worker steady-clock microseconds) and running `dur_us`, with the
  /// worker's peak RSS in bytes when it ended. `clock_offset_us` is the
  /// worker's steady clock minus the coordinator's, measured at the
  /// Hello handshake. (Workers are forked from the coordinator on one
  /// host, so both read the same CLOCK_MONOTONIC; the offset is the
  /// measured residual, applied only when it is large enough to be a
  /// real skew.)
  std::function<void(int worker, double clock_offset_us, int p, int attempt,
                     double start_us, double dur_us, int64_t peak_rss_bytes)>
      on_attempt;
  /// COORDINATOR: a worker died (heartbeat timeout, task deadline, or a
  /// real kill); `pending` lists the task indices that were in flight
  /// on it and will be re-dispatched to survivors.
  std::function<void(int worker, const std::vector<int>& pending,
                     const std::string& reason)>
      on_worker_lost;
};

/// Counters a remote executor reports back per wave, merged into the
/// engine's stage metrics.
struct RemoteWaveStats {
  /// Tasks dispatched to workers (includes real-retry re-dispatches).
  int64_t tasks = 0;
  /// Re-dispatches caused by real worker loss (not simulated faults).
  int64_t real_retries = 0;
  /// Workers declared dead during the wave.
  int64_t workers_lost = 0;
  /// Total encoded result bytes installed.
  int64_t result_bytes = 0;
};

/// The engine's seam to a distributed backend. Implemented by
/// dist::Coordinator; the engine calls RunWave for every task wave when
/// EngineConfig::remote is set.
class RemoteExecutor {
 public:
  virtual ~RemoteExecutor() = default;

  /// Executes every task of `wave` remotely, installing all results
  /// before returning. Returns the first (lowest task index) genuine
  /// task error, or a DistError when the backend itself fails.
  virtual Status RunWave(const RemoteTaskWave& wave,
                         RemoteWaveStats* stats) = 0;
};

}  // namespace diablo::runtime

#endif  // DIABLO_RUNTIME_REMOTE_H_
