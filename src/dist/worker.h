#ifndef DIABLO_DIST_WORKER_H_
#define DIABLO_DIST_WORKER_H_

#include <cstdint>
#include <string>

#include "runtime/remote.h"

namespace diablo::dist {

/// Parameters a forked worker child needs to join the coordinator.
struct WorkerParams {
  int worker_id = 0;
  /// Coordinator's loopback listen port.
  uint16_t port = 0;
  /// Per-wave session token; the coordinator rejects Hellos from stale
  /// children of earlier waves racing the accept loop.
  uint64_t token = 0;
  int heartbeat_ms = 250;
  int connect_attempts = 10;
  int connect_backoff_ms = 10;
  /// Test hook: sleep this long before running every task, so a
  /// deadline/heartbeat test can make one worker pathologically slow
  /// without real clock dependence in assertions.
  int stall_ms = 0;
};

/// Body of a forked worker child. Connects back to the coordinator,
/// handshakes, starts a heartbeat thread, then serves kTask frames by
/// running the wave's closures against the child's copy-on-write
/// snapshot of the driver state until kShutdown/EOF. Never returns:
/// ends in _exit() so the child skips atexit handlers and leak checks
/// that belong to the coordinator process.
[[noreturn]] void WorkerMain(const WorkerParams& params,
                             const runtime::RemoteTaskWave& wave);

/// Payload builders/parsers shared by worker and coordinator (and
/// exercised directly in tests). The hello carries the worker's
/// absolute steady-clock reading (µs) taken just before the send; the
/// coordinator subtracts its own reading at receive to measure the
/// clock offset used to rebase the task results' start times.
std::string EncodeHelloPayload(int worker_id, int64_t pid, uint64_t token,
                               double steady_now_us);
Status DecodeHelloPayload(const std::string& payload, int* worker_id,
                          int64_t* pid, uint64_t* token,
                          double* steady_now_us);
std::string EncodeTaskPayload(int p, int attempt);
Status DecodeTaskPayload(const std::string& payload, int* p, int* attempt);
/// The result of every attempt a worker runs, failed or not: task,
/// attempt, status, the attempt's start (absolute worker steady-clock
/// µs) and duration, the worker's peak RSS in bytes when it ended, and
/// the length-prefixed encoded slots (empty unless the attempt
/// succeeded). The decoder rejects truncation and trailing bytes.
std::string EncodeTaskResultPayload(int p, int attempt, const Status& status,
                                    double start_us, double dur_us,
                                    int64_t peak_rss_bytes,
                                    const std::string& slots);
Status DecodeTaskResultPayload(const std::string& payload, int* p,
                               int* attempt, Status* task_status,
                               double* start_us, double* dur_us,
                               int64_t* peak_rss_bytes, std::string* slots);

}  // namespace diablo::dist

#endif  // DIABLO_DIST_WORKER_H_
