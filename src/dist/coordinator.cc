#include "dist/coordinator.h"

#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <deque>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/strings.h"
#include "dist/transport.h"
#include "dist/wire.h"
#include "dist/worker.h"
#include "runtime/events.h"
#include "runtime/fault.h"
#include "runtime/trace.h"

namespace diablo::dist {

namespace {

using Clock = std::chrono::steady_clock;

int64_t MsSince(Clock::time_point then, Clock::time_point now) {
  return std::chrono::duration_cast<std::chrono::milliseconds>(now - then)
      .count();
}

/// One forked worker, as the coordinator sees it. Survives its own
/// death bookkeeping: a dead worker keeps its id (chaos coordinates and
/// logs stay stable) and, when respawned, its cumulative per-wave
/// result count.
struct WorkerState {
  pid_t pid = -1;
  int fd = -1;
  bool connected = false;
  bool alive = false;
  FrameReader reader;
  Clock::time_point last_heard;
  int in_flight = -1;
  Clock::time_point dispatched_at;
  std::deque<int> queue;
  /// Worker steady clock minus coordinator steady clock (µs), measured
  /// when the Hello arrived; rebases the task results' start times.
  double clock_offset_us = 0;
  /// Results installed from this worker id during the current wave,
  /// cumulative across respawns — the chaos-kill trigger coordinate.
  int results_in_wave = 0;
  /// Highest result count already tested against the chaos schedule,
  /// so a respawned worker never re-draws an already-survived
  /// coordinate (that would re-kill it forever under a kill rate).
  int chaos_checked_through = -1;
};

struct TaskState {
  bool done = false;
  /// Simulated attempt currently (or last) dispatched.
  int cur_attempt = -1;
  /// True when the task lost its worker mid-flight and must re-run the
  /// same simulated attempt on a survivor.
  bool redispatch_same = false;
  int real_retries = 0;
  Status failure;  // genuine task failure, reported at wave end
  bool failed = false;
};

/// Accepted connection that has not yet identified itself with Hello.
struct PendingConn {
  int fd = -1;
  FrameReader reader;
};

}  // namespace

Coordinator::Coordinator(DistConfig config)
    : config_(std::move(config)), chaos_(config_.chaos) {
  config_.num_workers = std::max(config_.num_workers, 1);
  config_.heartbeat_ms = std::max(config_.heartbeat_ms, 10);
  config_.missed_beats = std::max(config_.missed_beats, 1);
  config_.task_deadline_ms = std::max(config_.task_deadline_ms, 50);
  config_.max_task_retries = std::max(config_.max_task_retries, 0);
  config_.max_respawns = std::max(config_.max_respawns, 0);
}

Status Coordinator::RunWave(const runtime::RemoteTaskWave& wave,
                            runtime::RemoteWaveStats* stats) {
  const int num_tasks = static_cast<int>(wave.task_work.size());
  if (num_tasks == 0) return Status::OK();
  const int num_workers = config_.num_workers;
  const uint64_t token = next_token_++;

  uint16_t port = 0;
  DIABLO_ASSIGN_OR_RETURN(int listen_fd, ListenLoopback(&port));

  std::vector<WorkerState> workers(num_workers);
  std::vector<TaskState> tasks(num_tasks);
  std::vector<PendingConn> pending;
  std::vector<pid_t> to_reap;
  int tasks_done = 0;

  auto log = [this, &wave](const std::string& line) {
    if (config_.verbose) {
      std::fprintf(stderr, "diablo-dist: stage %d %s\n", wave.stage,
                   line.c_str());
    }
  };

  // Structured event sink; every emission is gated on the null test so
  // runs without --events-out stay byte-identical.
  runtime::EventLog* events = config_.events;

  // Forks one child for worker slot `w`. The child sheds every fd it
  // inherited from the coordinator (listener + peers), then serves the
  // wave closures it got for free via copy-on-write. _exit only: the
  // child must not run the coordinator's atexit/leak machinery.
  auto spawn = [&](int w) -> Status {
    WorkerParams params;
    params.worker_id = w;
    params.port = port;
    params.token = token;
    params.heartbeat_ms = config_.heartbeat_ms;
    params.connect_attempts = config_.connect_attempts;
    params.connect_backoff_ms = config_.connect_backoff_ms;
    if (w == config_.stall_worker) params.stall_ms = config_.stall_ms;
    pid_t pid = fork();
    if (pid < 0) {
      return Status::DistError(StrCat("fork: ", std::strerror(errno)));
    }
    if (pid == 0) {
      CloseFd(listen_fd);
      for (const WorkerState& other : workers) CloseFd(other.fd);
      for (const PendingConn& conn : pending) CloseFd(conn.fd);
      WorkerMain(params, wave);  // never returns
    }
    WorkerState& ws = workers[w];
    ws.pid = pid;
    ws.fd = -1;
    ws.connected = false;
    ws.alive = true;
    ws.reader = FrameReader();
    ws.last_heard = Clock::now();
    return Status::OK();
  };

  // Static round-robin assignment fixes which worker owns which task
  // before any socket timing can interfere — the foundation of chaos
  // reproducibility.
  for (int p = 0; p < num_tasks; ++p) {
    workers[p % num_workers].queue.push_back(p);
  }

  Status wave_error;  // first backend-level (non-task) failure

  auto fail_wave = [&](Status st) {
    if (wave_error.ok()) wave_error = std::move(st);
  };

  auto record_task_failure = [&](int p, Status st) {
    TaskState& task = tasks[p];
    if (!task.done) {
      task.done = true;
      ++tasks_done;
    }
    task.failed = true;
    task.failure = std::move(st);
  };

  std::function<void(int, const char*)> declare_dead;

  // SIGKILLs `w` per the chaos schedule if its current result count has
  // an unconsumed kill scheduled. Checked when a worker connects
  // (count 0: kill before any result) and after every installed result.
  auto maybe_chaos_kill = [&](int w) {
    WorkerState& ws = workers[w];
    if (!chaos_.enabled() || !ws.alive) return;
    if (ws.results_in_wave <= ws.chaos_checked_through) return;
    ws.chaos_checked_through = ws.results_in_wave;
    if (!chaos_.ShouldKill(wave.stage, w, ws.results_in_wave)) return;
    ++chaos_kills_;
    std::fprintf(stderr,
                 "diablo-dist: chaos kill worker %d pid %ld (stage %d, "
                 "after %d results)\n",
                 w, static_cast<long>(ws.pid), wave.stage,
                 ws.results_in_wave);
    if (events != nullptr) {
      runtime::Event e;
      e.name = "chaos_kill";
      e.stage_id = wave.stage;
      e.ints.emplace_back("worker", w);
      e.ints.emplace_back("after_results", ws.results_in_wave);
      events->Emit(std::move(e));
    }
    kill(ws.pid, SIGKILL);
    declare_dead(w, "chaos kill");
  };

  // Hands the next dispatchable task to `w`. A fresh dispatch starts the
  // task's next simulated attempt in the wave's ledger, which charges
  // and skips the attempts the injector kills; a real-retry re-dispatch
  // re-runs the attempt the dead worker held.
  auto dispatch_next = [&](int w) {
    WorkerState& ws = workers[w];
    while (ws.alive && ws.connected && ws.in_flight < 0 &&
           !ws.queue.empty() && wave_error.ok()) {
      int p = ws.queue.front();
      ws.queue.pop_front();
      TaskState& task = tasks[p];
      if (task.done) continue;
      int attempt = task.cur_attempt;
      if (!task.redispatch_same) {
        StatusOr<int> next = wave.attempts->Begin(p);
        if (!next.ok()) {
          record_task_failure(p, next.status());
          continue;
        }
        attempt = *next;
      }
      task.cur_attempt = attempt;
      task.redispatch_same = false;
      Status sent =
          SendFrame(ws.fd, FrameType::kTask, EncodeTaskPayload(p, attempt));
      if (!sent.ok()) {
        // Dead socket: the liveness machinery handles the worker; the
        // task goes back to the front so redistribution picks it up.
        task.redispatch_same = true;
        ws.queue.push_front(p);
        declare_dead(w, "send failed");
        return;
      }
      ws.in_flight = p;
      ws.dispatched_at = Clock::now();
      ++stats->tasks;
    }
  };

  declare_dead = [&](int w, const char* reason) {
    WorkerState& ws = workers[w];
    if (!ws.alive) return;
    ws.alive = false;
    ws.connected = false;
    CloseFd(ws.fd);
    ws.fd = -1;
    if (ws.pid > 0) {
      kill(ws.pid, SIGKILL);
      to_reap.push_back(ws.pid);
      ws.pid = -1;
    }
    ++stats->workers_lost;

    // Everything this worker still owed: the in-flight task (re-run on
    // the same simulated attempt) plus its undispatched queue.
    std::vector<int> owed;
    if (ws.in_flight >= 0) {
      int p = ws.in_flight;
      ws.in_flight = -1;
      TaskState& task = tasks[p];
      if (!task.done) {
        ++task.real_retries;
        ++stats->real_retries;
        if (task.real_retries > config_.max_task_retries) {
          fail_wave(Status::DistError(
              StrCat("stage #", wave.stage, " '", wave.label,
                     "': task ", p, " lost its worker ", task.real_retries,
                     " times; real retry budget (", config_.max_task_retries,
                     ") exhausted")));
        } else {
          task.redispatch_same = true;
          owed.push_back(p);
        }
      }
    }
    for (int p : ws.queue) {
      if (!tasks[p].done) owed.push_back(p);
    }
    ws.queue.clear();
    log(StrCat("worker ", w, " lost (", reason, "); ", owed.size(),
               " tasks re-admitted"));
    if (events != nullptr) {
      runtime::Event e;
      e.name = "worker_lost";
      e.stage_id = wave.stage;
      e.ints.emplace_back("worker", w);
      e.ints.emplace_back("tasks_readmitted",
                          static_cast<int64_t>(owed.size()));
      e.strs.emplace_back("reason", reason);
      events->Emit(std::move(e));
      if (std::strcmp(reason, "heartbeat timeout") == 0) {
        runtime::Event hb;
        hb.name = "heartbeat_loss";
        hb.stage_id = wave.stage;
        hb.ints.emplace_back("worker", w);
        events->Emit(std::move(hb));
      }
    }
    wave.on_worker_lost(w, owed, reason);

    // Degrade onto survivors, round-robin in id order; respawn is the
    // last resort when nobody survived.
    std::vector<int> survivors;
    for (int i = 0; i < num_workers; ++i) {
      if (workers[i].alive) survivors.push_back(i);
    }
    if (survivors.empty()) {
      if (!owed.empty() || tasks_done < num_tasks) {
        if (respawns_used_ >= config_.max_respawns) {
          fail_wave(Status::DistError(
              StrCat("stage #", wave.stage, " '", wave.label,
                     "': all workers dead; respawn budget (",
                     config_.max_respawns, ") exhausted")));
          return;
        }
        ++respawns_used_;
        log(StrCat("respawning worker ", w, " (", respawns_used_, "/",
                   config_.max_respawns, " respawns used)"));
        if (events != nullptr) {
          runtime::Event e;
          e.name = "worker_respawn";
          e.stage_id = wave.stage;
          e.ints.emplace_back("worker", w);
          e.ints.emplace_back("respawns_used", respawns_used_);
          events->Emit(std::move(e));
        }
        Status st = spawn(w);
        if (!st.ok()) {
          fail_wave(std::move(st));
          return;
        }
        for (int p : owed) workers[w].queue.push_back(p);
      }
      return;
    }
    size_t next = 0;
    for (int p : owed) {
      workers[survivors[next % survivors.size()]].queue.push_back(p);
      ++next;
    }
    for (int s : survivors) dispatch_next(s);
  };

  auto handle_result = [&](int w, const std::string& payload) {
    WorkerState& ws = workers[w];
    int p = 0;
    int attempt = 0;
    Status task_status;
    double start_us = 0;
    double dur_us = 0;
    int64_t peak_rss_bytes = 0;
    std::string slots;
    Status decoded =
        DecodeTaskResultPayload(payload, &p, &attempt, &task_status, &start_us,
                                &dur_us, &peak_rss_bytes, &slots);
    if (!decoded.ok() || p < 0 || p >= num_tasks) {
      declare_dead(w, "corrupt task result");
      return;
    }
    // Every attempt the worker ran is reported, even one whose result
    // loses to a re-dispatch below.
    wave.on_attempt(w, ws.clock_offset_us, p, attempt, start_us, dur_us,
                    peak_rss_bytes);
    if (ws.in_flight != p) {
      // A result for a task this worker no longer owns (e.g. it was
      // re-dispatched after a deadline while the reply was in the
      // pipe). Drop it; the owning dispatch wins.
      return;
    }
    ws.in_flight = -1;
    TaskState& task = tasks[p];
    if (task.done) {
      dispatch_next(w);
      return;
    }
    if (task_status.ok()) {
      Status installed = wave.install(p, slots);
      if (!installed.ok()) {
        declare_dead(w, "corrupt result slots");
        return;
      }
      wave.attempts->Succeed(p, attempt);
      task.done = true;
      ++tasks_done;
      stats->result_bytes += static_cast<int64_t>(slots.size());
      ++ws.results_in_wave;
      maybe_chaos_kill(w);
    } else if (task_status.code() == StatusCode::kTaskLost) {
      // Simulated in-task fault (e.g. corrupt shuffle row): retryable,
      // next simulated attempt.
      wave.attempts->Fail(p, attempt, "task_lost");
      ws.queue.push_front(p);
    } else {
      record_task_failure(p, std::move(task_status));
    }
    if (workers[w].alive) dispatch_next(w);
  };

  auto drain_worker = [&](int w) {
    WorkerState& ws = workers[w];
    char buf[64 * 1024];
    ssize_t n = recv(ws.fd, buf, sizeof(buf), 0);
    if (n <= 0) {
      if (n < 0 && (errno == EINTR || errno == EAGAIN)) return;
      declare_dead(w, n == 0 ? "connection closed" : "recv failed");
      return;
    }
    ws.reader.Feed(buf, static_cast<size_t>(n));
    ws.last_heard = Clock::now();
    Frame frame;
    for (;;) {
      auto done_or = ws.reader.Next(&frame);
      if (!done_or.ok()) {
        declare_dead(w, "corrupt frame");
        return;
      }
      if (!*done_or) return;
      switch (frame.type) {
        case FrameType::kHeartbeat:
          break;  // last_heard already refreshed
        case FrameType::kTaskResult:
          handle_result(w, frame.payload);
          if (!workers[w].alive) return;  // reader is gone
          break;
        default:
          declare_dead(w, "unexpected frame type");
          return;
      }
    }
  };

  auto drain_pending = [&](size_t i) -> bool {
    // Returns false when the connection was closed/consumed.
    PendingConn& conn = pending[i];
    char buf[4096];
    ssize_t n = recv(conn.fd, buf, sizeof(buf), 0);
    if (n <= 0) {
      if (n < 0 && (errno == EINTR || errno == EAGAIN)) return true;
      CloseFd(conn.fd);
      return false;
    }
    conn.reader.Feed(buf, static_cast<size_t>(n));
    Frame frame;
    auto done_or = conn.reader.Next(&frame);
    if (!done_or.ok()) {
      CloseFd(conn.fd);
      return false;
    }
    if (!*done_or) return true;  // Hello not complete yet
    int worker_id = 0;
    int64_t pid = 0;
    uint64_t hello_token = 0;
    double worker_steady_us = 0;
    if (frame.type != FrameType::kHello ||
        !DecodeHelloPayload(frame.payload, &worker_id, &pid, &hello_token,
                            &worker_steady_us)
             .ok() ||
        hello_token != token || worker_id < 0 || worker_id >= num_workers ||
        !workers[worker_id].alive || workers[worker_id].connected) {
      CloseFd(conn.fd);
      return false;
    }
    WorkerState& ws = workers[worker_id];
    // Clock alignment: the worker stamped its steady clock just before
    // sending the Hello; subtracting our reading now measures the
    // offset plus one-way latency. Forked workers on one host share
    // CLOCK_MONOTONIC, so the residual is pure latency — the engine
    // collapses sub-threshold offsets to zero when splicing spans.
    ws.clock_offset_us = worker_steady_us - runtime::SteadyNowUs();
    if (!SendFrame(conn.fd, FrameType::kHelloAck, std::string()).ok()) {
      CloseFd(conn.fd);
      return false;
    }
    ws.fd = conn.fd;
    ws.connected = true;
    ws.reader = std::move(conn.reader);
    ws.last_heard = Clock::now();
    log(StrCat("worker ", worker_id, " connected (pid ", pid, ")"));
    maybe_chaos_kill(worker_id);
    if (workers[worker_id].alive) dispatch_next(worker_id);
    return false;  // fd ownership moved to the worker slot
  };

  for (int w = 0; w < num_workers && wave_error.ok(); ++w) {
    Status st = spawn(w);
    if (!st.ok()) fail_wave(std::move(st));
  }

  // Backstop so no chaos schedule, however hostile, can hang the wave:
  // generous enough for every task to burn its full deadline budget.
  // Summed in int64: each count may be as large as an int.
  const int64_t stall_budget_ms =
      static_cast<int64_t>(config_.task_deadline_ms) *
          (static_cast<int64_t>(num_tasks) + config_.max_task_retries +
           config_.max_respawns + 2) +
      static_cast<int64_t>(config_.heartbeat_ms) * config_.missed_beats * 4;
  const Clock::time_point wave_start = Clock::now();

  while (wave_error.ok() && tasks_done < num_tasks) {
    // Liveness sweeps: child exits, heartbeat silence, task deadlines.
    const Clock::time_point now = Clock::now();
    for (int w = 0; w < num_workers && wave_error.ok(); ++w) {
      WorkerState& ws = workers[w];
      if (!ws.alive) continue;
      int wstatus = 0;
      pid_t reaped = waitpid(ws.pid, &wstatus, WNOHANG);
      if (reaped == ws.pid) {
        ws.pid = -1;  // already reaped
        declare_dead(w, "process exited");
        continue;
      }
      if (MsSince(ws.last_heard, now) >
          static_cast<int64_t>(config_.heartbeat_ms) * config_.missed_beats) {
        declare_dead(w, "heartbeat timeout");
        continue;
      }
      if (ws.in_flight >= 0 &&
          MsSince(ws.dispatched_at, now) > config_.task_deadline_ms) {
        declare_dead(w, "task deadline exceeded");
        continue;
      }
    }
    if (!wave_error.ok()) break;
    if (MsSince(wave_start, now) > stall_budget_ms) {
      fail_wave(Status::DistError(
          StrCat("stage #", wave.stage, " '", wave.label,
                 "': wave stalled past its ", stall_budget_ms,
                 "ms backstop (", tasks_done, "/", num_tasks,
                 " tasks done)")));
      break;
    }

    std::vector<pollfd> fds;
    std::vector<int> fd_owner;  // -1 = listener, -2-i = pending i, else worker
    fds.push_back({listen_fd, POLLIN, 0});
    fd_owner.push_back(-1);
    for (size_t i = 0; i < pending.size(); ++i) {
      fds.push_back({pending[i].fd, POLLIN, 0});
      fd_owner.push_back(-2 - static_cast<int>(i));
    }
    for (int w = 0; w < num_workers; ++w) {
      if (workers[w].alive && workers[w].connected) {
        fds.push_back({workers[w].fd, POLLIN, 0});
        fd_owner.push_back(w);
      }
    }
    int poll_ms = std::min(config_.heartbeat_ms, 50);
    int ready = poll(fds.data(), fds.size(), poll_ms);
    if (ready < 0) {
      if (errno == EINTR) continue;
      fail_wave(Status::DistError(StrCat("poll: ", std::strerror(errno))));
      break;
    }
    if (ready == 0) continue;

    std::vector<size_t> consumed_pending;
    for (size_t i = 0; i < fds.size() && wave_error.ok(); ++i) {
      if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      int owner = fd_owner[i];
      if (owner == -1) {
        int conn_fd = accept(listen_fd, nullptr, nullptr);
        if (conn_fd >= 0) {
          pending.push_back(PendingConn{conn_fd, FrameReader()});
        }
      } else if (owner <= -2) {
        size_t idx = static_cast<size_t>(-owner - 2);
        if (!drain_pending(idx)) consumed_pending.push_back(idx);
      } else {
        if (workers[owner].alive && workers[owner].connected) {
          drain_worker(owner);
        }
      }
    }
    for (auto it = consumed_pending.rbegin(); it != consumed_pending.rend();
         ++it) {
      pending.erase(pending.begin() + static_cast<long>(*it));
    }
  }

  // Teardown: polite shutdown, then SIGKILL, then reap every child so
  // no zombie outlives the wave.
  for (WorkerState& ws : workers) {
    if (ws.alive && ws.connected) {
      SendFrame(ws.fd, FrameType::kShutdown, std::string());
    }
    CloseFd(ws.fd);
    ws.fd = -1;
    if (ws.pid > 0) {
      kill(ws.pid, SIGKILL);
      to_reap.push_back(ws.pid);
      ws.pid = -1;
    }
  }
  for (const PendingConn& conn : pending) CloseFd(conn.fd);
  CloseFd(listen_fd);
  for (pid_t pid : to_reap) {
    int wstatus = 0;
    while (waitpid(pid, &wstatus, 0) < 0 && errno == EINTR) {
    }
  }

  if (!wave_error.ok()) return wave_error;
  // Lowest-index genuine failure wins, matching the local scheduler's
  // in-order sweep.
  for (int p = 0; p < num_tasks; ++p) {
    if (tasks[p].failed) return tasks[p].failure;
  }
  return Status::OK();
}

}  // namespace diablo::dist
