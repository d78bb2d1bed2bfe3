#include "dist/worker.h"

#include <unistd.h>

#include <chrono>
#include <mutex>
#include <thread>

#include "common/strings.h"
#include "dist/transport.h"
#include "dist/wire.h"
#include "runtime/metrics_registry.h"
#include "runtime/serialize.h"
#include "runtime/trace.h"

namespace diablo::dist {

namespace {

using runtime::GetWireDouble;
using runtime::GetWireU32;
using runtime::GetWireU64;
using runtime::PutWireDouble;
using runtime::PutWireU32;
using runtime::PutWireU64;
using runtime::SteadyNowUs;

Status RebuildStatus(uint32_t code, std::string msg) {
  switch (static_cast<StatusCode>(code)) {
    case StatusCode::kOk:
      return Status::OK();
    case StatusCode::kParseError:
      return Status::ParseError(std::move(msg));
    case StatusCode::kRestrictionViolation:
      return Status::RestrictionViolation(std::move(msg));
    case StatusCode::kTranslationError:
      return Status::TranslationError(std::move(msg));
    case StatusCode::kRuntimeError:
      return Status::RuntimeError(std::move(msg));
    case StatusCode::kInvalidArgument:
      return Status::InvalidArgument(std::move(msg));
    case StatusCode::kUnsupported:
      return Status::Unsupported(std::move(msg));
    case StatusCode::kTaskLost:
      return Status::TaskLost(std::move(msg));
    case StatusCode::kDistError:
      return Status::DistError(std::move(msg));
  }
  return Status::DistError(StrCat("unknown status code ", code,
                                  " in task result: ", msg));
}

/// Heartbeats share the task-result socket, so every send goes through
/// one mutex; interleaving a heartbeat inside a half-written result
/// frame would corrupt the stream.
struct LockedSender {
  explicit LockedSender(int socket_fd) : fd(socket_fd) {}

  int fd;
  std::mutex mu;

  Status Send(FrameType type, const std::string& payload) {
    std::lock_guard<std::mutex> lock(mu);
    return SendFrame(fd, type, payload);
  }
};

}  // namespace

std::string EncodeHelloPayload(int worker_id, int64_t pid, uint64_t token,
                               double steady_now_us) {
  std::string out;
  PutWireU32(static_cast<uint32_t>(worker_id), &out);
  PutWireU64(static_cast<uint64_t>(pid), &out);
  PutWireU64(token, &out);
  PutWireDouble(steady_now_us, &out);
  return out;
}

Status DecodeHelloPayload(const std::string& payload, int* worker_id,
                          int64_t* pid, uint64_t* token,
                          double* steady_now_us) {
  size_t offset = 0;
  DIABLO_ASSIGN_OR_RETURN(uint32_t id, GetWireU32(payload, &offset));
  DIABLO_ASSIGN_OR_RETURN(uint64_t p, GetWireU64(payload, &offset));
  DIABLO_ASSIGN_OR_RETURN(uint64_t t, GetWireU64(payload, &offset));
  DIABLO_ASSIGN_OR_RETURN(double now_us, GetWireDouble(payload, &offset));
  if (offset != payload.size()) {
    return Status::DistError("trailing bytes in hello payload");
  }
  *worker_id = static_cast<int>(id);
  *pid = static_cast<int64_t>(p);
  *token = t;
  *steady_now_us = now_us;
  return Status::OK();
}

std::string EncodeTaskPayload(int p, int attempt) {
  std::string out;
  PutWireU32(static_cast<uint32_t>(p), &out);
  PutWireU32(static_cast<uint32_t>(attempt), &out);
  return out;
}

Status DecodeTaskPayload(const std::string& payload, int* p, int* attempt) {
  size_t offset = 0;
  DIABLO_ASSIGN_OR_RETURN(uint32_t task, GetWireU32(payload, &offset));
  DIABLO_ASSIGN_OR_RETURN(uint32_t att, GetWireU32(payload, &offset));
  if (offset != payload.size()) {
    return Status::DistError("trailing bytes in task payload");
  }
  *p = static_cast<int>(task);
  *attempt = static_cast<int>(att);
  return Status::OK();
}

std::string EncodeTaskResultPayload(int p, int attempt, const Status& status,
                                    double start_us, double dur_us,
                                    int64_t peak_rss_bytes,
                                    const std::string& slots) {
  std::string out;
  PutWireU32(static_cast<uint32_t>(p), &out);
  PutWireU32(static_cast<uint32_t>(attempt), &out);
  PutWireU32(static_cast<uint32_t>(status.code()), &out);
  PutWireU32(static_cast<uint32_t>(status.message().size()), &out);
  out.append(status.message());
  PutWireDouble(start_us, &out);
  PutWireDouble(dur_us, &out);
  PutWireU64(static_cast<uint64_t>(peak_rss_bytes), &out);
  PutWireU32(static_cast<uint32_t>(slots.size()), &out);
  out.append(slots);
  return out;
}

Status DecodeTaskResultPayload(const std::string& payload, int* p,
                               int* attempt, Status* task_status,
                               double* start_us, double* dur_us,
                               int64_t* peak_rss_bytes, std::string* slots) {
  size_t offset = 0;
  DIABLO_ASSIGN_OR_RETURN(uint32_t task, GetWireU32(payload, &offset));
  DIABLO_ASSIGN_OR_RETURN(uint32_t att, GetWireU32(payload, &offset));
  DIABLO_ASSIGN_OR_RETURN(uint32_t code, GetWireU32(payload, &offset));
  DIABLO_ASSIGN_OR_RETURN(uint32_t msg_len, GetWireU32(payload, &offset));
  if (msg_len > payload.size() - offset) {
    return Status::DistError("oversized message length in task result");
  }
  std::string msg = payload.substr(offset, msg_len);
  offset += msg_len;
  DIABLO_ASSIGN_OR_RETURN(double start, GetWireDouble(payload, &offset));
  DIABLO_ASSIGN_OR_RETURN(double dur, GetWireDouble(payload, &offset));
  DIABLO_ASSIGN_OR_RETURN(uint64_t rss, GetWireU64(payload, &offset));
  DIABLO_ASSIGN_OR_RETURN(uint32_t slots_len, GetWireU32(payload, &offset));
  if (slots_len != payload.size() - offset) {
    return Status::DistError(
        StrCat("task result slots length ", slots_len, " does not match the ",
               payload.size() - offset, " bytes left"));
  }
  *p = static_cast<int>(task);
  *attempt = static_cast<int>(att);
  *task_status = RebuildStatus(code, std::move(msg));
  *start_us = start;
  *dur_us = dur;
  *peak_rss_bytes = static_cast<int64_t>(rss);
  *slots = payload.substr(offset);
  return Status::OK();
}

void WorkerMain(const WorkerParams& params,
                const runtime::RemoteTaskWave& wave) {
  auto fd_or = ConnectWithBackoff(params.port, params.connect_attempts,
                                  params.connect_backoff_ms);
  if (!fd_or.ok()) _exit(3);
  LockedSender sender(*fd_or);

  std::string hello =
      EncodeHelloPayload(params.worker_id, static_cast<int64_t>(getpid()),
                         params.token, SteadyNowUs());
  if (!sender.Send(FrameType::kHello, hello).ok()) _exit(3);

  FrameReader reader;
  auto ack_or = RecvFrameBlocking(sender.fd, &reader);
  if (!ack_or.ok() || ack_or->type != FrameType::kHelloAck) _exit(3);

  // Heartbeat beacon. Detached: the thread dies with the process on
  // _exit, and a send failure means the coordinator is gone — nothing
  // left to do but exit.
  std::thread([&sender, heartbeat_ms = params.heartbeat_ms]() {
    for (;;) {
      std::this_thread::sleep_for(std::chrono::milliseconds(heartbeat_ms));
      if (!sender.Send(FrameType::kHeartbeat, std::string()).ok()) {
        _exit(3);
      }
    }
  }).detach();

  for (;;) {
    auto frame_or = RecvFrameBlocking(sender.fd, &reader);
    if (!frame_or.ok()) _exit(3);
    if (frame_or->type == FrameType::kShutdown) _exit(0);
    if (frame_or->type != FrameType::kTask) _exit(3);

    int p = 0;
    int attempt = 0;
    if (!DecodeTaskPayload(frame_or->payload, &p, &attempt).ok()) _exit(3);
    if (params.stall_ms > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(params.stall_ms));
    }

    const double start_us = SteadyNowUs();
    Status task_status = wave.run(p, attempt);
    std::string slots;
    if (task_status.ok()) {
      auto slots_or = wave.encode(p);
      if (slots_or.ok()) {
        slots = std::move(*slots_or);
      } else {
        task_status = slots_or.status();
      }
    }
    // Every attempt the worker ran reports its timing, failed or not,
    // just as the local scheduler traces every attempt it runs.
    std::string result = EncodeTaskResultPayload(
        p, attempt, task_status, start_us, SteadyNowUs() - start_us,
        runtime::MetricsRegistry::ProcessPeakRssBytes(), slots);
    if (!sender.Send(FrameType::kTaskResult, result).ok()) _exit(3);
  }
}

}  // namespace diablo::dist
