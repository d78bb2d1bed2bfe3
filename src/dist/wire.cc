#include "dist/wire.h"

#include <array>

#include "common/strings.h"
#include "runtime/serialize.h"

namespace diablo::dist {

namespace {

using runtime::GetWireU32;
using runtime::PutWireU32;

std::array<uint32_t, 256> MakeCrcTable() {
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    }
    table[i] = c;
  }
  return table;
}

Status CorruptFrame(const std::string& what) {
  return Status::RuntimeError(StrCat("corrupt frame: ", what));
}

}  // namespace

bool IsKnownFrameType(uint8_t type) {
  switch (static_cast<FrameType>(type)) {
    case FrameType::kHello:
    case FrameType::kHelloAck:
    case FrameType::kHeartbeat:
    case FrameType::kTask:
    case FrameType::kTaskResult:
    case FrameType::kShutdown:
      return true;
  }
  return false;
}

uint32_t Crc32(const std::string& data) {
  static const std::array<uint32_t, 256> kTable = MakeCrcTable();
  uint32_t crc = 0xFFFFFFFFu;
  for (char ch : data) {
    crc = kTable[(crc ^ static_cast<uint8_t>(ch)) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

namespace {

/// Frame checksum: the CRC covers the type byte as well as the payload,
/// so a corrupted type cannot silently turn one valid frame kind into
/// another (the remaining header fields are structurally validated:
/// magic and reserved bytes are compared against constants, and a
/// corrupt length either overflows the cap or shifts the payload bytes
/// under this CRC). Folding the byte into the running CRC avoids
/// copying the payload just to prefix one byte.
uint32_t FrameCrc(uint8_t type, const std::string& payload) {
  uint32_t crc = Crc32(payload) ^ 0xFFFFFFFFu;  // undo final xor
  // Process the type byte as if it preceded the payload: CRC32 is not
  // order-sensitive in a way we can exploit cheaply, so fold it at the
  // end instead; mixing position keeps (type, payload) pairs distinct.
  crc = crc ^ type;
  for (int bit = 0; bit < 8; ++bit) {
    crc = (crc & 1) ? (0xEDB88320u ^ (crc >> 1)) : (crc >> 1);
  }
  return crc ^ 0xFFFFFFFFu;
}

}  // namespace

void EncodeFrame(FrameType type, const std::string& payload,
                 std::string* out) {
  PutWireU32(kFrameMagic, out);
  out->push_back(static_cast<char>(type));
  out->append(3, '\0');
  PutWireU32(static_cast<uint32_t>(payload.size()), out);
  PutWireU32(FrameCrc(static_cast<uint8_t>(type), payload), out);
  out->append(payload);
}

void FrameReader::Feed(const char* data, size_t len) {
  // Drop consumed prefix lazily so steady-state feeding never reallocs
  // more than the frames themselves require.
  if (consumed_ > 0 && consumed_ == buffer_.size()) {
    buffer_.clear();
    consumed_ = 0;
  } else if (consumed_ > 64 * 1024 && consumed_ > buffer_.size() / 2) {
    buffer_.erase(0, consumed_);
    consumed_ = 0;
  }
  buffer_.append(data, len);
}

StatusOr<bool> FrameReader::Next(Frame* frame) {
  if (!error_.ok()) return error_;
  const size_t avail = buffer_.size() - consumed_;
  if (avail < kFrameHeaderBytes) return false;

  size_t offset = consumed_;
  // GetWireU32 cannot fail here: avail >= header size.
  uint32_t magic = GetWireU32(buffer_, &offset).value();
  if (magic != kFrameMagic) {
    error_ = CorruptFrame("bad magic");
    return error_;
  }
  uint8_t type = static_cast<uint8_t>(buffer_[offset++]);
  if (!IsKnownFrameType(type)) {
    error_ = CorruptFrame(StrCat("unknown type ", static_cast<int>(type)));
    return error_;
  }
  for (int i = 0; i < 3; ++i) {
    if (buffer_[offset++] != '\0') {
      error_ = CorruptFrame("nonzero reserved byte");
      return error_;
    }
  }
  uint32_t len = GetWireU32(buffer_, &offset).value();
  if (len > max_frame_bytes_) {
    error_ = CorruptFrame(StrCat("oversized payload length ", len,
                                 " (max ", max_frame_bytes_, ")"));
    return error_;
  }
  uint32_t crc = GetWireU32(buffer_, &offset).value();
  if (avail < kFrameHeaderBytes + len) return false;  // need more bytes

  std::string payload = buffer_.substr(offset, len);
  if (FrameCrc(type, payload) != crc) {
    error_ = CorruptFrame("CRC mismatch");
    return error_;
  }
  consumed_ = offset + len;
  frame->type = static_cast<FrameType>(type);
  frame->payload = std::move(payload);
  return true;
}

StatusOr<Frame> DecodeFrame(const std::string& data,
                            uint32_t max_frame_bytes) {
  FrameReader reader(max_frame_bytes);
  reader.Feed(data.data(), data.size());
  Frame frame;
  DIABLO_ASSIGN_OR_RETURN(bool done, reader.Next(&frame));
  if (!done) return Status::RuntimeError("corrupt frame: truncated");
  if (reader.buffered() != 0) {
    return Status::RuntimeError("trailing bytes after frame");
  }
  return frame;
}

}  // namespace diablo::dist
