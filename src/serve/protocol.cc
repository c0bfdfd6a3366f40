#include "serve/protocol.h"

#include <errno.h>
#include <poll.h>
#include <string.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "util/crc64.h"

namespace popp::serve {
namespace {

void PutU16(std::string* out, uint16_t v) {
  out->push_back(static_cast<char>(v & 0xff));
  out->push_back(static_cast<char>((v >> 8) & 0xff));
}

void PutU32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void PutU64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

uint16_t GetU16(const char* p) {
  const auto* u = reinterpret_cast<const unsigned char*>(p);
  return static_cast<uint16_t>(u[0] | (u[1] << 8));
}

uint32_t GetU32(const char* p) {
  const auto* u = reinterpret_cast<const unsigned char*>(p);
  return static_cast<uint32_t>(u[0]) | (static_cast<uint32_t>(u[1]) << 8) |
         (static_cast<uint32_t>(u[2]) << 16) |
         (static_cast<uint32_t>(u[3]) << 24);
}

uint64_t GetU64(const char* p) {
  uint64_t v = 0;
  for (int i = 7; i >= 0; --i) {
    v = (v << 8) | static_cast<unsigned char>(p[i]);
  }
  return v;
}

/// Appends a u32-length-prefixed section.
void PutSection(std::string* out, std::string_view bytes) {
  PutU32(out, static_cast<uint32_t>(bytes.size()));
  out->append(bytes);
}

/// Splits a u32-length-prefixed section off the front of `rest`.
Status TakeSection(std::string_view* rest, std::string* out,
                   const char* what) {
  if (rest->size() < 4) {
    return Status::DataLoss(std::string("request body truncated before ") +
                            what + " length");
  }
  const uint32_t len = GetU32(rest->data());
  rest->remove_prefix(4);
  if (rest->size() < len) {
    return Status::DataLoss(std::string("request body truncated inside ") +
                            what);
  }
  out->assign(rest->substr(0, len));
  rest->remove_prefix(len);
  return Status::Ok();
}

}  // namespace

const char* TagName(Tag tag) {
  switch (tag) {
    case Tag::kFit:
      return "fit";
    case Tag::kEncode:
      return "encode";
    case Tag::kDecode:
      return "decode";
    case Tag::kVerify:
      return "verify";
    case Tag::kRisk:
      return "risk";
    case Tag::kStats:
      return "stats";
    case Tag::kShutdown:
      return "shutdown";
    case Tag::kReply:
      return "reply";
    case Tag::kHealth:
      return "health";
  }
  return "unknown";
}

Result<Tag> ParseTag(std::string_view name) {
  for (const Tag tag :
       {Tag::kFit, Tag::kEncode, Tag::kDecode, Tag::kVerify, Tag::kRisk,
        Tag::kStats, Tag::kShutdown, Tag::kHealth}) {
    if (name == TagName(tag)) return tag;
  }
  return Status::InvalidArgument("unknown serve op '" + std::string(name) +
                                 "' (have: fit encode decode verify risk "
                                 "stats health shutdown)");
}

namespace {

// 12 = version(1) + tag(1) + tenant_len(2) + crc(8).
constexpr uint32_t kFrameOverhead = 12;

/// The bytes around a frame's payload: `head` is the length prefix,
/// version, tag, tenant length and tenant; `trailer` is the CRC-64 of the
/// body (everything between the prefix and the trailer).
struct Envelope {
  std::string head;
  std::string trailer;
};

/// Builds the envelope of a payload given as parts, or refuses a frame
/// whose length would overflow the u32 prefix. EncodeFrame and SendFrame
/// both frame their payloads here, so they emit the same bytes.
Result<Envelope> WrapPayload(Tag tag, std::string_view tenant,
                             std::initializer_list<std::string_view> payload) {
  size_t payload_size = 0;
  for (const std::string_view part : payload) payload_size += part.size();
  if (tenant.size() > UINT16_MAX) {
    return Status::InvalidArgument("tenant name too long: " +
                                   std::to_string(tenant.size()) + " bytes");
  }
  if (payload_size > UINT32_MAX - kFrameOverhead - tenant.size()) {
    return Status::InvalidArgument(
        "frame of " + std::to_string(payload_size) +
        " payload bytes overflows the u32 frame length prefix");
  }
  Envelope envelope;
  envelope.head.reserve(8 + tenant.size());
  PutU32(&envelope.head, static_cast<uint32_t>(kFrameOverhead + tenant.size() +
                                               payload_size));
  envelope.head.push_back(static_cast<char>(kProtocolVersion));
  envelope.head.push_back(static_cast<char>(tag));
  PutU16(&envelope.head, static_cast<uint16_t>(tenant.size()));
  envelope.head.append(tenant);
  Crc64Stream crc;
  crc.Update(std::string_view(envelope.head).substr(4));
  for (const std::string_view part : payload) crc.Update(part);
  PutU64(&envelope.trailer, crc.value());
  return envelope;
}

/// Reads one frame through `fill(buf, want, &got)`, which copies up to
/// `want` of the next input bytes into `buf` (fewer only where the input
/// ends) or fails. DecodeFrame fills from a byte string and RecvFrame
/// from a socket, so both refuse a malformed frame with the same status,
/// in the same order. The tenant and the payload are read straight into
/// the frame's strings, the payload at most kRecvStepBytes ahead of the
/// bytes that arrived.
template <typename Fill>
Result<Frame> ReadFrame(Fill&& fill, uint32_t max_frame_bytes) {
  char prefix[4] = {};
  size_t got = 0;
  POPP_RETURN_IF_ERROR(fill(prefix, sizeof(prefix), &got));
  if (got < sizeof(prefix)) {
    return Status::DataLoss("frame truncated: no length prefix");
  }
  const uint32_t frame_len = GetU32(prefix);
  if (frame_len > max_frame_bytes) {
    return Status::InvalidArgument(
        "frame length " + std::to_string(frame_len) + " exceeds the " +
        std::to_string(max_frame_bytes) + "-byte limit");
  }
  size_t received = 0;  // bytes after the prefix
  auto take = [&](char* buf, size_t want) -> Status {
    size_t n = 0;
    POPP_RETURN_IF_ERROR(fill(buf, want, &n));
    received += n;
    if (n == want) return Status::Ok();
    return Status::DataLoss("frame truncated: length prefix promises " +
                            std::to_string(frame_len) + " bytes, got " +
                            std::to_string(received));
  };
  if (frame_len < kFrameOverhead) {
    char rest[kFrameOverhead] = {};
    POPP_RETURN_IF_ERROR(take(rest, frame_len));
    return Status::DataLoss("frame too short for a body and CRC trailer");
  }

  char head[4] = {};
  POPP_RETURN_IF_ERROR(take(head, sizeof(head)));
  Crc64Stream crc;
  crc.Update(std::string_view(head, sizeof(head)));
  // The tenant and the payload fill the rest of the body. A tenant length
  // that overruns it is refused only after the CRC and version checks,
  // so until then the tenant takes what the body holds.
  const size_t rest_len = frame_len - kFrameOverhead;
  const uint16_t tenant_len = GetU16(head + 2);
  Frame frame;
  frame.tenant.resize(std::min<size_t>(tenant_len, rest_len));
  POPP_RETURN_IF_ERROR(take(frame.tenant.data(), frame.tenant.size()));
  crc.Update(frame.tenant);
  const size_t payload_len = rest_len - frame.tenant.size();
  frame.payload.reserve(payload_len);  // address space only; no page yet
  while (frame.payload.size() < payload_len) {
    const size_t at = frame.payload.size();
    frame.payload.resize(std::min(payload_len, at + kRecvStepBytes));
    POPP_RETURN_IF_ERROR(
        take(frame.payload.data() + at, frame.payload.size() - at));
    crc.Update(std::string_view(frame.payload).substr(at));
  }
  char trailer[8] = {};
  POPP_RETURN_IF_ERROR(take(trailer, sizeof(trailer)));

  const uint64_t want_crc = GetU64(trailer);
  if (crc.value() != want_crc) {
    return Status::DataLoss("frame CRC mismatch: computed " +
                            Crc64Hex(crc.value()) + ", frame carries " +
                            Crc64Hex(want_crc));
  }
  frame.version = static_cast<uint8_t>(head[0]);
  if (frame.version != kProtocolVersion) {
    return Status::InvalidArgument(
        "protocol version mismatch: peer speaks v" +
        std::to_string(frame.version) + ", this build speaks v" +
        std::to_string(kProtocolVersion));
  }
  frame.tag = static_cast<Tag>(head[1]);
  if (tenant_len > frame.tenant.size()) {
    return Status::DataLoss("frame tenant field overruns the body");
  }
  return frame;
}

}  // namespace

std::string EncodeFrame(Tag tag, std::string_view tenant,
                        std::string_view payload) {
  auto envelope = WrapPayload(tag, tenant, {payload});
  POPP_CHECK_MSG(envelope.ok(), envelope.status().message());
  const std::string& head = envelope.value().head;
  const std::string& trailer = envelope.value().trailer;
  std::string frame;
  frame.reserve(head.size() + payload.size() + trailer.size());
  frame.append(head).append(payload).append(trailer);
  return frame;
}

Result<Frame> DecodeFrame(std::string_view bytes, uint32_t max_frame_bytes) {
  return ReadFrame(
      [&bytes](char* buf, size_t want, size_t* got) {
        *got = std::min(want, bytes.size());
        if (*got > 0) std::memcpy(buf, bytes.data(), *got);
        bytes.remove_prefix(*got);
        return Status::Ok();
      },
      max_frame_bytes);
}

std::string RequestBody::EncodeHead() const {
  std::string out;
  out.reserve(8 + options.size() + extra.size());
  PutSection(&out, options);
  PutSection(&out, extra);
  return out;
}

std::string RequestBody::Encode() const {
  return EncodeHead().append(dataset);
}

Result<RequestBody> RequestBody::Decode(std::string payload) {
  RequestBody body;
  std::string_view rest = payload;
  POPP_RETURN_IF_ERROR(TakeSection(&rest, &body.options, "options"));
  POPP_RETURN_IF_ERROR(TakeSection(&rest, &body.extra, "extra"));
  payload.erase(0, payload.size() - rest.size());
  body.dataset = std::move(payload);
  return body;
}

std::string ReplyBody::EncodeHead() const {
  std::string out;
  out.reserve(5 + text.size());
  out.push_back(static_cast<char>(code));
  PutSection(&out, text);
  return out;
}

std::string ReplyBody::Encode() const { return EncodeHead().append(body); }

Result<ReplyBody> ReplyBody::Decode(std::string payload) {
  if (payload.empty()) {
    return Status::DataLoss("reply payload is empty");
  }
  ReplyBody reply;
  reply.code = static_cast<StatusCode>(payload[0]);
  std::string_view rest = std::string_view(payload).substr(1);
  POPP_RETURN_IF_ERROR(TakeSection(&rest, &reply.text, "reply text"));
  payload.erase(0, payload.size() - rest.size());
  reply.body = std::move(payload);
  return reply;
}

namespace {

/// Reads up to `want` bytes into `buf`, fewer only at EOF, polling in
/// 100 ms slices so a drain request can interrupt a blocked connection.
/// An EOF before the frame's first byte (`*any_read` still false) is a
/// clean close, `kNotFound`; a later one ends the frame early, and
/// ReadFrame reports the truncation.
Status ReadUpTo(int fd, char* buf, size_t want, const std::atomic<bool>* stop,
                bool* any_read, size_t* got) {
  *got = 0;
  while (*got < want) {
    if (stop != nullptr && stop->load(std::memory_order_relaxed)) {
      return Status::FailedPrecondition("read aborted: server is draining");
    }
    struct pollfd pfd = {fd, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, 100);
    if (ready < 0) {
      if (errno == EINTR) continue;
      return Status::IoError(std::string("socket poll failed: ") +
                             ::strerror(errno));
    }
    if (ready == 0) continue;  // timeout slice; re-check stop
    const ssize_t n = ::read(fd, buf + *got, want - *got);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IoError(std::string("socket read failed: ") +
                             ::strerror(errno));
    }
    if (n == 0) {
      if (!*any_read) return Status::NotFound("peer closed the connection");
      break;
    }
    *got += static_cast<size_t>(n);
    *any_read = true;
  }
  return Status::Ok();
}

/// Writes every byte of `parts`, in order, by `sendmsg` gather writes,
/// mirroring ReadUpTo's 100 ms poll slices; a partial send resumes inside
/// the part it stopped in. While `stop` is unset a full socket buffer
/// just waits for the peer; once `stop` is set a peer that is not
/// consuming (POLLOUT never ready within a slice) aborts, so a stalled
/// reader cannot block a drain. MSG_NOSIGNAL keeps a vanished peer an
/// EPIPE on this connection instead of a process-killing SIGPIPE —
/// nothing in the daemon installs a SIGPIPE handler, and the serve-client
/// CLI must not need one either.
Status WriteExact(int fd, const std::vector<std::string_view>& parts,
                  const std::atomic<bool>* stop) {
  std::vector<iovec> iov;
  iov.reserve(parts.size());
  for (const std::string_view part : parts) {
    if (!part.empty()) {
      iov.push_back({const_cast<char*>(part.data()), part.size()});
    }
  }
  size_t next = 0;  // the first part not yet sent in full
  while (next < iov.size()) {
    struct pollfd pfd = {fd, POLLOUT, 0};
    const int ready = ::poll(&pfd, 1, 100);
    if (ready < 0) {
      if (errno == EINTR) continue;
      return Status::IoError(std::string("socket poll failed: ") +
                             ::strerror(errno));
    }
    if (ready == 0) {
      if (stop != nullptr && stop->load(std::memory_order_relaxed)) {
        return Status::FailedPrecondition(
            "write aborted: server is draining and the peer stopped "
            "consuming");
      }
      continue;  // timeout slice; re-check stop
    }
    // MSG_DONTWAIT: a blocking sendmsg() on a stream socket queues the
    // whole remainder before returning, which would sleep past every
    // stop check on a stalled reader. Partial sends loop back through
    // the poll slice instead.
    struct msghdr msg {};
    msg.msg_iov = iov.data() + next;
    msg.msg_iovlen = iov.size() - next;
    const ssize_t n = ::sendmsg(fd, &msg, MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) {
        continue;
      }
      return Status::IoError(std::string("socket write failed: ") +
                             ::strerror(errno));
    }
    size_t sent = static_cast<size_t>(n);
    while (sent > 0 && sent >= iov[next].iov_len) {
      sent -= iov[next].iov_len;
      ++next;
    }
    if (sent > 0) {
      iov[next].iov_base = static_cast<char*>(iov[next].iov_base) + sent;
      iov[next].iov_len -= sent;
    }
  }
  return Status::Ok();
}

}  // namespace

Status SendFrame(int fd, Tag tag, std::string_view tenant,
                 std::initializer_list<std::string_view> payload,
                 const std::atomic<bool>* stop) {
  // An oversize frame is a caller bug, but it must cost one connection,
  // not the daemon: refused here, where EncodeFrame would CHECK.
  auto envelope = WrapPayload(tag, tenant, payload);
  if (!envelope.ok()) return envelope.status();
  std::vector<std::string_view> parts;
  parts.reserve(payload.size() + 2);
  parts.push_back(envelope.value().head);
  parts.insert(parts.end(), payload);
  parts.push_back(envelope.value().trailer);
  return WriteExact(fd, parts, stop);
}

Result<Frame> RecvFrame(int fd, const std::atomic<bool>* stop,
                        uint32_t max_frame_bytes) {
  bool any_read = false;
  return ReadFrame(
      [&](char* buf, size_t want, size_t* got) {
        return ReadUpTo(fd, buf, want, stop, &any_read, got);
      },
      max_frame_bytes);
}

}  // namespace popp::serve
