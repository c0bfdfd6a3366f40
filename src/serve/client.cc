#include "serve/client.h"

#include <errno.h>
#include <string.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <string_view>
#include <thread>
#include <utility>

#include "fault/file.h"
#include "resil/deadline.h"
#include "util/decimal.h"

namespace popp::serve {

uint64_t ParseRetryAfterMs(const std::string& reply_text) {
  constexpr std::string_view kKey = "retry-after-ms ";
  const size_t pos = reply_text.find(kKey);
  if (pos == std::string::npos) return 0;
  const size_t start = pos + kKey.size();
  const std::string_view hint = std::string_view(reply_text).substr(
      start, reply_text.find_first_of(" \n", start) - start);
  uint64_t ms = 0;
  return ParseDecimalU64(hint, &ms) ? ms : 0;
}

ServeClient::~ServeClient() { Close(); }

Status ServeClient::Connect(const std::string& socket_path) {
  Close();
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (socket_path.empty() || socket_path.size() >= sizeof(addr.sun_path)) {
    return Status::InvalidArgument("socket path must be 1.." +
                                   std::to_string(sizeof(addr.sun_path) - 1) +
                                   " bytes: '" + socket_path + "'");
  }
  if (!fault::FileExists(socket_path)) {
    return Status::NotFound("no popp-serve socket at '" + socket_path +
                            "' (is the daemon running?)");
  }
  ::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);
  fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd_ < 0) {
    return Status::IoError(std::string("socket() failed: ") +
                           ::strerror(errno));
  }
  if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    const std::string detail = ::strerror(errno);
    Close();
    return Status::FailedPrecondition(
        "cannot connect to '" + socket_path + "': " + detail +
        " (the daemon may have exited; a stale socket file is reclaimed "
        "by the next popp-serve start)");
  }
  return Status::Ok();
}

Result<ReplyBody> ServeClient::Call(Tag tag, const std::string& tenant,
                                    const RequestBody& request) {
  if (fd_ < 0) {
    return Status::FailedPrecondition("Call() before a successful Connect()");
  }
  POPP_RETURN_IF_ERROR(
      SendFrame(fd_, tag, tenant, {request.EncodeHead(), request.dataset}));
  auto frame = RecvFrame(fd_);
  if (!frame.ok()) return frame.status();
  if (frame.value().tag != Tag::kReply) {
    return Status::DataLoss("peer answered with tag " +
                            std::string(TagName(frame.value().tag)) +
                            " instead of a reply frame");
  }
  return ReplyBody::Decode(std::move(frame.value().payload));
}

Result<ReplyBody> ServeClient::CallWithRetry(Tag tag,
                                             const std::string& tenant,
                                             const RequestBody& request,
                                             const RetryOptions& retry) {
  const resil::Deadline deadline = retry.deadline_ms > 0
                                       ? resil::Deadline::After(retry.deadline_ms)
                                       : resil::Deadline::None();
  const resil::RetryPolicy policy(retry.backoff, retry.seed);
  Result<ReplyBody> reply = Call(tag, tenant, request);
  for (size_t attempt = 0; attempt < retry.max_retries; ++attempt) {
    if (!reply.ok()) return reply;  // transport error: connection unknown
    if (reply.value().code != StatusCode::kUnavailable) return reply;
    // An explicit shed. Wait the larger of the server's hint and the
    // deterministic backoff step, but never past the client deadline —
    // when the deadline cannot fit the wait, hand back the server's own
    // shed diagnostic instead of burning an attempt that must fail.
    const uint64_t wait_ms = std::max(ParseRetryAfterMs(reply.value().text),
                                      policy.DelayMs(attempt));
    if (deadline.has_deadline() && wait_ms >= deadline.RemainingMs()) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(wait_ms));
    reply = Call(tag, tenant, request);
  }
  return reply;
}

void ServeClient::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

}  // namespace popp::serve
