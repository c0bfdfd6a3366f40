#ifndef POPP_SERVE_PROTOCOL_H_
#define POPP_SERVE_PROTOCOL_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <string_view>

#include "util/status.h"

/// \file
/// The popp-serve wire protocol: length-prefixed, CRC-guarded binary
/// frames over a Unix domain socket.
///
/// Every message — request or reply — is one frame:
///
///     u32 frame_len      byte count of everything after this field
///     body:
///       u8  version      (= kProtocolVersion)
///       u8  tag          request/reply tag (Tag below)
///       u16 tenant_len
///       tenant bytes     the tenant (workspace) name; empty on replies
///       payload bytes    frame_len - 12 - tenant_len
///     u64 crc64(body)    CRC-64/XZ (util/crc64) over the body bytes
///
/// All integers are little-endian. The CRC covers the body only (not the
/// length prefix): a reader that got the right byte count but damaged
/// bytes sees a CRC mismatch (`kDataLoss`); a reader that cannot even
/// assemble `frame_len` bytes sees truncation (`kDataLoss`); an
/// unsupported version byte is `kInvalidArgument` carrying both versions,
/// so a client from the future gets an actionable diagnostic instead of a
/// checksum coincidence. `frame_len` is bounded by `max_frame_bytes`
/// (default 1 GiB), and a reader's memory follows the bytes that arrive,
/// not the prefix: a prefix that promises a large body and sends none
/// commits at most one receive step (`kRecvStepBytes`).
///
/// Request payloads for the dataset-carrying ops (fit, encode, decode,
/// verify, risk) share one shape, `RequestBody`:
///
///     u32 options_len · options text ("key value\n" lines)
///     u32 extra_len   · extra bytes  (decode: the popp-tree document)
///     dataset bytes   (CSV text or a popp-cols container; the server
///                      sniffs the 'poppcols' magic, so the PR 7 zero-copy
///                      read path is the hot path)
///
/// Reply payloads share `ReplyBody`:
///
///     u8  code        StatusCode of the operation (0 = OK)
///     u32 text_len    · human-readable summary / diagnostic
///     body bytes      binary result (released CSV, plan or tree document)
///
/// `EncodeFrame`/`DecodeFrame` work on one byte string, so the
/// malformed-input tests need no socket. `SendFrame`/`RecvFrame` move the
/// same bytes over a connected fd without copying a body in user space:
/// `SendFrame` writes the frame head, the payload's parts and the CRC
/// trailer in one gather write, so a request's dataset or a reply's body
/// goes out from the buffer that holds it; `RecvFrame` reads the tenant
/// and the payload straight into the `Frame`'s own strings, and the body
/// `Decode`s hand the payload's buffer on as the dataset or body. Both
/// directions share one frame layout and one set of frame checks with
/// the byte-string codec, so `SendFrame` emits exactly `EncodeFrame`'s
/// bytes and `RecvFrame` refuses a malformed frame with exactly
/// `DecodeFrame`'s status.

namespace popp::serve {

inline constexpr uint8_t kProtocolVersion = 1;

/// Hard ceiling a reader enforces on frame_len before reading the body.
inline constexpr uint32_t kDefaultMaxFrameBytes = 1u << 30;

/// A reader sizes a frame's payload at most this far ahead of the bytes
/// it has received, so a length prefix alone cannot commit memory.
inline constexpr size_t kRecvStepBytes = size_t{1} << 20;

/// Frame tags. Requests are dispatched by DispatchOp (serve/ops.h);
/// kReply marks every server response.
enum class Tag : uint8_t {
  kFit = 1,       ///< fit (or look up) a plan; reply body = plan document
  kEncode = 2,    ///< encode a dataset; reply body = released CSV bytes
  kDecode = 3,    ///< decode a mined tree; reply body = tree document
  kVerify = 4,    ///< end-to-end no-outcome-change check
  kRisk = 5,      ///< pre-release risk report
  kStats = 6,     ///< per-tenant cache/request statistics
  kShutdown = 7,  ///< drain in-flight requests and exit 0
  kReply = 8,     ///< server -> client response
  kHealth = 9,    ///< liveness + admission stats; bypasses admission
};

/// Stable lower-case name ("fit", "encode", ...) used in diagnostics and
/// by the serve-client CLI.
const char* TagName(Tag tag);

/// Parses a serve-client op name; kInvalidArgument for unknown names.
Result<Tag> ParseTag(std::string_view name);

/// One decoded frame.
struct Frame {
  uint8_t version = kProtocolVersion;
  Tag tag = Tag::kReply;
  std::string tenant;
  std::string payload;
};

/// Serializes a frame (length prefix, body, CRC trailer).
std::string EncodeFrame(Tag tag, std::string_view tenant,
                        std::string_view payload);

/// Decodes one complete frame from `bytes` (which must hold exactly one
/// frame). Checks in this order: an oversize length is
/// `kInvalidArgument`; truncation, a frame too short for its head and
/// trailer, and CRC damage are `kDataLoss`; a version mismatch is
/// `kInvalidArgument`; a tenant length that overruns the body is
/// `kDataLoss`.
Result<Frame> DecodeFrame(std::string_view bytes,
                          uint32_t max_frame_bytes = kDefaultMaxFrameBytes);

/// The shared request-payload shape (see the file comment).
struct RequestBody {
  std::string options;  ///< "key value\n" lines
  std::string extra;    ///< op-specific second section (decode: tree doc)
  std::string dataset;  ///< CSV bytes or a popp-cols container

  /// The payload up to the dataset: the options and extra sections.
  std::string EncodeHead() const;
  /// The whole payload: EncodeHead() followed by the dataset.
  std::string Encode() const;
  /// Takes the payload by value: the dataset keeps the payload's buffer,
  /// so a caller that moves a received payload in copies no dataset byte.
  static Result<RequestBody> Decode(std::string payload);
};

/// The shared reply-payload shape.
struct ReplyBody {
  StatusCode code = StatusCode::kOk;
  std::string text;  ///< human-readable summary or error diagnostic
  std::string body;  ///< binary result

  bool ok() const { return code == StatusCode::kOk; }
  /// The payload up to the body: the code and the text section.
  std::string EncodeHead() const;
  /// The whole payload: EncodeHead() followed by the body.
  std::string Encode() const;
  /// Takes the payload by value: the body keeps the payload's buffer.
  static Result<ReplyBody> Decode(std::string payload);

  static ReplyBody Ok(std::string text, std::string body = {}) {
    return ReplyBody{StatusCode::kOk, std::move(text), std::move(body)};
  }
  static ReplyBody Error(const Status& status) {
    return ReplyBody{status.code(), status.ToString(), {}};
  }
};

/// Writes one frame to a connected socket fd. The payload is the
/// concatenation of `payload`'s parts (any may be empty); the frame head,
/// the parts and the CRC trailer go out in `sendmsg` gather writes, so no
/// part is copied, and the bytes on the wire are exactly
/// `EncodeFrame(tag, tenant, <the parts joined>)`. Loops over partial
/// writes in 100 ms poll slices. Writes use MSG_NOSIGNAL, so a peer that
/// closed mid-reply is an `kIoError` (EPIPE) on this connection — never a
/// process-wide SIGPIPE. When `stop` is non-null and becomes true while
/// the peer is not consuming (the socket stays unwritable for a slice),
/// the write aborts with `kFailedPrecondition` so a stalled reader cannot
/// block the server's drain. An oversize tenant/payload (frame length
/// would overflow the u32 prefix) is `kInvalidArgument` without writing.
Status SendFrame(int fd, Tag tag, std::string_view tenant,
                 std::initializer_list<std::string_view> payload,
                 const std::atomic<bool>* stop = nullptr);

/// Reads one frame from a connected socket fd, the tenant and the payload
/// straight into the returned `Frame`'s strings; the payload is sized at
/// most `kRecvStepBytes` ahead of the bytes received. Blocks in 100 ms
/// poll slices; when `stop` is non-null and becomes true the read aborts
/// with `kFailedPrecondition` (the server's drain path closes idle
/// connections this way). A clean EOF before any byte is `kNotFound`
/// ("peer closed"); any other malformed frame, an EOF mid-frame
/// included, gets the status `DecodeFrame` gives the same bytes.
Result<Frame> RecvFrame(int fd, const std::atomic<bool>* stop = nullptr,
                        uint32_t max_frame_bytes = kDefaultMaxFrameBytes);

}  // namespace popp::serve

#endif  // POPP_SERVE_PROTOCOL_H_
