#include "serve/server.h"

#include <errno.h>
#include <poll.h>
#include <signal.h>
#include <string.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <system_error>
#include <thread>
#include <utility>

#include "fault/file.h"

namespace popp::serve {
namespace {

/// Builds the sockaddr for `path`, rejecting paths that do not fit the
/// platform's sun_path (a real limit, ~108 bytes — long temp dirs hit it).
Result<sockaddr_un> SocketAddress(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.empty() || path.size() >= sizeof(addr.sun_path)) {
    return Status::InvalidArgument(
        "socket path must be 1.." +
        std::to_string(sizeof(addr.sun_path) - 1) + " bytes, got " +
        std::to_string(path.size()) + " ('" + path + "')");
  }
  ::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  return addr;
}

/// True when a daemon currently accepts connections on `path`.
bool SocketIsLive(const std::string& path) {
  auto addr = SocketAddress(path);
  if (!addr.ok()) return false;
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return false;
  const bool live =
      ::connect(fd, reinterpret_cast<const sockaddr*>(&addr.value()),
                sizeof(addr.value())) == 0;
  ::close(fd);
  return live;
}

/// Sends `reply` as one frame; its body goes out from its own buffer.
Status SendReply(int fd, const ReplyBody& reply,
                 const std::atomic<bool>* stop) {
  return SendFrame(fd, Tag::kReply, "", {reply.EncodeHead(), reply.body},
                   stop);
}

std::atomic<Server*> g_signal_server{nullptr};

void HandleShutdownSignal(int /*signo*/) {
  // One relaxed load + one relaxed store: async-signal-safe by
  // construction. The accept loop polls the flag every 100 ms.
  Server* server = g_signal_server.load(std::memory_order_relaxed);
  if (server != nullptr) server->RequestShutdown();
}

}  // namespace

Server::Server(ServeOptions options)
    : options_(std::move(options)),
      op_config_{options_.max_request_threads, options_.save_dir},
      registry_(options_.cache_capacity),
      admission_({.max_inflight = std::max<size_t>(options_.num_threads, 1),
                  .max_queue = options_.max_queue,
                  .per_tenant_inflight = options_.per_tenant_inflight}) {}

Server::~Server() {
  RequestShutdown();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

Status Server::Start() {
  auto addr = SocketAddress(options_.socket_path);
  if (!addr.ok()) return addr.status();

  if (fault::FileExists(options_.socket_path)) {
    if (SocketIsLive(options_.socket_path)) {
      return Status::FailedPrecondition(
          "another popp-serve daemon is already listening on '" +
          options_.socket_path +
          "'; stop it first (popp serve-client <socket> shutdown) or pick "
          "a different socket path");
    }
    // The daemon that bound this socket is gone (connect refused): the
    // file is stale debris from a crash or kill — reclaim it.
    POPP_RETURN_IF_ERROR(fault::RemoveFile(options_.socket_path));
  }

  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::IoError(std::string("socket() failed: ") +
                           ::strerror(errno));
  }
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr.value()),
             sizeof(addr.value())) != 0) {
    const Status status = Status::IoError(
        "cannot bind '" + options_.socket_path + "': " + ::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return status;
  }
  if (::listen(listen_fd_, 64) != 0) {
    const Status status = Status::IoError(
        "cannot listen on '" + options_.socket_path +
        "': " + ::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    ::unlink(options_.socket_path.c_str());
    return status;
  }
  return Status::Ok();
}

int Server::Serve(std::ostream& log) {
  POPP_CHECK_MSG(listen_fd_ >= 0, "Serve() before a successful Start()");
  while (!ShutdownRequested()) {
    struct pollfd pfd = {listen_fd_, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, 100);
    if (ready < 0) {
      if (errno == EINTR) continue;  // a signal; the flag decides
      log << "popp-serve: poll failed: " << ::strerror(errno) << "\n";
      RequestShutdown();
      break;
    }
    if (ready == 0) continue;
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      const int error = errno;
      if (error == EINTR || error == ECONNABORTED) continue;
      log << "popp-serve: accept failed: " << ::strerror(error) << "\n";
      if (error == EMFILE || error == ENFILE || error == ENOBUFS ||
          error == ENOMEM) {
        // Out of descriptors or memory: the connection stays pending
        // until a closing one frees what accept needs. Wait a slice, so
        // the still-readable listener does not spin the loop.
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
        continue;
      }
      RequestShutdown();
      break;
    }
    connections_.fetch_add(1, std::memory_order_relaxed);
    try {
      std::thread([this, fd] { HandleConnection(fd); }).detach();
    } catch (const std::system_error& e) {
      log << "popp-serve: cannot start a connection thread: " << e.what()
          << "\n";
      ::close(fd);
      connections_.fetch_sub(1, std::memory_order_release);
    }
  }

  // Drain: stop accepting, let in-flight requests finish. Blocked reads
  // — and replies whose peer stopped consuming — abort on the shutdown
  // flag within one 100 ms poll slice, so every connection thread returns
  // promptly even if its client went quiet or never reads.
  ::close(listen_fd_);
  listen_fd_ = -1;
  while (connections_.load(std::memory_order_acquire) > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  const Status removed = fault::RemoveFile(options_.socket_path);
  if (!removed.ok()) {
    log << "popp-serve: cannot remove socket file: " << removed.ToString()
        << "\n";
  }
  log << "popp-serve: drained (" << rejected_frames_.load()
      << " rejected frames), socket removed, exiting\n";
  return 0;
}

void Server::HandleConnection(int fd) {
  for (;;) {
    auto frame = RecvFrame(fd, &shutdown_, options_.max_frame_bytes);
    if (!frame.ok()) {
      const StatusCode code = frame.status().code();
      // kNotFound: the peer closed cleanly between requests. The drain
      // abort (kFailedPrecondition) closes quietly too. Everything else
      // is a protocol violation — answer with the diagnostic when the
      // peer still listens, then reject the connection. The daemon
      // itself survives every such frame.
      if (code != StatusCode::kNotFound &&
          code != StatusCode::kFailedPrecondition) {
        rejected_frames_.fetch_add(1, std::memory_order_relaxed);
        (void)SendReply(fd, ReplyBody::Error(frame.status()), &shutdown_);
      }
      break;
    }

    if (frame.value().tag == Tag::kShutdown) {
      // Flag first, then acknowledge: a reading client gets the ack (its
      // socket is writable, so the send completes), while a peer that
      // stopped consuming aborts within one poll slice instead of
      // holding the drain open.
      RequestShutdown();
      (void)SendReply(
          fd, ReplyBody::Ok("draining in-flight requests, then exiting"),
          &shutdown_);
      break;
    }

    if (frame.value().tag == Tag::kHealth) {
      // Liveness bypasses admission: the whole point of `health` is to be
      // answerable exactly when every slot and queue position is taken.
      std::string stats = admission_.RenderStats();
      stats += "rejected-frames " + std::to_string(rejected_frames_.load(
                                        std::memory_order_relaxed)) +
               "\n";
      stats += "connections " + std::to_string(connections_.load(
                                    std::memory_order_relaxed)) +
               "\n";
      if (!SendReply(fd, ReplyBody::Ok("healthy", std::move(stats)),
                     &shutdown_)
               .ok()) {
        break;
      }
      continue;
    }

    ReplyBody reply;
    auto body = RequestBody::Decode(std::move(frame.value().payload));
    if (!body.ok()) {
      reply = ReplyBody::Error(body.status());
    } else {
      // Anchor any request deadline at frame receipt against this
      // process's steady clock — the wire carries a relative value, so
      // client/server clock skew never matters.
      RequestContext context;
      const uint64_t deadline_ms = ExtractDeadlineMs(body.value().options);
      if (deadline_ms != UINT64_MAX) {
        context.deadline = resil::Deadline::After(deadline_ms);
      }
      const Status admitted = admission_.Acquire(frame.value().tenant,
                                                 context.deadline, &shutdown_);
      if (admitted.ok()) {
        Workspace* workspace = registry_.GetOrCreate(frame.value().tenant);
        reply = DispatchOp(frame.value().tag, *workspace, body.value(),
                           op_config_, context);
        admission_.Release(frame.value().tenant);
      } else if (admitted.code() == StatusCode::kFailedPrecondition) {
        break;  // draining — close like an aborted read, no reply owed
      } else {
        // Explicit shed (overload or expired deadline): answer it and keep
        // the connection open — the client's retry loop reuses it.
        reply = ReplyBody::Error(admitted);
      }
    }
    if (!SendReply(fd, reply, &shutdown_).ok()) {
      break;
    }
  }
  ::close(fd);
  // Last access to the Server: once the count reaches 0 the drain returns
  // and the Server may be destroyed under this still-exiting thread.
  connections_.fetch_sub(1, std::memory_order_release);
}

void Server::InstallSignalHandlers(Server* server) {
  g_signal_server.store(server, std::memory_order_relaxed);
  struct sigaction action {};
  if (server != nullptr) {
    action.sa_handler = HandleShutdownSignal;
    ::sigemptyset(&action.sa_mask);
  } else {
    action.sa_handler = SIG_DFL;
  }
  ::sigaction(SIGTERM, &action, nullptr);
  ::sigaction(SIGINT, &action, nullptr);
}

int RunServer(const ServeOptions& options, std::ostream& out,
              std::ostream& err) {
  Server server(options);
  const Status started = server.Start();
  if (!started.ok()) {
    err << started.ToString() << "\n";
    switch (started.code()) {
      case StatusCode::kFailedPrecondition:
      case StatusCode::kInvalidArgument:
        return 2;  // usage: live socket or unusable path
      case StatusCode::kIoError:
      case StatusCode::kNotFound:
        return 3;
      default:
        return 1;
    }
  }
  out << "popp-serve: listening on " << options.socket_path
      << " (admission " << std::max<size_t>(options.num_threads, 1)
      << " in flight / " << options.max_queue
      << " queued, per-tenant cache capacity " << options.cache_capacity;
  if (options.per_tenant_inflight > 0) {
    out << ", tenant cap " << options.per_tenant_inflight;
  }
  out << ")\n";
  Server::InstallSignalHandlers(&server);
  const int code = server.Serve(out);
  Server::InstallSignalHandlers(nullptr);
  return code;
}

}  // namespace popp::serve
