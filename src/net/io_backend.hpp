// The callback contract between edge_serverd's protocol core and its IO
// engine.
//
// ONE protocol state machine (framing, admission, worker hashing,
// byte-budget backpressure, metrics -- all in net/server.cpp) receives
// socket events through IoSink; the engine underneath
// (net/epoll_backend.hpp: level-triggered epoll, readiness-driven
// recv/send, EPOLLIN disarm for backpressure) owns the readiness
// mechanics, the fds and the outbound buffers, and makes no policy
// decision of its own.
//
// Threading contract: every engine method and every IoSink callback
// runs on the ONE IO thread. The engine owns fds and outbound buffers;
// the protocol core owns inbound framing buffers and all policy
// decisions (when to shed, when to pause reads, when a connection is
// poisoned).
#pragma once

#include <cstddef>
#include <cstdint>

namespace privlocad::net {

/// The IO engine serving the sockets. epoll is the only one; the name
/// stays so records and log lines keep saying which engine served.
enum class IoBackendKind : std::uint8_t {
  kEpoll = 1,
};

/// "epoll" -- the stable name for JSON records and log lines.
inline const char* io_backend_kind_name(IoBackendKind) { return "epoll"; }

/// Events the engine delivers into the protocol core. All callbacks fire
/// on the IO thread, from inside EpollBackend::poll().
class IoSink {
 public:
  virtual ~IoSink() = default;

  /// A new connection `conn_id` was accepted (ids are engine-assigned,
  /// unique per engine lifetime, never reused).
  virtual void on_accept(std::uint64_t conn_id) = 0;

  /// `n` received bytes for `conn_id`. The pointer is valid only for the
  /// duration of the call; the sink copies what it wants to keep. The
  /// sink may call close_connection(conn_id) from inside this callback.
  virtual void on_data(std::uint64_t conn_id, const std::uint8_t* data,
                       std::size_t n) = 0;

  /// The engine flushed outbound bytes for `conn_id` on its own
  /// (writability): the sink re-evaluates its byte-budget backpressure
  /// decision via outbound_bytes().
  virtual void on_writable_resume(std::uint64_t conn_id) = 0;

  /// The peer closed or the connection failed. The engine has already
  /// discarded its state for `conn_id`; this is the sink's cue to drop
  /// its own. Never fired for sink-initiated close_connection() calls.
  virtual void on_closed(std::uint64_t conn_id) = 0;
};

}  // namespace privlocad::net
