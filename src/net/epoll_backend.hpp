// edge_serverd's IO engine: level-triggered epoll, readiness-driven
// recv/send, EPOLLOUT armed only while a backlog exists, EPOLLIN
// disarmed while the sink holds reads paused. The protocol core
// (net/server.cpp) makes every policy decision; this class only moves
// bytes. See net/io_backend.hpp for the IoSink callbacks and the
// threading contract.
#pragma once

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "net/io_backend.hpp"
#include "net/socket.hpp"
#include "util/status.hpp"

namespace privlocad::net {

/// Lifecycle: init() once, poll() from the IO loop until stop,
/// shutdown_flush() last.
class EpollBackend {
 public:
  /// Takes (non-owning) the listening socket and the worker-completion
  /// eventfd, and the sink all events are delivered to. The listen fd
  /// must already be bound + listening; accepted sockets get
  /// TCP_NODELAY.
  util::Status init(int listen_fd, int wake_fd, IoSink& sink);

  /// One wait-and-dispatch batch: waits up to `timeout_ms` for readiness
  /// (the tick) and delivers every ready event through the sink. A
  /// wake_fd write from any thread interrupts the wait; the engine
  /// drains the eventfd counter itself (poll() returning IS the wake
  /// notification). Returns non-ok only when epoll_wait itself failed --
  /// per-connection errors surface as on_closed instead.
  util::Status poll(int timeout_ms);

  /// Appends `n` bytes to `conn_id`'s outbound buffer. No flush
  /// guarantee until flush() -- callers batch appends per connection and
  /// flush once, so pipelined responses coalesce into large sends.
  /// Unknown ids are ignored (the peer may already be gone).
  void queue_send(std::uint64_t conn_id, const std::uint8_t* data,
                  std::size_t n);

  /// Sends `conn_id`'s outbound backlog until EAGAIN, arming EPOLLOUT
  /// while a backlog remains.
  void flush(std::uint64_t conn_id);

  /// Outbound bytes buffered for `conn_id` (the byte-budget input).
  std::size_t outbound_bytes(std::uint64_t conn_id) const;

  /// Stops/resumes delivering on_data for `conn_id` (EPOLLIN disarm).
  void pause_reads(std::uint64_t conn_id);
  void resume_reads(std::uint64_t conn_id);

  /// Sink-initiated immediate close (poisoned stream, protocol error).
  /// Undelivered inbound bytes and unflushed outbound bytes are
  /// discarded; on_closed is NOT fired.
  void close_connection(std::uint64_t conn_id);

  /// Connections currently open (accepted, not yet closed).
  std::size_t open_connection_count() const;

  /// Shutdown path: best-effort non-blocking flush of every outbound
  /// buffer, then closes every connection and the epoll fd. poll() must
  /// not be called afterwards.
  void shutdown_flush();

 private:
  /// Per-connection IO state. `out` is head-indexed so flushing never
  /// memmoves the whole buffer per send; compaction happens when the
  /// head passes half the buffer (same policy as PR 8).
  struct Conn {
    UniqueFd fd;
    std::vector<std::uint8_t> out;
    std::size_t out_head = 0;
    bool want_write = false;   ///< EPOLLOUT currently armed
    bool read_paused = false;  ///< EPOLLIN disarmed by the sink
    bool dead = false;         ///< close at the end of this poll batch

    std::size_t out_backlog() const { return out.size() - out_head; }
    void compact_out();
  };

  void accept_all();
  /// Sends until EAGAIN; marks the conn dead on a hard error. Returns
  /// true when the backlog shrank.
  bool try_flush(Conn& conn);
  void update_interest(std::uint64_t id, Conn& conn);
  void handle_readable(std::uint64_t id, Conn& conn);
  void reap_dead();

  IoSink* sink_ = nullptr;
  int listen_fd_ = -1;
  int wake_fd_ = -1;
  UniqueFd epoll_fd_;
  std::unordered_map<std::uint64_t, Conn> conns_;
  std::uint64_t next_conn_id_ = 8;  ///< ids below 8 are reserved marks
  std::vector<std::uint8_t> read_chunk_;
};

}  // namespace privlocad::net
