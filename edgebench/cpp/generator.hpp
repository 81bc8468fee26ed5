// The benchmark's open-loop load generator: one thread over a few
// loopback connections.
//
// Open loop: a request goes out when the plan says it is due, whether or
// not earlier ones have been answered, and its latency is measured from
// that due time, so a stall on either side shows up in every request it
// delays. The thread sleeps in ppoll() until the next due send or a
// readable socket, coalesces every request that has come due into one
// send() per connection per wake, and keeps in-flight requests in a
// vector indexed by plan position. Each request is pinned to a connection
// by user id, so one user's requests reach the server in plan order.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "checks.hpp"
#include "net/socket.hpp"
#include "util/status.hpp"

namespace edgebench {

/// What one phase of load observed.
struct PhaseResult {
  std::vector<Slot> slots;  ///< indexed like the plan
  /// Responses whose id matched no in-flight request of this phase.
  std::uint64_t stray = 0;
  std::uint64_t wire_errors = 0;
  /// Connections dead at the end of the phase: the peer closed, a send
  /// failed or a frame did not decode. Requests due on a dead connection
  /// are kLost.
  std::uint64_t dead_connections = 0;
  /// Wire id of plan entry 0 (entry i went out as first_id + i), and the
  /// phase start on the steady clock; slot times count from it.
  std::uint64_t first_id = 0;
  std::int64_t start_ns = 0;
  /// Wakes that sent at least one request, and the requests they sent.
  std::uint64_t send_wakes = 0;
  std::uint64_t sends = 0;
  /// CPU seconds of the generator thread, and of the whole process,
  /// during the phase.
  double generator_cpu_s = 0.0;
  double process_cpu_s = 0.0;
};

class Generator {
 public:
  /// Opens `connections` nonblocking loopback connections to `port`.
  static privlocad::util::Result<std::unique_ptr<Generator>> connect(
      std::uint16_t port, std::size_t connections);

  Generator(const Generator&) = delete;
  Generator& operator=(const Generator&) = delete;

  /// Drives `plan` (sorted by at_s) open loop, then waits up to
  /// `drain_timeout_s` after the last due send for stragglers. Request
  /// ids on the wire are unique across phases of one generator. A
  /// non-empty `tick` is called from the loop about once a millisecond
  /// (registry scrapes in traced runs).
  PhaseResult run(const std::vector<PlannedRequest>& plan,
                  double drain_timeout_s,
                  const std::function<void()>& tick = {});

 private:
  struct Conn {
    privlocad::net::UniqueFd fd;
    std::vector<std::uint8_t> in;
    std::size_t in_head = 0;
    std::vector<std::uint8_t> out;
    std::size_t out_head = 0;
    bool dead = false;
  };

  Generator() = default;
  std::size_t conn_for(std::uint64_t user_id) const;
  void flush(Conn& conn);

  std::vector<Conn> conns_;
  std::uint64_t next_id_ = 1;
};

/// CPU seconds of the calling thread / of the whole process.
double thread_cpu_s();
double process_cpu_s();

}  // namespace edgebench
