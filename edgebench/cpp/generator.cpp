#include "generator.hpp"

#include <errno.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>

#include "net/wire.hpp"

namespace edgebench {

namespace net = privlocad::net;
namespace util = privlocad::util;

namespace {

using Clock = std::chrono::steady_clock;

double cpu_s(clockid_t clock) {
  timespec ts{};
  ::clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

}  // namespace

double thread_cpu_s() { return cpu_s(CLOCK_THREAD_CPUTIME_ID); }
double process_cpu_s() { return cpu_s(CLOCK_PROCESS_CPUTIME_ID); }

util::Result<std::unique_ptr<Generator>> Generator::connect(
    std::uint16_t port, std::size_t connections) {
  // ppoll() wakes at the next due send; the default 50 us timer slack
  // would show up as schedule lag in every request.
  ::prctl(PR_SET_TIMERSLACK, 1000UL, 0UL, 0UL, 0UL);
  std::unique_ptr<Generator> gen(new Generator());
  gen->conns_.resize(connections);
  for (Conn& conn : gen->conns_) {
    util::Result<net::UniqueFd> fd = net::connect_loopback(port);
    if (!fd.ok()) return fd.status();
    conn.fd = std::move(fd.value());
    if (util::Status s = net::set_nonblocking(conn.fd.get()); !s.ok()) return s;
  }
  return gen;
}

std::size_t Generator::conn_for(std::uint64_t user_id) const {
  return static_cast<std::size_t>((user_id * 0xD6E8FEB86659FD93ULL) >> 32) %
         conns_.size();
}

void Generator::flush(Conn& conn) {
  while (!conn.dead && conn.out_head < conn.out.size()) {
    const ssize_t wrote =
        ::send(conn.fd.get(), conn.out.data() + conn.out_head,
               conn.out.size() - conn.out_head, MSG_NOSIGNAL);
    if (wrote > 0) {
      conn.out_head += static_cast<std::size_t>(wrote);
      continue;
    }
    if (wrote < 0 && errno == EINTR) continue;
    if (wrote < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    conn.dead = true;
  }
  if (conn.out_head == conn.out.size()) {
    conn.out.clear();
    conn.out_head = 0;
  }
}

PhaseResult Generator::run(const std::vector<PlannedRequest>& plan,
                           double drain_timeout_s,
                           const std::function<void()>& tick) {
  PhaseResult result;
  result.slots.assign(plan.size(), Slot{});
  const std::uint64_t id_base = next_id_;
  next_id_ += plan.size();
  const auto due_ns = [&](std::size_t i) {
    return static_cast<std::int64_t>(std::llround(plan[i].at_s * 1e9));
  };
  const std::int64_t drain_deadline_ns =
      (plan.empty() ? 0 : due_ns(plan.size() - 1)) +
      static_cast<std::int64_t>(drain_timeout_s * 1e9);
  constexpr std::int64_t kTickNs = 1'000'000;

  std::vector<pollfd> pfds(conns_.size());
  const double generator_cpu0 = thread_cpu_s();
  const double process_cpu0 = process_cpu_s();
  const Clock::time_point t0 = Clock::now();
  result.first_id = id_base;
  result.start_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(t0.time_since_epoch()).count();
  const auto now_ns = [&] {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0)
        .count();
  };

  std::size_t next = 0;
  std::size_t in_flight = 0;
  std::int64_t next_tick_ns = 0;

  const auto read_responses = [&](Conn& conn) {
    while (!conn.dead) {
      std::uint8_t chunk[64 * 1024];
      const ssize_t got = ::recv(conn.fd.get(), chunk, sizeof(chunk), 0);
      if (got < 0 && errno == EINTR) continue;
      if (got < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      if (got <= 0) {
        conn.dead = true;
        break;
      }
      const std::int64_t at = now_ns();
      conn.in.insert(conn.in.end(), chunk, chunk + got);
      while (true) {
        net::Frame frame;
        std::size_t consumed = 0;
        const util::Status parsed =
            net::try_decode(conn.in.data() + conn.in_head,
                            conn.in.size() - conn.in_head, frame, consumed);
        if (!parsed.ok() || (consumed > 0 && frame.type != net::FrameType::kServeResponse)) {
          ++result.wire_errors;
          conn.dead = true;
          return;
        }
        if (consumed == 0) break;
        conn.in_head += consumed;
        const net::ServeResponseFrame& r = frame.response;
        const std::uint64_t index = r.request_id - id_base;
        if (r.request_id < id_base || index >= plan.size() ||
            result.slots[index].state != SlotState::kInFlight) {
          ++result.stray;
          continue;
        }
        Slot& slot = result.slots[index];
        slot.state = SlotState::kAnswered;
        slot.answered_ns = at;
        slot.outcome = r.outcome;
        slot.status_code = r.status_code;
        slot.released = r.released;
        slot.x = r.x;
        slot.y = r.y;
        --in_flight;
      }
      if (conn.in_head == conn.in.size()) {
        conn.in.clear();
        conn.in_head = 0;
      } else if (conn.in_head * 2 >= conn.in.size()) {
        conn.in.erase(conn.in.begin(),
                      conn.in.begin() + static_cast<std::ptrdiff_t>(conn.in_head));
        conn.in_head = 0;
      }
      if (static_cast<std::size_t>(got) < sizeof(chunk)) break;
    }
  };

  while (true) {
    const std::int64_t now = now_ns();
    if (next < plan.size() && due_ns(next) <= now) {
      std::uint64_t batch = 0;
      while (next < plan.size() && due_ns(next) <= now) {
        const PlannedRequest& planned = plan[next];
        Conn& conn = conns_[conn_for(planned.frame.user_id)];
        Slot& slot = result.slots[next];
        if (conn.dead) {
          slot.state = SlotState::kLost;
        } else {
          net::ServeRequestFrame frame = planned.frame;
          frame.request_id = id_base + next;
          net::append_request(conn.out, frame);
          slot.state = SlotState::kInFlight;
          slot.sent_ns = now;
          ++in_flight;
          ++batch;
        }
        ++next;
      }
      for (Conn& conn : conns_) flush(conn);
      if (batch > 0) {
        ++result.send_wakes;
        result.sends += batch;
      }
    }
    if (tick && now >= next_tick_ns) {
      tick();
      next_tick_ns = now + kTickNs;
    }
    const bool all_dead = std::all_of(conns_.begin(), conns_.end(),
                                      [](const Conn& c) { return c.dead; });
    if (next >= plan.size() &&
        (in_flight == 0 || now >= drain_deadline_ns || all_dead)) {
      break;
    }

    std::int64_t wait_ns =
        next < plan.size() ? due_ns(next) - now : drain_deadline_ns - now;
    if (tick) wait_ns = std::min(wait_ns, next_tick_ns - now);
    wait_ns = std::max<std::int64_t>(wait_ns, 0);
    for (std::size_t i = 0; i < conns_.size(); ++i) {
      const Conn& conn = conns_[i];
      pfds[i].fd = conn.dead ? -1 : conn.fd.get();
      pfds[i].events = static_cast<short>(
          POLLIN | (conn.out_head < conn.out.size() ? POLLOUT : 0));
      pfds[i].revents = 0;
    }
    const timespec timeout{static_cast<time_t>(wait_ns / 1'000'000'000),
                           static_cast<long>(wait_ns % 1'000'000'000)};
    if (::ppoll(pfds.data(), pfds.size(), &timeout, nullptr) <= 0) continue;
    for (std::size_t i = 0; i < conns_.size(); ++i) {
      if (pfds[i].revents & POLLOUT) flush(conns_[i]);
      if (pfds[i].revents & (POLLIN | POLLHUP | POLLERR)) {
        read_responses(conns_[i]);
      }
    }
  }

  result.dead_connections = static_cast<std::uint64_t>(std::count_if(
      conns_.begin(), conns_.end(), [](const Conn& c) { return c.dead; }));
  result.generator_cpu_s = thread_cpu_s() - generator_cpu0;
  result.process_cpu_s = process_cpu_s() - process_cpu0;
  return result;
}

}  // namespace edgebench
