// Output checks the benchmark runs on every result, and the schedule-lag
// accounting that decides whether a measurement is valid at all.
//
// The checks work on what the generator saw on the wire, so they hold the
// server to the paper's contract from outside:
//   - no raw leak: a released point never bit-equals the coordinates that
//     were sent, and a response that released nothing carries zeroes;
//   - permanence: every (user, ground-truth top location) releases at most
//     n distinct points, the size of its one frozen candidate set;
//   - accounting: released + shed + dropped + failed + missing = sent,
//     with every slot counted exactly once.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "net/wire.hpp"

namespace edgebench {

/// Where one planned request stands after a phase. kLost: it came due
/// while its connection was dead, so it could never be sent.
enum class SlotState : std::uint8_t {
  kUnsent = 0,
  kInFlight = 1,
  kAnswered = 2,
  kLost = 3,
};

/// One request as planned: when it is due, the frame it sends, and the
/// ground-truth top location it targets (-1 when it targets none).
struct PlannedRequest {
  double at_s = 0.0;
  privlocad::net::ServeRequestFrame frame{};
  std::int64_t top_key = -1;
};

/// What the generator recorded for one planned request, indexed like the
/// plan. Times are nanoseconds since the phase start.
struct Slot {
  SlotState state = SlotState::kUnsent;
  std::uint8_t outcome = 0;
  std::uint8_t status_code = 0;
  std::uint8_t released = 0;
  std::int64_t sent_ns = 0;
  std::int64_t answered_ns = 0;
  double x = 0.0;
  double y = 0.0;
};

/// Per-class response tallies of one phase.
struct Accounting {
  std::uint64_t sent = 0;  ///< came due: sent, or lost on a dead connection
  std::uint64_t released = 0;
  std::uint64_t shed = 0;     ///< refused at admission
  std::uint64_t dropped = 0;  ///< degraded_dropped inside serve
  std::uint64_t failed = 0;
  std::uint64_t missing = 0;  ///< never answered, lost ones included
  std::uint64_t lost = 0;     ///< due on a dead connection (within missing)

  bool balanced() const {
    return released + shed + dropped + failed + missing == sent;
  }
};

/// Classifies every slot that came due exactly once.
Accounting account(const std::vector<Slot>& slots);

/// Responses that leak: a released point bit-equal to the sent
/// coordinates, or a non-released response with nonzero coordinates.
std::uint64_t count_raw_leaks(const std::vector<PlannedRequest>& plan,
                              const std::vector<Slot>& slots);

/// Accumulates released points per ground-truth top key across phases.
class PermanenceAudit {
 public:
  void add(const std::vector<PlannedRequest>& plan,
           const std::vector<Slot>& slots);
  /// Keys that released more than `n` distinct points.
  std::uint64_t violations(std::size_t n) const;
  /// Distinct (key) values that released at least once.
  std::uint64_t keys() const;

 private:
  struct Release {
    std::int64_t key;
    std::uint64_t x_bits;
    std::uint64_t y_bits;
  };
  std::vector<Release> releases_;
};

/// Schedule-lag summary of one phase: how late the generator sent,
/// relative to the plan. A phase whose p90 lag exceeds the bound measured
/// the client, not the server: a host stall of the generator thread moves
/// the p99, a generator that cannot keep up moves the bulk.
struct LagSummary {
  std::uint64_t samples = 0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  bool client_bound = false;
};

/// Summarises the lag of every sent slot against `bound_us`.
LagSummary summarise_lag(const std::vector<PlannedRequest>& plan,
                         const std::vector<Slot>& slots, double bound_us);

/// Type-7 quantile (stats::quantile); 0 for an empty sample.
double quantile(std::vector<double> values, double q);

}  // namespace edgebench
