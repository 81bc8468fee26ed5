#include "checks.hpp"

#include <algorithm>
#include <bit>

#include "core/edge_device.hpp"
#include "stats/quantiles.hpp"
#include "util/status.hpp"

namespace edgebench {

using privlocad::core::ServeOutcome;

Accounting account(const std::vector<Slot>& slots) {
  Accounting a;
  for (const Slot& slot : slots) {
    if (slot.state == SlotState::kUnsent) continue;
    ++a.sent;
    if (slot.state == SlotState::kLost) {
      ++a.lost;
      ++a.missing;
    } else if (slot.state == SlotState::kInFlight) {
      ++a.missing;
    } else if (slot.released != 0) {
      ++a.released;
    } else if (static_cast<ServeOutcome>(slot.outcome) ==
               ServeOutcome::kDegradedDropped) {
      // Admission refusals carry RESOURCE_EXHAUSTED; any other drop came
      // from inside serve.
      if (slot.status_code ==
          static_cast<std::uint8_t>(privlocad::util::ErrorCode::kResourceExhausted)) {
        ++a.shed;
      } else {
        ++a.dropped;
      }
    } else {
      ++a.failed;
    }
  }
  return a;
}

std::uint64_t count_raw_leaks(const std::vector<PlannedRequest>& plan,
                              const std::vector<Slot>& slots) {
  std::uint64_t leaks = 0;
  for (std::size_t i = 0; i < slots.size() && i < plan.size(); ++i) {
    const Slot& slot = slots[i];
    if (slot.state != SlotState::kAnswered) continue;
    const std::uint64_t rx = std::bit_cast<std::uint64_t>(slot.x);
    const std::uint64_t ry = std::bit_cast<std::uint64_t>(slot.y);
    if (slot.released != 0) {
      if (rx == std::bit_cast<std::uint64_t>(plan[i].frame.x) &&
          ry == std::bit_cast<std::uint64_t>(plan[i].frame.y)) {
        ++leaks;
      }
    } else if (rx != 0 || ry != 0) {
      ++leaks;
    }
  }
  return leaks;
}

void PermanenceAudit::add(const std::vector<PlannedRequest>& plan,
                          const std::vector<Slot>& slots) {
  for (std::size_t i = 0; i < slots.size() && i < plan.size(); ++i) {
    if (plan[i].top_key < 0 || slots[i].state != SlotState::kAnswered ||
        slots[i].released == 0) {
      continue;
    }
    releases_.push_back({plan[i].top_key,
                         std::bit_cast<std::uint64_t>(slots[i].x),
                         std::bit_cast<std::uint64_t>(slots[i].y)});
  }
  // Keep the log compact: only distinct releases matter.
  const auto less = [](const Release& a, const Release& b) {
    if (a.key != b.key) return a.key < b.key;
    if (a.x_bits != b.x_bits) return a.x_bits < b.x_bits;
    return a.y_bits < b.y_bits;
  };
  const auto equal = [](const Release& a, const Release& b) {
    return a.key == b.key && a.x_bits == b.x_bits && a.y_bits == b.y_bits;
  };
  std::sort(releases_.begin(), releases_.end(), less);
  releases_.erase(std::unique(releases_.begin(), releases_.end(), equal),
                  releases_.end());
}

std::uint64_t PermanenceAudit::violations(std::size_t n) const {
  std::uint64_t bad = 0;
  std::size_t run = 0;
  for (std::size_t i = 0; i < releases_.size(); ++i) {
    run = (i > 0 && releases_[i].key == releases_[i - 1].key) ? run + 1 : 1;
    if (run == n + 1) ++bad;
  }
  return bad;
}

std::uint64_t PermanenceAudit::keys() const {
  std::uint64_t keys = 0;
  for (std::size_t i = 0; i < releases_.size(); ++i) {
    if (i == 0 || releases_[i].key != releases_[i - 1].key) ++keys;
  }
  return keys;
}

LagSummary summarise_lag(const std::vector<PlannedRequest>& plan,
                         const std::vector<Slot>& slots, double bound_us) {
  std::vector<double> lags;
  lags.reserve(slots.size());
  for (std::size_t i = 0; i < slots.size() && i < plan.size(); ++i) {
    if (slots[i].state == SlotState::kUnsent || slots[i].state == SlotState::kLost) {
      continue;
    }
    lags.push_back(
        (static_cast<double>(slots[i].sent_ns) - plan[i].at_s * 1e9) / 1e3);
  }
  LagSummary summary;
  summary.samples = lags.size();
  summary.p50_us = quantile(lags, 0.50);
  summary.p99_us = quantile(lags, 0.99);
  summary.client_bound = quantile(lags, 0.90) > bound_us;
  return summary;
}

double quantile(std::vector<double> values, double q) {
  return values.empty() ? 0.0
                        : privlocad::stats::quantile(std::move(values), q);
}

}  // namespace edgebench
