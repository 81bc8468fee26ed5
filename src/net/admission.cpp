#include "net/admission.hpp"

#include <algorithm>
#include <cstring>
#include <string>

#include "util/validation.hpp"

namespace privlocad::net {

const char* admission_policy_name(AdmissionPolicy policy) {
  switch (policy) {
    case AdmissionPolicy::kQueueCapacity:
      return "queue_capacity";
    case AdmissionPolicy::kLatencyBudget:
      return "latency_budget";
  }
  return "unknown";
}

util::Result<AdmissionPolicy> parse_admission_policy(const char* name) {
  if (name != nullptr && std::strcmp(name, "queue_capacity") == 0) {
    return AdmissionPolicy::kQueueCapacity;
  }
  if (name != nullptr && std::strcmp(name, "latency_budget") == 0) {
    return AdmissionPolicy::kLatencyBudget;
  }
  return util::Status::parse_error(
      std::string(
          "admission policy must be queue_capacity | latency_budget, "
          "got '") +
      (name == nullptr ? "" : name) + "'");
}

BoundedRequestQueue::BoundedRequestQueue(std::size_t capacity,
                                         AdmissionPolicy policy,
                                         std::uint32_t latency_budget_us)
    : capacity_(capacity),
      policy_(policy),
      latency_budget_us_(latency_budget_us) {
  util::require(capacity >= 1, "request queue capacity must be >= 1");
  util::require(policy != AdmissionPolicy::kLatencyBudget ||
                    latency_budget_us >= 1,
                "latency_budget admission needs a budget >= 1us");
}

bool BoundedRequestQueue::admit_locked(const PendingRequest& request) {
  const std::size_t depth = depth_locked();
  if (closed_ || depth >= capacity_) return false;
  if (policy_ == AdmissionPolicy::kLatencyBudget) {
    const double projected =
        static_cast<double>(depth) *
        ewma_item_delay_us_.load(std::memory_order_relaxed);
    if (projected > static_cast<double>(latency_budget_us_)) return false;
  }
  items_.push_back(request);
  items_.back().depth_at_admit = depth;
  return true;
}

bool BoundedRequestQueue::try_push(PendingRequest request) {
  std::uint8_t admitted = 0;
  try_push_batch({&request, 1}, {&admitted, 1});
  return admitted != 0;
}

std::size_t BoundedRequestQueue::try_push_batch(
    std::span<const PendingRequest> requests,
    std::span<std::uint8_t> admitted) {
  util::require(admitted.size() >= requests.size(),
                "try_push_batch needs one decision slot per request");
  std::size_t queued = 0;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    for (std::size_t i = 0; i < requests.size(); ++i) {
      admitted[i] = admit_locked(requests[i]) ? 1 : 0;
      queued += admitted[i];
    }
  }
  if (queued > 0) ready_.notify_one();
  return queued;
}

bool BoundedRequestQueue::pop(PendingRequest& out) {
  if (batch_head_ == batch_.size()) {
    batch_.clear();
    batch_head_ = 0;
    std::unique_lock<std::mutex> lock(mutex_);
    ready_.wait(lock, [this] { return closed_ || !items_.empty(); });
    if (items_.empty()) return false;  // closed and drained
    const std::size_t take = std::min(items_.size(), kTakeBatch);
    const auto last = items_.begin() + static_cast<std::ptrdiff_t>(take);
    batch_.assign(items_.begin(), last);
    items_.erase(items_.begin(), last);
    // Under the same lock as the erase, so a pusher always counts each
    // taken request once: the depth drops only as pop hands them out.
    taken_.store(take);
  }
  out = batch_[batch_head_++];
  taken_.fetch_sub(1);
  return true;
}

void BoundedRequestQueue::close() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    closed_ = true;
  }
  ready_.notify_all();
}

void BoundedRequestQueue::observe_queue_delay_us(
    double delay_us, std::size_t depth_at_admit) {
  if (delay_us < 0.0) delay_us = 0.0;
  const double sample =
      delay_us / static_cast<double>(depth_at_admit > 0 ? depth_at_admit
                                                        : std::size_t{1});
  double current = ewma_item_delay_us_.load(std::memory_order_relaxed);
  double next = current + (sample - current) / 8.0;
  while (!ewma_item_delay_us_.compare_exchange_weak(
      current, next, std::memory_order_relaxed,
      std::memory_order_relaxed)) {
    next = current + (sample - current) / 8.0;
  }
}

double BoundedRequestQueue::projected_delay_us() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return static_cast<double>(depth_locked()) *
         ewma_item_delay_us_.load(std::memory_order_relaxed);
}

std::size_t BoundedRequestQueue::size() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return depth_locked();
}

}  // namespace privlocad::net
