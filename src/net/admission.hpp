// Admission control for edge_serverd: bounded per-worker request queues
// with a pluggable shed policy.
//
// An open-loop arrival process does not slow down when the box saturates
// (that is the point of the harness), so the server must bound its own
// queueing or die by memory. Both policies decide AT PUSH TIME and shed
// requests get an immediate degraded_dropped response (fail private:
// nothing is released), tallied into the same edge.serve.degraded_dropped
// counter the fault paths use -- one box-level taxonomy for "dropped
// rather than leak".
//
//   kQueueCapacity -- PR 8's policy, fully deterministic: shed iff the
//     worker's queue is at capacity at admission time.
//   kLatencyBudget -- shed on PROJECTED QUEUE DELAY instead of raw queue
//     length: the workers feed back observed net.queue_delay_us samples
//     (normalized per queued item ahead at admission, EWMA-smoothed), and
//     an arrival is shed when depth x EWMA exceeds the configured budget.
//     A short latency budget sheds earlier than the capacity bound when
//     the serving path is slow, and never later: capacity stays the hard
//     backstop. The decision still happens entirely at push, so
//     served + shed == sent accounting is exact.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <span>
#include <vector>

#include "net/wire.hpp"
#include "util/status.hpp"

namespace privlocad::net {

/// Which shed rule a BoundedRequestQueue applies at push.
enum class AdmissionPolicy : std::uint8_t {
  kQueueCapacity = 0,  ///< shed iff the queue is full (PR 8 semantics)
  kLatencyBudget = 1,  ///< shed when projected queue delay exceeds budget
};

/// "queue_capacity" | "latency_budget" -- stable names for flags, JSON
/// records, and log lines.
const char* admission_policy_name(AdmissionPolicy policy);

/// Parses a policy name; typed kParseError on anything else.
util::Result<AdmissionPolicy> parse_admission_policy(const char* name);

/// One admitted request waiting for a worker. `admitted` timestamps the
/// push so the worker can split queue delay from service time;
/// `depth_at_admit` is how many requests sat ahead, so the observed
/// delay can be normalized into a per-item cost for the EWMA.
struct PendingRequest {
  std::uint64_t conn_id = 0;
  ServeRequestFrame request{};
  std::chrono::steady_clock::time_point admitted{};
  std::size_t depth_at_admit = 0;
};

/// Bounded queue between the IO thread (the one pusher) and one worker
/// (the one popper). try_push never blocks -- a false return is the shed
/// decision, made at push time.
///
/// The worker side is batched: when its local batch runs dry, pop takes
/// up to kTakeBatch queued requests under ONE lock and hands them out one
/// per call without touching the mutex the pusher needs. A request taken
/// but not yet returned by pop still counts toward the depth -- the
/// capacity check, the latency-budget projection, depth_at_admit and
/// size() -- and leaves it exactly when pop returns it (the moment the
/// worker starts serving it), so batching changes no shed decision.
class BoundedRequestQueue {
 public:
  /// Most requests one pop takes from the shared deque under one lock.
  static constexpr std::size_t kTakeBatch = 64;

  explicit BoundedRequestQueue(
      std::size_t capacity,
      AdmissionPolicy policy = AdmissionPolicy::kQueueCapacity,
      std::uint32_t latency_budget_us = 0);

  /// False iff the queue is at capacity, the policy projects the new
  /// arrival past its latency budget, or the queue is closed.
  bool try_push(PendingRequest request);

  /// try_push over `requests` in order under one lock and one wake-up:
  /// each request gets its own decision, written to admitted[i] (1 =
  /// queued, 0 = shed). `admitted` must be as long as `requests`.
  /// Returns how many were queued.
  std::size_t try_push_batch(std::span<const PendingRequest> requests,
                             std::span<std::uint8_t> admitted);

  /// Blocks until an item or close; false means closed AND drained
  /// (including a batch already taken). Single consumer: call from one
  /// thread only.
  bool pop(PendingRequest& out);

  /// Wakes poppers; pop drains the backlog then returns false.
  void close();

  /// Worker feedback: the queue delay a popped request actually saw and
  /// the depth it was admitted behind. Folds delay/max(1,depth) -- the
  /// per-queued-item wait -- into the EWMA the latency-budget policy
  /// projects from. Called from the worker thread; lock-free.
  void observe_queue_delay_us(double delay_us, std::size_t depth_at_admit);

  /// The delay a request admitted right now is projected to wait:
  /// current depth x EWMA(per-item queue delay). What try_push compares
  /// against the budget under kLatencyBudget.
  double projected_delay_us() const;

  /// The smoothed per-queued-item delay estimate (microseconds).
  double ewma_item_delay_us() const {
    return ewma_item_delay_us_.load(std::memory_order_relaxed);
  }

  /// Requests admitted and not yet returned by pop (queued + taken).
  std::size_t size() const;
  std::size_t capacity() const { return capacity_; }
  AdmissionPolicy policy() const { return policy_; }
  std::uint32_t latency_budget_us() const { return latency_budget_us_; }

 private:
  /// Queued + taken-but-unstarted. Caller holds mutex_.
  std::size_t depth_locked() const {
    return items_.size() + taken_.load();
  }
  /// One admission decision; caller holds mutex_.
  bool admit_locked(const PendingRequest& request);

  const std::size_t capacity_;
  const AdmissionPolicy policy_;
  const std::uint32_t latency_budget_us_;
  mutable std::mutex mutex_;
  std::condition_variable ready_;
  std::deque<PendingRequest> items_;
  bool closed_ = false;
  /// How many of batch_ pop has not returned yet. Raised under mutex_
  /// when a batch is taken; lowered by the popper alone, lock-free.
  std::atomic<std::size_t> taken_{0};
  /// The popper's current batch; touched only by the popper.
  std::vector<PendingRequest> batch_;
  std::size_t batch_head_ = 0;
  /// EWMA over delay/max(1,depth) samples, alpha = 1/8. Atomic so the
  /// worker writes and the IO thread reads without taking the queue
  /// mutex on the serve path.
  std::atomic<double> ewma_item_delay_us_{0.0};
};

}  // namespace privlocad::net
