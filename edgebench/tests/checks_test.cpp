// Tests of the benchmark's output checkers and its schedule-lag accounting,
// including fabricated streams that must fail them.
#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <memory>

#include "checks.hpp"
#include "core/edge_device.hpp"
#include "generator.hpp"
#include "net/socket.hpp"
#include "util/status.hpp"

namespace edgebench {
namespace {

using privlocad::core::ServeOutcome;
using privlocad::util::ErrorCode;

PlannedRequest request(double at_s, double x, double y, std::int64_t top_key = -1) {
  PlannedRequest p;
  p.at_s = at_s;
  p.frame.user_id = 7;
  p.frame.x = x;
  p.frame.y = y;
  p.top_key = top_key;
  return p;
}

Slot released(double x, double y) {
  Slot s;
  s.state = SlotState::kAnswered;
  s.outcome = static_cast<std::uint8_t>(ServeOutcome::kServed);
  s.released = 1;
  s.x = x;
  s.y = y;
  return s;
}

Slot refused(ErrorCode code) {
  Slot s;
  s.state = SlotState::kAnswered;
  s.outcome = static_cast<std::uint8_t>(ServeOutcome::kDegradedDropped);
  s.status_code = static_cast<std::uint8_t>(code);
  return s;
}

TEST(RawLeakCheck, ObfuscatedStreamIsClean) {
  const std::vector<PlannedRequest> plan = {request(0.0, 10.0, 20.0),
                                            request(0.1, 30.0, 40.0)};
  const std::vector<Slot> slots = {released(11.5, 19.0), refused(ErrorCode::kResourceExhausted)};
  EXPECT_EQ(count_raw_leaks(plan, slots), 0u);
}

TEST(RawLeakCheck, RawEchoFails) {
  const std::vector<PlannedRequest> plan = {request(0.0, 10.0, 20.0),
                                            request(0.1, 30.0, 40.0)};
  const std::vector<Slot> slots = {released(11.5, 19.0), released(30.0, 40.0)};
  EXPECT_EQ(count_raw_leaks(plan, slots), 1u);
}

TEST(RawLeakCheck, CoordinatesOnARefusalFail) {
  const std::vector<PlannedRequest> plan = {request(0.0, 10.0, 20.0)};
  Slot slot = refused(ErrorCode::kResourceExhausted);
  slot.x = 3.0;
  EXPECT_EQ(count_raw_leaks(plan, {slot}), 1u);
}

TEST(PermanenceAudit, NDistinctReleasesPass) {
  std::vector<PlannedRequest> plan;
  std::vector<Slot> slots;
  for (int i = 0; i < 30; ++i) {
    plan.push_back(request(i * 0.01, 0.0, 0.0, /*top_key=*/5));
    slots.push_back(released(100.0 + i % 10, 200.0));  // 10 distinct points
  }
  PermanenceAudit audit;
  audit.add(plan, slots);
  EXPECT_EQ(audit.violations(10), 0u);
  EXPECT_EQ(audit.keys(), 1u);
}

TEST(PermanenceAudit, AnExtraDistinctPointFails) {
  std::vector<PlannedRequest> plan;
  std::vector<Slot> slots;
  for (int i = 0; i < 10; ++i) {
    plan.push_back(request(i * 0.01, 0.0, 0.0, 5));
    slots.push_back(released(100.0 + i, 200.0));
  }
  PermanenceAudit audit;
  audit.add(plan, slots);
  EXPECT_EQ(audit.violations(10), 0u);
  // The (n+1)-th distinct point arrives in a later phase.
  audit.add({request(1.0, 0.0, 0.0, 5)}, {released(999.0, 200.0)});
  EXPECT_EQ(audit.violations(10), 1u);
}

TEST(PermanenceAudit, NomadicAndUnreleasedRequestsAreNotAudited) {
  std::vector<PlannedRequest> plan;
  std::vector<Slot> slots;
  for (int i = 0; i < 20; ++i) {
    plan.push_back(request(i * 0.01, 0.0, 0.0, -1));
    slots.push_back(released(i, i));
  }
  plan.push_back(request(1.0, 0.0, 0.0, 3));
  slots.push_back(refused(ErrorCode::kResourceExhausted));
  PermanenceAudit audit;
  audit.add(plan, slots);
  EXPECT_EQ(audit.violations(1), 0u);
  EXPECT_EQ(audit.keys(), 0u);
}

TEST(Accounting, EverySentRequestLandsInOneClass) {
  std::vector<Slot> slots = {released(1.0, 2.0), refused(ErrorCode::kResourceExhausted),
                             refused(ErrorCode::kUnavailable), Slot{}, Slot{}};
  slots[3].state = SlotState::kInFlight;  // never answered
  Slot failed;
  failed.state = SlotState::kAnswered;
  failed.outcome = static_cast<std::uint8_t>(ServeOutcome::kFailed);
  slots.push_back(failed);
  const Accounting a = account(slots);
  EXPECT_EQ(a.sent, 5u);  // the unsent slot does not count
  EXPECT_EQ(a.released, 1u);
  EXPECT_EQ(a.shed, 1u);
  EXPECT_EQ(a.dropped, 1u);
  EXPECT_EQ(a.failed, 1u);
  EXPECT_EQ(a.missing, 1u);
  EXPECT_TRUE(a.balanced());
}

TEST(Accounting, ARequestLostOnADeadConnectionIsMissing) {
  std::vector<Slot> slots = {released(1.0, 2.0), Slot{}};
  slots[1].state = SlotState::kLost;
  const Accounting a = account(slots);
  EXPECT_EQ(a.sent, 2u);
  EXPECT_EQ(a.missing, 1u);
  EXPECT_EQ(a.lost, 1u);
  EXPECT_TRUE(a.balanced());
}

TEST(GeneratorAccounting, RequestsOnClosedConnectionsAreMissing) {
  std::uint16_t port = 0;
  privlocad::util::Result<privlocad::net::UniqueFd> listener =
      privlocad::net::listen_loopback(0, port);
  ASSERT_TRUE(listener.ok());
  privlocad::util::Result<std::unique_ptr<Generator>> generator =
      Generator::connect(port, 4);
  ASSERT_TRUE(generator.ok());
  // The peer accepts every connection and closes it at once.
  for (int i = 0; i < 4; ++i) {
    const int fd = ::accept(listener.value().get(), nullptr, nullptr);
    ASSERT_GE(fd, 0);
    ::close(fd);
  }
  std::vector<PlannedRequest> plan;
  for (int i = 0; i < 200; ++i) {
    PlannedRequest p = request(i * 0.0002, 1.0, 2.0);
    p.frame.user_id = static_cast<std::uint64_t>(i);
    plan.push_back(p);
  }
  const PhaseResult result = generator.value()->run(plan, 1.0);
  const Accounting a = account(result.slots);
  EXPECT_EQ(result.dead_connections, 4u);
  EXPECT_EQ(a.sent, plan.size());
  EXPECT_EQ(a.missing, plan.size());
  EXPECT_EQ(a.released, 0u);
  EXPECT_TRUE(a.balanced());
  // A later phase on the same dead connections loses every request.
  const PhaseResult later = generator.value()->run(plan, 1.0);
  EXPECT_EQ(account(later.slots).lost, plan.size());
}

TEST(Accounting, AnUnbalancedTallyFails) {
  Accounting a;
  a.sent = 10;
  a.released = 8;
  a.shed = 1;
  EXPECT_FALSE(a.balanced());
}

TEST(LagAccounting, LagIsMeasuredFromTheSchedule) {
  std::vector<PlannedRequest> plan;
  std::vector<Slot> slots;
  for (int i = 0; i < 100; ++i) {
    plan.push_back(request(i * 0.001, 0.0, 0.0));
    Slot s = released(1.0, 1.0);
    s.sent_ns = static_cast<std::int64_t>(i * 1'000'000) + 20'000;  // 20 us late
    slots.push_back(s);
  }
  slots.push_back(Slot{});  // unsent: no lag sample
  plan.push_back(request(1.0, 0.0, 0.0));
  const LagSummary lag = summarise_lag(plan, slots, 1000.0);
  EXPECT_EQ(lag.samples, 100u);
  EXPECT_NEAR(lag.p50_us, 20.0, 1e-6);
  EXPECT_NEAR(lag.p99_us, 20.0, 1e-6);
  EXPECT_FALSE(lag.client_bound);
}

TEST(LagAccounting, AGeneratorThatFallsBehindIsClientBound) {
  std::vector<PlannedRequest> plan;
  std::vector<Slot> slots;
  for (int i = 0; i < 100; ++i) {
    plan.push_back(request(i * 0.0001, 0.0, 0.0));
    Slot s = released(1.0, 1.0);
    // Lag grows by 50 us per request: the generator cannot keep up.
    s.sent_ns = static_cast<std::int64_t>(i * 100'000) + i * 50'000;
    slots.push_back(s);
  }
  const LagSummary lag = summarise_lag(plan, slots, 1000.0);
  EXPECT_TRUE(lag.client_bound);
  EXPECT_GT(lag.p99_us, lag.p50_us);
}

TEST(LagAccounting, ARareStallIsNotClientBound) {
  std::vector<PlannedRequest> plan;
  std::vector<Slot> slots;
  for (int i = 0; i < 100; ++i) {
    plan.push_back(request(i * 0.001, 0.0, 0.0));
    Slot s = released(1.0, 1.0);
    // Two requests caught behind a 5 ms host stall, the rest on time.
    s.sent_ns = static_cast<std::int64_t>(i * 1'000'000) + (i >= 98 ? 5'000'000 : 10'000);
    slots.push_back(s);
  }
  const LagSummary lag = summarise_lag(plan, slots, 1000.0);
  EXPECT_FALSE(lag.client_bound);
  EXPECT_GT(lag.p99_us, 1000.0);
}

}  // namespace
}  // namespace edgebench
