// Serving-path conformance suite (ctest label: net_backend).
//
// The contract under test: the IO layer is a TRANSPORT, not a policy
// layer. The same seeds produce the same served/shed/degraded
// partitions and bit-identical response frames, with or without an
// injected fault schedule. The deterministic cases pin an FNV-1a digest
// of the full response stream, so any change to the IO path that moves
// one observable byte fails here. The suite is also the TSan target for
// the IO thread: it exercises accept, framing, admission, worker
// handoff, backpressure, and teardown.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/edge_device.hpp"
#include "core/snapshot.hpp"
#include "fault/fault.hpp"
#include "net/admission.hpp"
#include "net/client.hpp"
#include "net/load_model.hpp"
#include "net/server.hpp"
#include "trace/check_in.hpp"

namespace privlocad {
namespace {

std::unique_ptr<net::EdgeServer> boot(const core::EdgeConfig& edge_config,
                                      const net::ServerConfig& config) {
  util::Result<std::unique_ptr<net::EdgeServer>> created =
      net::EdgeServer::create(edge_config, config);
  EXPECT_TRUE(created.ok()) << created.status().to_string();
  if (!created.ok()) return nullptr;
  std::unique_ptr<net::EdgeServer> server = std::move(created.value());
  const util::Status started = server->start();
  EXPECT_TRUE(started.ok()) << started.to_string();
  if (!started.ok()) return nullptr;
  return server;
}

/// One response frame, every field bit-exact (double coordinates
/// compared through their bit patterns, so -0.0 vs 0.0 or NaN payload
/// differences cannot hide behind operator==).
struct ResponseRecord {
  std::uint64_t request_id = 0;
  std::uint8_t outcome = 0;
  std::uint8_t kind = 0;
  std::uint8_t status_code = 0;
  std::uint8_t released = 0;
  std::uint32_t retries = 0;
  std::uint64_t x_bits = 0;
  std::uint64_t y_bits = 0;
};

ResponseRecord record_of(const net::ServeResponseFrame& frame) {
  ResponseRecord record;
  record.request_id = frame.request_id;
  record.outcome = frame.outcome;
  record.kind = frame.kind;
  record.status_code = frame.status_code;
  record.released = frame.released;
  record.retries = frame.retries;
  record.x_bits = std::bit_cast<std::uint64_t>(frame.x);
  record.y_bits = std::bit_cast<std::uint64_t>(frame.y);
  return record;
}

/// FNV-1a over every field of every record, in stream order (field by
/// field, so struct padding never enters the digest).
std::uint64_t stream_digest(const std::vector<ResponseRecord>& records) {
  std::uint64_t h = core::snapshot::kFnvOffsetBasis;
  const auto add = [&h](auto value) {
    h = core::snapshot::fnv1a64(&value, sizeof(value), h);
  };
  for (const ResponseRecord& r : records) {
    add(r.request_id);
    add(r.outcome);
    add(r.kind);
    add(r.status_code);
    add(r.released);
    add(r.retries);
    add(r.x_bits);
    add(r.y_bits);
  }
  return h;
}

net::ServeRequestFrame conformance_request(std::uint64_t i) {
  net::ServeRequestFrame request;
  request.request_id = i;
  request.user_id = 1 + (i % 8);
  request.x = 1000.0 + static_cast<double>(i % 8) * 10.0 +
              static_cast<double>(i % 5);
  request.y = 2000.0 + static_cast<double>(i % 3);
  request.time = trace::kStudyStart + static_cast<std::int64_t>(i);
  return request;
}

/// Drives `n` sequential requests through one connection against a
/// fresh server and returns the full response stream.
std::vector<ResponseRecord> drive_sequential(std::uint64_t n,
                                             fault::FaultInjector* faults,
                                             std::size_t workers) {
  core::EdgeConfig edge_config;
  edge_config.seed = 11;
  edge_config.shards = 4;
  edge_config.faults = faults;
  std::unique_ptr<net::EdgeServer> server =
      boot(edge_config, net::ServerConfig{}.with_workers(workers));
  if (server == nullptr) return {};

  util::Result<net::BlockingClient> client =
      net::BlockingClient::connect(server->port());
  EXPECT_TRUE(client.ok()) << client.status().to_string();
  if (!client.ok()) return {};

  std::vector<ResponseRecord> records;
  records.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    util::Result<net::ServeResponseFrame> response =
        client->call(conformance_request(i));
    EXPECT_TRUE(response.ok()) << response.status().to_string();
    if (!response.ok()) break;
    records.push_back(record_of(response.value()));
  }
  server->stop();
  return records;
}

// The three golden digests below were recorded on the epoll serving
// path while a second IO engine (io_uring) still shipped and matched it
// stream for stream; they freeze that cross-engine agreement.

TEST(BackendConformance, SameSeedsYieldBitIdenticalResponseStreams) {
  const std::vector<ResponseRecord> stream =
      drive_sequential(96, nullptr, 2);
  ASSERT_EQ(stream.size(), 96u);
  EXPECT_EQ(stream_digest(stream), 0xfe23ead8a02cc182ULL)
      << std::hex << stream_digest(stream);
}

TEST(BackendConformance, FaultScheduleYieldsIdenticalOutcomePartitions) {
  // A seeded fault plan at the serve site: workers=1 + one sequential
  // connection fixes the arrival order, so the i-th serve draws the same
  // decision every run, and retries, degraded fallbacks, and drops land
  // on the SAME requests with the same wire bytes.
  util::Result<fault::FaultPlan> plan =
      fault::FaultPlan::parse("seed=42;serve:p=0.3");
  ASSERT_TRUE(plan.ok()) << plan.status().to_string();
  fault::FaultInjector injector(plan.value());
  const std::vector<ResponseRecord> stream =
      drive_sequential(64, &injector, 1);
  ASSERT_EQ(stream.size(), 64u);

  std::uint64_t not_plain_served = 0;
  for (const ResponseRecord& record : stream) {
    if (record.outcome !=
        static_cast<std::uint8_t>(core::ServeOutcome::kServed)) {
      ++not_plain_served;
    }
  }
  EXPECT_GT(not_plain_served, 0u)
      << "fault plan injected nothing; the conformance check is vacuous";
  EXPECT_EQ(stream_digest(stream), 0x9fd14ca2c20c7e54ULL)
      << std::hex << stream_digest(stream);
}

TEST(BackendConformance, ShedPartitionIsDeterministicAcrossBackends) {
  // workers=1, capacity=1, slow service: request 0 occupies the worker,
  // request 1 the queue slot, and every later request MUST shed at push.
  // The partition is then a pure function of the request order -- and
  // shed responses must carry zeroed coordinates (fail private on the
  // wire).
  core::EdgeConfig edge_config;
  edge_config.seed = 11;
  edge_config.shards = 2;
  std::unique_ptr<net::EdgeServer> server =
      boot(edge_config, net::ServerConfig{}
                            .with_workers(1)
                            .with_queue_capacity(1)
                            .with_service_delay_us(200000));
  ASSERT_NE(server, nullptr);
  util::Result<net::BlockingClient> client =
      net::BlockingClient::connect(server->port());
  ASSERT_TRUE(client.ok()) << client.status().to_string();

  EXPECT_TRUE(client->send(conformance_request(0)).ok());
  // Let the worker pop request 0 into its 200 ms service delay so the
  // queue slot is empty when the burst below lands.
  std::this_thread::sleep_for(std::chrono::milliseconds(120));
  for (std::uint64_t i = 1; i <= 12; ++i) {
    EXPECT_TRUE(client->send(conformance_request(i)).ok());
  }
  std::map<std::uint64_t, ResponseRecord> by_id;
  for (int i = 0; i < 13; ++i) {
    util::Result<net::ServeResponseFrame> response = client->receive();
    EXPECT_TRUE(response.ok()) << response.status().to_string();
    if (!response.ok()) break;
    by_id[response->request_id] = record_of(response.value());
  }
  server->stop();

  ASSERT_EQ(by_id.size(), 13u);
  std::vector<ResponseRecord> partition;
  for (const auto& [id, record] : by_id) {
    if (id <= 1) {
      EXPECT_NE(record.outcome,
                static_cast<std::uint8_t>(
                    core::ServeOutcome::kDegradedDropped))
          << "admitted request " << id << " was shed";
    } else {
      EXPECT_EQ(record.outcome,
                static_cast<std::uint8_t>(
                    core::ServeOutcome::kDegradedDropped))
          << "request " << id << " escaped the full queue";
      EXPECT_EQ(record.released, 0u);
      EXPECT_EQ(record.x_bits, 0u);
      EXPECT_EQ(record.y_bits, 0u);
    }
    partition.push_back(record);
  }
  EXPECT_EQ(stream_digest(partition), 0x60d5176cff71a5cdULL)
      << std::hex << stream_digest(partition);
}

TEST(BackendConformance, LatencyBudgetAccountsEveryRequestUnderOverload) {
  // 4x overload against the latency-budget policy: projected-delay
  // shedding must keep PR 8's at-push accounting -- every request that
  // went out comes back as exactly one response (served or shed), with
  // nothing missing and nothing leaked.
  core::EdgeConfig edge_config;
  edge_config.seed = 11;
  edge_config.shards = 4;
  std::unique_ptr<net::EdgeServer> server =
      boot(edge_config,
           net::ServerConfig{}
               .with_workers(2)
               .with_queue_capacity(256)
               .with_service_delay_us(500)
               .with_admission(net::AdmissionPolicy::kLatencyBudget)
               .with_latency_budget_us(2000));
  ASSERT_NE(server, nullptr);

  // 2 workers x 500 us/service caps throughput near 4000 rps; offer
  // 4x that.
  net::LoadPlanConfig plan_config;
  plan_config.target_rps = 16000.0;
  plan_config.duration_s = 0.25;
  plan_config.users = 64;
  plan_config.seed = 77;
  net::OpenLoopConfig loop_config;
  loop_config.port = server->port();
  loop_config.connections = 4;
  util::Result<net::OpenLoopStats> run = net::run_open_loop(
      loop_config, net::build_open_loop_plan(plan_config));
  ASSERT_TRUE(run.ok()) << run.status().to_string();
  const net::OpenLoopStats& stats = run.value();
  server->stop();

  EXPECT_EQ(stats.missing, 0u);
  EXPECT_EQ(stats.responses, stats.sent);
  EXPECT_EQ(stats.served + stats.served_after_retry + stats.degraded_cached +
                stats.degraded_dropped + stats.failed,
            stats.responses);
  EXPECT_GT(stats.degraded_dropped, 0u)
      << "4x overload shed nothing; the budget is not binding";
  EXPECT_EQ(stats.raw_leaks, 0u);
  EXPECT_EQ(stats.wire_errors, 0u);
}

TEST(BackendConformance, StartAfterStopIsATypedErrorOnEveryBackend) {
  // stop() closes the listen socket and the eventfd and tears the IO
  // backend down; a restart must be refused, not served on dead fds.
  std::unique_ptr<net::EdgeServer> server =
      boot(core::EdgeConfig{}, net::ServerConfig{});
  ASSERT_NE(server, nullptr);
  server->stop();
  const util::Status restarted = server->start();
  EXPECT_EQ(restarted.code(), util::ErrorCode::kFailedPrecondition)
      << restarted.to_string();
  server->stop();  // still a harmless no-op
}

TEST(BackendConformance, PipelinedStressAnswersEveryRequestExactlyOnce) {
  // Lost-wakeup stress for the coalesced completion wake-up: 4 workers
  // finishing concurrently, 4 connections, 24k requests offered far
  // faster than they are served. Queues are deep enough that nothing
  // sheds, so every response crosses the worker -> IO thread hand-off.
  // A completion stranded without a wake-up would show as a missing
  // response or a duplicate (wire_errors).
  core::EdgeConfig edge_config;
  edge_config.seed = 11;
  edge_config.shards = 4;
  std::unique_ptr<net::EdgeServer> server = boot(
      edge_config,
      net::ServerConfig{}.with_workers(4).with_queue_capacity(1 << 15));
  ASSERT_NE(server, nullptr);

  net::LoadPlanConfig plan_config;
  plan_config.target_rps = 400000.0;
  plan_config.duration_s = 0.06;
  plan_config.users = 64;
  plan_config.seed = 5;
  const std::vector<net::TimedRequest> plan =
      net::build_open_loop_plan(plan_config);
  ASSERT_GE(plan.size(), 20000u);
  net::OpenLoopConfig loop_config;
  loop_config.port = server->port();
  loop_config.connections = 4;
  loop_config.drain_timeout_s = 30.0;
  util::Result<net::OpenLoopStats> run = net::run_open_loop(loop_config, plan);
  ASSERT_TRUE(run.ok()) << run.status().to_string();
  const net::OpenLoopStats& stats = run.value();
  server->stop();

  EXPECT_EQ(stats.sent, plan.size());
  EXPECT_EQ(stats.missing, 0u);
  EXPECT_EQ(stats.wire_errors, 0u);  // no duplicate or unknown id
  EXPECT_EQ(stats.responses, stats.sent);
  EXPECT_EQ(stats.degraded_dropped, 0u);
  const obs::MetricsRegistry& metrics = server->metrics();
  const std::uint64_t responses =
      metrics.counter_value(net::net_metrics::kResponses);
  const std::uint64_t wakeups =
      metrics.counter_value(net::net_metrics::kCompletionWakeups);
  EXPECT_EQ(responses, stats.sent);
  EXPECT_GT(wakeups, 0u);
  EXPECT_LE(wakeups, responses);
  ::testing::Test::RecordProperty(
      "wakeups_per_response",
      std::to_string(static_cast<double>(wakeups) /
                     static_cast<double>(responses)));
}

TEST(BackendConformance, ClosedLoopCompletionsWakeTheIoThreadPromptly) {
  // The other half of the lost-wakeup check. Under pipelined load new
  // requests keep waking the IO thread, and its 50 ms poll tick drains a
  // stranded completion anyway, so a lost wake-up only shows as latency.
  // Here one connection waits for each answer before sending again, so
  // nothing but the completion wake-up can end the IO thread's wait;
  // successive users land on different workers, so the wake-pending
  // flag passes between them.
  std::unique_ptr<net::EdgeServer> server =
      boot(core::EdgeConfig{}, net::ServerConfig{}.with_workers(4));
  ASSERT_NE(server, nullptr);
  util::Result<net::BlockingClient> client =
      net::BlockingClient::connect(server->port());
  ASSERT_TRUE(client.ok()) << client.status().to_string();

  std::vector<double> round_trips_us;
  for (std::uint64_t i = 0; i < 200; ++i) {
    const auto sent = std::chrono::steady_clock::now();
    ASSERT_TRUE(client->call(conformance_request(i)).ok());
    round_trips_us.push_back(std::chrono::duration<double, std::micro>(
                                 std::chrono::steady_clock::now() - sent)
                                 .count());
  }
  server->stop();

  const auto median = round_trips_us.begin() + round_trips_us.size() / 2;
  std::nth_element(round_trips_us.begin(), median, round_trips_us.end());
  // Half the poll tick: only wake-ups the IO thread never got push the
  // median toward 50 ms.
  EXPECT_LT(*median, 25000.0);
}

}  // namespace
}  // namespace privlocad
