// One benchmark run: set-up, the workload's phases, the output checks and
// the metrics they yield.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "checks.hpp"
#include "generator.hpp"
#include "net/io_backend.hpp"
#include "net/server.hpp"
#include "workload.hpp"

namespace edgebench {

/// Fixed by the benchmark; a later change that claims a gain runs against
/// the same numbers.
inline constexpr std::size_t kWorkers = 2;
inline constexpr std::size_t kConnections = 4;
inline constexpr double kLightRps = 8000.0;
inline constexpr double kHeavyRps = 128000.0;
/// burst_overload's stress phase: on/off arrivals whose mean stays below
/// the knee while the on-phase rate is well above it.
inline constexpr double kBurstRps = 256000.0;
/// A request answered later than this after its due time missed.
inline constexpr double kLatencyLimitUs = 50000.0;
/// A phase whose p90 schedule lag exceeds this measured the generator.
inline constexpr double kLagBoundUs = 1000.0;
/// How long a phase waits for stragglers after its last due send.
inline constexpr double kDrainTimeoutS = 5.0;
/// Set-ups per run: at least kMinSetups, and more until they have taken
/// kSetupBudgetS, so a short set-up is sampled as often as a long one is
/// steady. setup_s is their median.
inline constexpr std::size_t kMinSetups = 5;
inline constexpr double kSetupBudgetS = 2.0;
/// Windows per fixed-rate phase.
inline constexpr std::size_t kWindows = 8;
/// Knee-search rungs per run, retries included, and attempts per rate.
inline constexpr std::size_t kRungAttempts = 16;
inline constexpr std::size_t kRungTries = 3;

struct RunConfig {
  WorkloadKind kind = WorkloadKind::kSteadyTop;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  std::string snapshot;
  std::string spans_dir;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunReport {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// Human-readable lines printed before the result.
  std::vector<std::string> lines;
  privlocad::net::IoBackendKind backend = privlocad::net::IoBackendKind::kEpoll;

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  /// Appends a printf-formatted line to `lines`.
  void note(const char* format, ...) __attribute__((format(printf, 2, 3)));
  /// The result line: {"correct", "attempted", "failed", "metrics"}.
  std::string to_json() const;
};

/// A live box: the server on the prepared snapshot and a connected
/// generator.
struct Box {
  std::unique_ptr<privlocad::net::EdgeServer> server;
  std::unique_ptr<Generator> generator;
  double open_s = 0.0;   ///< ConcurrentEdge::open_snapshot alone
  double setup_s = 0.0;  ///< open + server create/start + connect
};

/// Sets up a box on `snapshot`.
privlocad::util::Result<Box> set_up(std::uint64_t seed,
                                    const std::string& snapshot);

/// Sets up boxes in turn (kMinSetups, kSetupBudgetS), keeps the last, and
/// returns the medians of their set-up and snapshot-open times.
privlocad::util::Result<Box> set_up_repeated(const RunConfig& config,
                                             double& setup_median_s,
                                             double& open_median_s);

/// Everything one phase yields for the metrics.
struct PhaseStats {
  Accounting accounting;
  LagSummary lag;
  std::uint64_t leaks = 0;
  std::uint64_t stray = 0;
  std::uint64_t wire_errors = 0;
  std::uint64_t dead_connections = 0;
  double p50_us = 0.0;
  double p90_us = 0.0;
  double p99_us = 0.0;
  double released_p99_us = 0.0;
  double goodput_rps = 0.0;
  double fail_frac = 0.0;
  double cpu_us_per_req = 0.0;
  double sends_per_wake = 0.0;
  bool backlog_growing = false;

  /// Meets the limit with at most 1% failing, without a growing backlog
  /// and without the generator falling behind.
  bool passes() const {
    return !lag.client_bound && !backlog_growing && fail_frac <= 0.01 &&
           accounting.missing == 0;
  }
};

PhaseStats summarise(const std::vector<PlannedRequest>& plan,
                     const PhaseResult& result, double duration_s);

/// The run-wide output checks, fed one phase at a time.
class RunChecks {
 public:
  explicit RunChecks(WorkloadKind kind) : kind_(kind) {}
  void add(const std::vector<PlannedRequest>& plan, const PhaseResult& result,
           const PhaseStats& stats);
  /// Records the verdict and its line in `report`.
  void finish(RunReport& report) const;

 private:
  WorkloadKind kind_;
  PermanenceAudit permanence_;
  Accounting total_{};
  std::uint64_t leaks_ = 0;
  std::uint64_t stray_ = 0;
  std::uint64_t wire_errors_ = 0;
  std::uint64_t dead_connections_ = 0;
  bool balanced_ = true;
};

/// How a run of `seconds` spends its time.
struct Schedule {
  explicit Schedule(double seconds)
      : warm_s(0.05 * seconds),
        light_s(0.04 * seconds),
        heavy_s(0.05 * seconds),
        burst_s(0.1 * seconds),
        rung_s(0.04 * seconds) {}
  double warm_s;
  double light_s;  ///< one light window
  double heavy_s;  ///< one heavy window, or a traced run's burst window
  /// One burst window of an untraced run: twice a heavy one, because
  /// burst goodput is gated and moves with the host more than the rest.
  double burst_s;
  double rung_s;  ///< one knee-search rung (traced runs)
};

/// One phase as planned, as driven, and as summarised.
struct Phase {
  std::vector<PlannedRequest> plan;
  PhaseResult result;
  PhaseStats stats;
};

/// Plans `spec`, drives it and folds the outcome into `checks`.
privlocad::util::Result<Phase> run_phase(Planner& planner, Generator& generator,
                                         const PhaseSpec& spec, RunChecks& checks,
                                         const std::function<void()>& tick = {});

/// One line per phase in the report.
void note_phase(RunReport& report, const char* name, double rate,
                const PhaseStats& stats);

/// A fixed-rate phase summarised over its windows.
struct Window {
  double p50_us = 0.0;
  double p99_us = 0.0;
  double released_p99_us = 0.0;
  double lag_p50_us = 0.0;
  double lag_p99_us = 0.0;
  double goodput_rps = 0.0;
  double fail_frac = 0.0;
  double cpu_us_per_req = 0.0;
  double sends_per_wake = 0.0;
  bool client_bound = false;
};

/// The p50 is the lowest window median and the other percentiles are
/// medians over the windows, so a host stall that hits a few windows does
/// not decide the run; rates and costs are means.
Window summarise_windows(const std::vector<PhaseStats>& windows);

/// Peak resident set size of this process so far.
double peak_rss_mb();

/// The knee: climbs x2 from 128k rps until a rung fails, then bisects
/// geometrically between the last pass and the first failure. A rate
/// fails only when all kRungTries attempts at it fail: host stalls only
/// ever fail rungs, so one passing attempt shows what the box can do.
/// Returns the offered rate measured on the highest passing rung.
privlocad::util::Result<double> find_knee(Planner& planner, Generator& generator,
                                          const Schedule& schedule, bool bursty,
                                          RunChecks& checks, RunReport& report);

privlocad::util::Result<RunReport> run_untraced(const RunConfig& config,
                                                const Sidecar& sidecar);
privlocad::util::Result<RunReport> run_traced(const RunConfig& config,
                                              const Sidecar& sidecar);

}  // namespace edgebench
