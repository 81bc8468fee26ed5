// Open-loop server SLO bench: the maximum sustainable load of one
// edge_serverd box, and its behavior past saturation -- per admission
// policy.
//
// Protocol:
//   1. Boot an EdgeServer (in-process: same threads + sockets as the
//      daemon, minus process management) with a Zipf-popular synthetic
//      population.
//   2. Climb a geometric rps ladder (x2 per rung). Each rung drives a
//      Poisson open-loop plan and records client-observed latency
//      measured from the SCHEDULED arrival instant -- the offered load
//      never slows down to match the server, so there is no coordinated
//      omission hiding queueing delay.
//   3. Each rung runs its plan kRungRepeats (3) times and is
//      judged on the MEDIAN p99, shed fraction and missing count: host
//      noise alone moves one run's p99 by an order of magnitude, so a
//      single unlucky run must not end the climb. The highest rung whose
//      median p99 meets the SLO with median shed fraction <= 1% is the
//      reported max_sustainable_rps (its median achieved rate); every
//      rung also records the min/max p99 across its repeats.
//   4. A DIURNAL phase replays a time-of-day rate envelope (same mean
//      rate as the sustainable rung, sinusoidal peak/trough) against
//      the same server: diurnal_* keys report the envelope the server
//      actually rode out.
//   5. One final BURSTY overload phase at ~4x the sustainable rate
//      verifies the saturation contract: bounded queues shed
//      deterministically (degraded_dropped), every request is accounted
//      for, and no raw coordinate crosses the wire. The same overload
//      plan then hits a fresh latency-budget server, so the record
//      compares both admission policies (admission_queue_capacity_* vs
//      admission_latency_budget_*) under identical pressure.
//
// Emits BENCH_server_slo.json (per-rung + summaries + the server's
// queue-delay/service-time split) for the perf_guard trajectory.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "net/client.hpp"
#include "net/load_model.hpp"
#include "net/server.hpp"

namespace privlocad {
namespace {

struct StepOutcome {
  double target_rps = 0.0;
  net::OpenLoopStats stats;
  bool sustainable = false;
};

StepOutcome run_plan(std::uint16_t port, const net::LoadPlanConfig& plan_config,
                     std::size_t connections, double slo_p99_us,
                     double max_shed_fraction) {
  const std::vector<net::TimedRequest> plan =
      net::build_open_loop_plan(plan_config);

  net::OpenLoopConfig loop_config;
  loop_config.port = port;
  loop_config.connections = connections;

  StepOutcome outcome;
  outcome.target_rps = plan_config.target_rps;
  util::Result<net::OpenLoopStats> run =
      net::run_open_loop(loop_config, plan);
  if (!run.ok()) {
    std::fprintf(stderr, "open loop failed at %.0f rps: %s\n",
                 plan_config.target_rps, run.status().to_string().c_str());
    return outcome;
  }
  outcome.stats = run.value();
  outcome.sustainable = outcome.stats.responses > 0 &&
                        outcome.stats.missing == 0 &&
                        outcome.stats.latency_p99_us <= slo_p99_us &&
                        outcome.stats.shed_fraction() <= max_shed_fraction;
  return outcome;
}

StepOutcome run_step(std::uint16_t port, double target_rps,
                     double duration_s, std::size_t users,
                     std::size_t connections, std::uint64_t seed,
                     net::ArrivalProcess process, double slo_p99_us,
                     double max_shed_fraction) {
  net::LoadPlanConfig plan_config;
  plan_config.target_rps = target_rps;
  plan_config.duration_s = duration_s;
  plan_config.process = process;
  plan_config.users = users;
  plan_config.seed = seed;
  return run_plan(port, plan_config, connections, slo_p99_us,
                  max_shed_fraction);
}

/// Runs per ladder rung; the rung is judged on their medians.
constexpr std::size_t kRungRepeats = 3;

template <typename T>
T median_of(std::vector<T> values) {
  std::sort(values.begin(), values.end());
  return values[values.size() / 2];
}

/// One rung run kRungRepeats times on the same plan, reduced to the median
/// run's numbers plus the p99 spread.
struct RungOutcome {
  double target_rps = 0.0;
  double achieved_rps = 0.0;  ///< median
  double p50_us = 0.0;        ///< median
  double p99_us = 0.0;        ///< median
  double p99_min_us = 0.0;
  double p99_max_us = 0.0;
  std::uint64_t shed = 0;     ///< median degraded_dropped count
  std::uint64_t missing = 0;  ///< median
  bool sustainable = false;
};

RungOutcome run_rung(std::uint16_t port, double target_rps,
                     double duration_s, std::size_t users,
                     std::size_t connections, std::uint64_t seed,
                     double slo_p99_us, double max_shed_fraction) {
  std::vector<double> achieved, p50, p99, shed_fraction;
  std::vector<std::uint64_t> shed, missing;
  std::size_t with_responses = 0;
  for (std::size_t r = 0; r < kRungRepeats; ++r) {
    const StepOutcome step =
        run_step(port, target_rps, duration_s, users, connections, seed,
                 net::ArrivalProcess::kPoisson, slo_p99_us,
                 max_shed_fraction);
    achieved.push_back(step.stats.achieved_rps);
    p50.push_back(step.stats.latency_p50_us);
    p99.push_back(step.stats.latency_p99_us);
    shed.push_back(step.stats.degraded_dropped);
    shed_fraction.push_back(step.stats.shed_fraction());
    missing.push_back(step.stats.missing);
    if (step.stats.responses > 0) ++with_responses;
  }
  RungOutcome rung;
  rung.target_rps = target_rps;
  rung.achieved_rps = median_of(achieved);
  rung.p50_us = median_of(p50);
  rung.p99_us = median_of(p99);
  rung.p99_min_us = *std::min_element(p99.begin(), p99.end());
  rung.p99_max_us = *std::max_element(p99.begin(), p99.end());
  rung.shed = median_of(shed);
  rung.missing = median_of(missing);
  rung.sustainable = with_responses == kRungRepeats && rung.missing == 0 &&
                     rung.p99_us <= slo_p99_us &&
                     median_of(shed_fraction) <= max_shed_fraction;
  return rung;
}

struct LadderOutcome {
  double sustainable_rps = 0.0;
  double sustainable_p99_us = 0.0;
  std::uint64_t steps = 0;
};

/// Climbs the geometric rps ladder against `port`, kRungRepeats runs
/// per rung, prints one row per rung and emits its step<N>_* keys.
LadderOutcome run_ladder(std::uint16_t port, double min_rps, double max_rps,
                         double duration_s, std::size_t users,
                         std::size_t connections, std::uint64_t seed,
                         double slo_p99_us, double max_shed_fraction,
                         bench::JsonMetrics& metrics) {
  std::printf("\n%10s %10s %10s %10s %10s %10s %10s %8s %6s\n", "target",
              "achieved", "p50_us", "p99_us", "p99_min", "p99_max", "shed",
              "missing", "ok");
  LadderOutcome outcome;
  double first_achieved = 0.0;
  for (double rps = min_rps; rps <= max_rps; rps *= 2.0) {
    const RungOutcome rung =
        run_rung(port, rps, duration_s, users, connections,
                 seed + outcome.steps, slo_p99_us, max_shed_fraction);
    ++outcome.steps;
    const std::string prefix = "step" + std::to_string(outcome.steps);
    metrics.add(prefix + "_target_rps", rung.target_rps);
    metrics.add(prefix + "_achieved_rps", rung.achieved_rps);
    metrics.add(prefix + "_p99_us", rung.p99_us);
    metrics.add(prefix + "_p99_min_us", rung.p99_min_us);
    metrics.add(prefix + "_p99_max_us", rung.p99_max_us);
    metrics.add(prefix + "_shed", rung.shed);
    metrics.add(prefix + "_missing", rung.missing);
    std::printf("%10.0f %10.0f %10.0f %10.0f %10.0f %10.0f %10llu %8llu "
                "%6s\n",
                rung.target_rps, rung.achieved_rps, rung.p50_us, rung.p99_us,
                rung.p99_min_us, rung.p99_max_us,
                static_cast<unsigned long long>(rung.shed),
                static_cast<unsigned long long>(rung.missing),
                rung.sustainable ? "yes" : "NO");
    if (outcome.steps == 1) first_achieved = rung.achieved_rps;
    if (rung.sustainable) {
      outcome.sustainable_rps = rung.achieved_rps;
      outcome.sustainable_p99_us = rung.p99_us;
    } else {
      break;  // the ladder has found the knee
    }
  }
  if (outcome.sustainable_rps == 0.0) {
    // Even the lowest rung missed the SLO (tiny CI boxes): report the
    // first rung's achieved rate so the guard still has a trajectory.
    outcome.sustainable_rps = first_achieved;
  }
  return outcome;
}

std::unique_ptr<net::EdgeServer> make_server(
    const core::EdgeConfig& edge_config,
    const net::ServerConfig& server_config) {
  util::Result<std::unique_ptr<net::EdgeServer>> created =
      net::EdgeServer::create(edge_config, server_config);
  if (!created.ok()) {
    std::fprintf(stderr, "server create failed: %s\n",
                 created.status().to_string().c_str());
    return nullptr;
  }
  std::unique_ptr<net::EdgeServer> server = std::move(created.value());
  if (util::Status s = server->start(); !s.ok()) {
    std::fprintf(stderr, "server start failed: %s\n",
                 s.to_string().c_str());
    return nullptr;
  }
  return server;
}

}  // namespace
}  // namespace privlocad

int main(int argc, char** argv) {
  using namespace privlocad;

  const std::uint64_t users = bench::flag_or(argc, argv, "users", 2000);
  const std::uint64_t workers = bench::flag_or(argc, argv, "workers", 2);
  const std::uint64_t queue_capacity =
      bench::flag_or(argc, argv, "queue-capacity", 256);
  const std::uint64_t connections =
      bench::flag_or(argc, argv, "connections", 4);
  const std::uint64_t min_rps = bench::flag_or(argc, argv, "min-rps", 500);
  const std::uint64_t max_rps =
      bench::flag_or(argc, argv, "max-rps", 64000);
  const std::uint64_t step_ms = bench::flag_or(argc, argv, "step-ms", 1000);
  const std::uint64_t slo_p99_us =
      bench::flag_or(argc, argv, "slo-p99-us", 20000);
  const std::uint64_t overload_factor =
      bench::flag_or(argc, argv, "overload-factor", 4);
  const std::uint64_t seed = bench::flag_or(argc, argv, "seed", 1);
  const double max_shed_fraction = 0.01;

  bench::print_header(
      "Open-loop server SLO: max sustainable load of one edge box");
  std::printf("users=%llu workers=%llu queue=%llu conns=%llu "
              "SLO p99 <= %llu us, shed <= %.0f%%\n",
              static_cast<unsigned long long>(users),
              static_cast<unsigned long long>(workers),
              static_cast<unsigned long long>(queue_capacity),
              static_cast<unsigned long long>(connections),
              static_cast<unsigned long long>(slo_p99_us),
              max_shed_fraction * 100.0);

  core::EdgeConfig edge_config;
  edge_config.seed = seed;
  edge_config.shards = 4;

  const net::ServerConfig base_config =
      net::ServerConfig{}
          .with_workers(static_cast<std::size_t>(workers))
          .with_queue_capacity(static_cast<std::size_t>(queue_capacity));

  std::unique_ptr<net::EdgeServer> server =
      make_server(edge_config, base_config);
  if (server == nullptr) return 1;

  const double duration_s = static_cast<double>(step_ms) / 1000.0;
  bench::JsonMetrics metrics;
  metrics.add_string("bench", "server_slo");
  metrics.add("users", users);
  metrics.add("workers", workers);
  metrics.add("queue_capacity", queue_capacity);
  metrics.add("slo_p99_us", slo_p99_us);
  metrics.add_string("backend",
                     net::io_backend_kind_name(server->backend_kind()));

  const LadderOutcome ladder = run_ladder(
      server->port(), static_cast<double>(min_rps),
      static_cast<double>(max_rps), duration_s,
      static_cast<std::size_t>(users), static_cast<std::size_t>(connections),
      seed, static_cast<double>(slo_p99_us), max_shed_fraction, metrics);
  metrics.add("steps", ladder.steps);
  metrics.add("max_sustainable_rps", ladder.sustainable_rps);
  metrics.add("max_sustainable_p99_us", ladder.sustainable_p99_us);

  // Diurnal phase: a time-of-day envelope at the sustainable MEAN rate
  // (one full synthetic day over the phase). The server should ride the
  // peak without missing responses; the record keeps the envelope it was
  // actually offered.
  net::LoadPlanConfig diurnal_config;
  diurnal_config.target_rps =
      std::max(ladder.sustainable_rps, static_cast<double>(min_rps));
  diurnal_config.duration_s = duration_s;
  diurnal_config.process = net::ArrivalProcess::kDiurnal;
  diurnal_config.diurnal_period_s = duration_s;
  diurnal_config.users = static_cast<std::size_t>(users);
  diurnal_config.seed = seed + 500;
  const double diurnal_peak_rps = net::diurnal_rate_rps(
      diurnal_config, 0.25 * diurnal_config.diurnal_period_s);
  const double diurnal_trough_rps = net::diurnal_rate_rps(
      diurnal_config, 0.75 * diurnal_config.diurnal_period_s);
  const StepOutcome diurnal = run_plan(
      server->port(), diurnal_config, static_cast<std::size_t>(connections),
      static_cast<double>(slo_p99_us), max_shed_fraction);
  std::printf("\ndiurnal (mean %.0f rps, peak %.0f, trough %.0f): achieved "
              "%.0f rps, p99 %.0f us, shed %.1f%%, missing %llu\n",
              diurnal_config.target_rps, diurnal_peak_rps,
              diurnal_trough_rps, diurnal.stats.achieved_rps,
              diurnal.stats.latency_p99_us,
              diurnal.stats.shed_fraction() * 100.0,
              static_cast<unsigned long long>(diurnal.stats.missing));
  metrics.add("diurnal_offered_rps", diurnal.stats.offered_rps);
  metrics.add("diurnal_achieved_rps", diurnal.stats.achieved_rps);
  metrics.add("diurnal_peak_rps", diurnal_peak_rps);
  metrics.add("diurnal_trough_rps", diurnal_trough_rps);
  metrics.add("diurnal_p99_us", diurnal.stats.latency_p99_us);
  metrics.add("diurnal_shed_fraction", diurnal.stats.shed_fraction());
  metrics.add("diurnal_missing", diurnal.stats.missing);

  // Overload phase: bursty arrivals at overload_factor times the
  // sustainable rate. The contract under test: no crash, bounded queues
  // (sheds counted as degraded_dropped), full accounting, zero leaks.
  const double overload_rps =
      ladder.sustainable_rps * static_cast<double>(overload_factor);
  const StepOutcome overload = run_step(
      server->port(), overload_rps, duration_s,
      static_cast<std::size_t>(users),
      static_cast<std::size_t>(connections), seed + 1000,
      net::ArrivalProcess::kBursty, static_cast<double>(slo_p99_us),
      max_shed_fraction);
  std::printf("\noverload (bursty, %.0fx): offered %.0f rps, achieved "
              "%.0f rps, p99 %.0f us, shed %llu (%.1f%%), leaks %llu, "
              "missing %llu\n",
              static_cast<double>(overload_factor),
              overload.stats.offered_rps, overload.stats.achieved_rps,
              overload.stats.latency_p99_us,
              static_cast<unsigned long long>(
                  overload.stats.degraded_dropped),
              overload.stats.shed_fraction() * 100.0,
              static_cast<unsigned long long>(overload.stats.raw_leaks),
              static_cast<unsigned long long>(overload.stats.missing));
  metrics.add("overload_offered_rps", overload.stats.offered_rps);
  metrics.add("overload_achieved_rps", overload.stats.achieved_rps);
  metrics.add("overload_p99_us", overload.stats.latency_p99_us);
  metrics.add("overload_shed_fraction", overload.stats.shed_fraction());
  metrics.add("overload_degraded_dropped",
              overload.stats.degraded_dropped);
  metrics.add("overload_raw_leaks", overload.stats.raw_leaks);
  metrics.add("overload_responses", overload.stats.responses);
  metrics.add("overload_missing", overload.stats.missing);

  // Admission-policy comparison: the SAME bursty overload plan against a
  // fresh latency-budget server (budget = the SLO p99). The first
  // server's overload above is the queue-capacity column; this is the
  // latency-budget one. Projected-delay shedding should hold queue delay
  // near the budget instead of letting the full queue depth build.
  metrics.add("admission_queue_capacity_achieved_rps",
              overload.stats.achieved_rps);
  metrics.add("admission_queue_capacity_p99_us",
              overload.stats.latency_p99_us);
  metrics.add("admission_queue_capacity_shed_fraction",
              overload.stats.shed_fraction());
  std::unique_ptr<net::EdgeServer> budget_server = make_server(
      edge_config,
      base_config.with_admission(net::AdmissionPolicy::kLatencyBudget)
          .with_latency_budget_us(static_cast<std::uint32_t>(slo_p99_us)));
  if (budget_server == nullptr) return 1;
  const StepOutcome budget_overload = run_step(
      budget_server->port(), overload_rps, duration_s,
      static_cast<std::size_t>(users),
      static_cast<std::size_t>(connections), seed + 1000,
      net::ArrivalProcess::kBursty, static_cast<double>(slo_p99_us),
      max_shed_fraction);
  budget_server->stop();
  std::printf("admission: queue_capacity p99 %.0f us shed %.1f%% | "
              "latency_budget p99 %.0f us shed %.1f%% (missing %llu)\n",
              overload.stats.latency_p99_us,
              overload.stats.shed_fraction() * 100.0,
              budget_overload.stats.latency_p99_us,
              budget_overload.stats.shed_fraction() * 100.0,
              static_cast<unsigned long long>(
                  budget_overload.stats.missing));
  metrics.add("admission_latency_budget_achieved_rps",
              budget_overload.stats.achieved_rps);
  metrics.add("admission_latency_budget_p99_us",
              budget_overload.stats.latency_p99_us);
  metrics.add("admission_latency_budget_shed_fraction",
              budget_overload.stats.shed_fraction());
  metrics.add("admission_latency_budget_missing",
              budget_overload.stats.missing);

  // The server-side latency split: time queued vs time serving.
  bench::add_latency_percentiles(
      metrics, "net_queue_delay_us",
      server->metrics().histogram(net::net_metrics::kQueueDelayUs));
  bench::add_latency_percentiles(
      metrics, "net_service_time_us",
      server->metrics().histogram(net::net_metrics::kServiceTimeUs));

  server->stop();

  if (overload.stats.raw_leaks != 0 ||
      budget_overload.stats.raw_leaks != 0) {
    std::fprintf(stderr, "FAIL: raw coordinates leaked under overload\n");
    return 1;
  }
  if (overload.stats.responses + overload.stats.missing !=
          overload.stats.sent ||
      budget_overload.stats.responses + budget_overload.stats.missing !=
          budget_overload.stats.sent) {
    std::fprintf(stderr, "FAIL: requests unaccounted for\n");
    return 1;
  }
  return bench::emit_json("BENCH_server_slo.json", metrics) ? 0 : 1;
}
