#include "runner.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdarg>
#include <cstdio>

namespace edgebench {

namespace net = privlocad::net;
namespace util = privlocad::util;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

/// The knee search starts here and doubles until a rung fails.
constexpr double kLadderStartRps = 128000.0;
/// A request that was refused, failed or never answered counts as this
/// late in the latency percentiles: it missed every limit.
constexpr double kMissedUs = kDrainTimeoutS * 1e6;

}  // namespace

void RunReport::note(const char* format, ...) {
  char buffer[1024];
  va_list args;
  va_start(args, format);
  std::vsnprintf(buffer, sizeof(buffer), format, args);
  va_end(args);
  lines.emplace_back(buffer);
}

std::string RunReport::to_json() const {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(metrics[i].value) ? metrics[i].value : 0.0);
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + value +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  return out;
}

util::Result<Box> set_up(std::uint64_t seed,
                         const std::string& snapshot) {
  Box box;
  const Clock::time_point t0 = Clock::now();
  util::Result<std::unique_ptr<net::EdgeServer>> created = net::EdgeServer::create(
      edge_config(seed), net::ServerConfig{}.with_workers(kWorkers));
  if (!created.ok()) return created.status();
  box.server = std::move(created.value());
  const Clock::time_point open_start = Clock::now();
  if (util::Status s = box.server->edge().open_snapshot(snapshot); !s.ok()) return s;
  box.open_s = seconds_since(open_start);
  if (util::Status s = box.server->start(); !s.ok()) return s;
  util::Result<std::unique_ptr<Generator>> generator =
      Generator::connect(box.server->port(), kConnections);
  if (!generator.ok()) return generator.status();
  box.generator = std::move(generator.value());
  box.setup_s = seconds_since(t0);
  return box;
}

util::Result<Box> set_up_repeated(const RunConfig& config, double& setup_median_s,
                                  double& open_median_s) {
  std::vector<double> setups;
  std::vector<double> opens;
  double total_s = 0.0;
  Box box;
  while (setups.size() < kMinSetups || total_s < kSetupBudgetS) {
    box = Box{};
    util::Result<Box> next = set_up(config.seed, config.snapshot);
    if (!next.ok()) return next.status();
    box = std::move(next.value());
    setups.push_back(box.setup_s);
    opens.push_back(box.open_s);
    total_s += box.setup_s;
  }
  setup_median_s = quantile(setups, 0.5);
  open_median_s = quantile(opens, 0.5);
  return box;
}

PhaseStats summarise(const std::vector<PlannedRequest>& plan,
                     const PhaseResult& result, double duration_s) {
  PhaseStats s;
  s.accounting = account(result.slots);
  s.leaks = count_raw_leaks(plan, result.slots);
  s.lag = summarise_lag(plan, result.slots, kLagBoundUs);
  s.stray = result.stray;
  s.wire_errors = result.wire_errors;
  s.dead_connections = result.dead_connections;

  std::vector<double> all;
  std::vector<double> released;
  all.reserve(result.slots.size());
  released.reserve(result.slots.size());
  std::uint64_t within = 0;
  std::uint64_t answered = 0;
  for (std::size_t i = 0; i < result.slots.size(); ++i) {
    const Slot& slot = result.slots[i];
    if (slot.state == SlotState::kUnsent) continue;
    double latency_us = kMissedUs;
    if (slot.state == SlotState::kAnswered) {
      ++answered;
      if (slot.released != 0) {
        latency_us =
            (static_cast<double>(slot.answered_ns) - plan[i].at_s * 1e9) / 1e3;
        released.push_back(latency_us);
        if (latency_us <= kLatencyLimitUs) ++within;
      }
    }
    all.push_back(latency_us);
  }
  s.p50_us = quantile(all, 0.50);
  s.p90_us = quantile(all, 0.90);
  s.p99_us = quantile(all, 0.99);
  s.released_p99_us = quantile(released, 0.99);
  s.goodput_rps = static_cast<double>(within) / duration_s;
  s.fail_frac = all.empty() ? 0.0
                            : static_cast<double>(all.size() - within) /
                                  static_cast<double>(all.size());
  s.cpu_us_per_req =
      answered == 0 ? 0.0
                    : (result.process_cpu_s - result.generator_cpu_s) * 1e6 /
                          static_cast<double>(answered);
  s.sends_per_wake = result.send_wakes == 0
                         ? 0.0
                         : static_cast<double>(result.sends) /
                               static_cast<double>(result.send_wakes);
  // A backlog that grows through the phase shows as a last quarter far
  // slower than the first.
  const std::size_t quarter = all.size() / 4;
  if (quarter > 0) {
    const double first = quantile({all.begin(), all.begin() + static_cast<std::ptrdiff_t>(quarter)}, 0.5);
    const double last = quantile({all.end() - static_cast<std::ptrdiff_t>(quarter), all.end()}, 0.5);
    s.backlog_growing = last > 4.0 * std::max(first, 100.0);
  }
  return s;
}

void RunChecks::add(const std::vector<PlannedRequest>& plan,
                    const PhaseResult& result, const PhaseStats& stats) {
  total_.sent += stats.accounting.sent;
  total_.released += stats.accounting.released;
  total_.shed += stats.accounting.shed;
  total_.dropped += stats.accounting.dropped;
  total_.failed += stats.accounting.failed;
  total_.missing += stats.accounting.missing;
  total_.lost += stats.accounting.lost;
  balanced_ = balanced_ && stats.accounting.balanced();
  leaks_ += stats.leaks;
  stray_ += stats.stray;
  wire_errors_ += stats.wire_errors;
  // Connections stay dead across phases: keep the highest count.
  dead_connections_ = std::max(dead_connections_, stats.dead_connections);
  if (kind_ != WorkloadKind::kTraceReplay) permanence_.add(plan, result.slots);
}

void RunChecks::finish(RunReport& report) const {
  const bool audit_permanence = kind_ != WorkloadKind::kTraceReplay;
  const std::uint64_t violations =
      audit_permanence ? permanence_.violations(edge_config(0).top_params.n) : 0;
  const bool ok = leaks_ == 0 && balanced_ && total_.balanced() &&
                  total_.missing == 0 && stray_ == 0 && wire_errors_ == 0 &&
                  dead_connections_ == 0 && violations == 0;
  report.correct = report.correct && ok;
  report.attempted += total_.sent;
  report.failed += total_.failed + total_.missing + stray_ + wire_errors_;
  report.note(
      "checks: sent=%llu released=%llu shed=%llu dropped=%llu failed=%llu "
      "missing=%llu (lost %llu) balanced=%s raw_leaks=%llu permanence=%s "
      "(violations=%llu over %llu tops) stray=%llu wire_errors=%llu "
      "dead_connections=%llu -> %s",
      static_cast<unsigned long long>(total_.sent),
      static_cast<unsigned long long>(total_.released),
      static_cast<unsigned long long>(total_.shed),
      static_cast<unsigned long long>(total_.dropped),
      static_cast<unsigned long long>(total_.failed),
      static_cast<unsigned long long>(total_.missing),
      static_cast<unsigned long long>(total_.lost),
      balanced_ && total_.balanced() ? "yes" : "NO",
      static_cast<unsigned long long>(leaks_),
      audit_permanence ? "audited" : "not audited",
      static_cast<unsigned long long>(violations),
      static_cast<unsigned long long>(permanence_.keys()),
      static_cast<unsigned long long>(stray_),
      static_cast<unsigned long long>(wire_errors_),
      static_cast<unsigned long long>(dead_connections_), ok ? "PASS" : "FAIL");
}

util::Result<Phase> run_phase(Planner& planner, Generator& generator,
                              const PhaseSpec& spec, RunChecks& checks,
                              const std::function<void()>& tick) {
  util::Result<std::vector<PlannedRequest>> plan = planner.plan(spec);
  if (!plan.ok()) return plan.status();
  Phase phase;
  phase.plan = std::move(plan.value());
  phase.result = generator.run(phase.plan, kDrainTimeoutS, tick);
  phase.stats = summarise(phase.plan, phase.result, spec.duration_s);
  checks.add(phase.plan, phase.result, phase.stats);
  return phase;
}

void note_phase(RunReport& report, const char* name, double rate,
                const PhaseStats& s) {
  report.note(
      "%-8s %7.0f rps: p50 %8.1f us  p90 %8.1f us  p99 %9.1f us  goodput %8.0f/s  "
      "fail %.4f  lag p99 %6.1f us  cpu %5.2f us/req%s%s",
      name, rate, s.p50_us, s.p90_us, s.p99_us, s.goodput_rps, s.fail_frac, s.lag.p99_us,
      s.cpu_us_per_req, s.lag.client_bound ? "  client_bound" : "",
      s.backlog_growing ? "  backlog_growing" : "");
}

double peak_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  unsigned long long kib = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %llu kB", &kib) == 1) break;
  }
  std::fclose(f);
  return static_cast<double>(kib) / 1024.0;
}


Window summarise_windows(const std::vector<PhaseStats>& windows) {
  const auto median = [&](auto field) {
    std::vector<double> values;
    for (const PhaseStats& w : windows) values.push_back(field(w));
    return quantile(values, 0.5);
  };
  Window out;
  // Host stalls only ever add latency, so the calmest window's median is
  // the run's p50: a stall that spans a few windows does not move it.
  for (std::size_t i = 0; i < windows.size(); ++i) {
    out.p50_us = i == 0 ? windows[i].p50_us : std::min(out.p50_us, windows[i].p50_us);
  }
  out.p99_us = median([](const PhaseStats& w) { return w.p99_us; });
  out.released_p99_us = median([](const PhaseStats& w) { return w.released_p99_us; });
  out.lag_p50_us = median([](const PhaseStats& w) { return w.lag.p50_us; });
  out.lag_p99_us = median([](const PhaseStats& w) { return w.lag.p99_us; });
  const auto n = static_cast<double>(windows.size());
  for (const PhaseStats& w : windows) {
    out.goodput_rps += w.goodput_rps / n;
    out.fail_frac += w.fail_frac / n;
    out.cpu_us_per_req += w.cpu_us_per_req / n;
    out.sends_per_wake += w.sends_per_wake / n;
    out.client_bound = out.client_bound || w.lag.client_bound;
  }
  return out;
}

namespace {

struct FixedRates {
  Window light;
  Window heavy;
  /// Where the stress metrics come from: the burst phase on
  /// burst_overload, the heavy phase elsewhere.
  Window stress;
};

/// The fixed-rate phases, interleaved window by window so each sees the
/// same spread of host conditions over the run. Light and heavy windows
/// are Poisson on every workload; burst_overload adds on/off burst
/// windows as its stress phase.
util::Result<FixedRates> run_fixed_rates(Planner& planner, Generator& generator,
                                         const Schedule& schedule, WorkloadKind kind,
                                         RunChecks& checks, RunReport& report) {
  const bool bursty = kind == WorkloadKind::kBurstOverload;
  std::vector<PhaseStats> light;
  std::vector<PhaseStats> heavy;
  std::vector<PhaseStats> burst;
  for (std::size_t i = 0; i < kWindows; ++i) {
    util::Result<Phase> l = run_phase(
        planner, generator, {kLightRps, schedule.light_s, false}, checks);
    if (!l.ok()) return l.status();
    note_phase(report, "light", kLightRps, l.value().stats);
    light.push_back(l.value().stats);
    util::Result<Phase> h = run_phase(
        planner, generator, {kHeavyRps, schedule.heavy_s, false}, checks);
    if (!h.ok()) return h.status();
    note_phase(report, "heavy", kHeavyRps, h.value().stats);
    heavy.push_back(h.value().stats);
    if (!bursty) continue;
    util::Result<Phase> b = run_phase(
        planner, generator, {kBurstRps, schedule.burst_s, true}, checks);
    if (!b.ok()) return b.status();
    note_phase(report, "burst", kBurstRps, b.value().stats);
    burst.push_back(b.value().stats);
  }
  FixedRates out{summarise_windows(light), summarise_windows(heavy), {}};
  out.stress = bursty ? summarise_windows(burst) : out.heavy;
  return out;
}

}  // namespace

util::Result<double> find_knee(Planner& planner, Generator& generator,
                               const Schedule& schedule, bool bursty,
                               RunChecks& checks, RunReport& report) {
  double pass = 0.0;
  double fail = 0.0;
  double knee = 0.0;
  std::size_t attempts = 0;
  while (attempts < kRungAttempts) {
    const double rate = fail == 0.0 ? (pass == 0.0 ? kLadderStartRps : 2.0 * pass)
                                    : (pass == 0.0 ? fail / 2.0 : std::sqrt(pass * fail));
    bool passed = false;
    for (std::size_t tries = 0; tries < kRungTries && !passed && attempts < kRungAttempts;
         ++tries) {
      util::Result<Phase> rung =
          run_phase(planner, generator, {rate, schedule.rung_s, bursty}, checks);
      if (!rung.ok()) return rung.status();
      ++attempts;
      note_phase(report, "rung", rate, rung.value().stats);
      passed = rung.value().stats.passes();
      if (passed) {
        knee = static_cast<double>(rung.value().stats.accounting.sent) / schedule.rung_s;
      }
    }
    if (passed) {
      pass = rate;
    } else {
      fail = rate;
    }
  }
  report.note("knee: %.0f rps offered (rungs: last pass %.0f, first failure %.0f)",
              knee, pass, fail);
  return knee;
}

util::Result<RunReport> run_untraced(const RunConfig& config,
                                     const Sidecar& sidecar) {
  RunReport report;
  double setup_s = 0.0;
  double open_s = 0.0;
  util::Result<Box> box = set_up_repeated(config, setup_s, open_s);
  if (!box.ok()) return box.status();
  report.backend = box.value().server->backend_kind();
  Generator& generator = *box.value().generator;

  const Schedule schedule(config.seconds);
  Planner planner(config.kind, config.seed, sidecar);
  RunChecks checks(config.kind);

  util::Result<Phase> warm = run_phase(
      planner, generator, {kLightRps, schedule.warm_s, false}, checks);
  if (!warm.ok()) return warm.status();
  util::Result<FixedRates> fixed =
      run_fixed_rates(planner, generator, schedule, config.kind, checks, report);
  if (!fixed.ok()) return fixed.status();
  checks.finish(report);

  const Window& light = fixed.value().light;
  const Window& heavy = fixed.value().heavy;
  const Window& stress = fixed.value().stress;
  // Latencies, failures, schedule lag and CPU per request move with the
  // host's scheduling far more than any bound could allow (README.md), so
  // they are printed here and reported by the traced run, not gated.
  report.note("not gated: light p50 %.1f p99 %.1f us, heavy p50 %.1f p99 %.1f us, "
              "released p99 %.1f us, fail_frac %.5f, gen lag p99 %.1f us, "
              "socket cpu %.2f us/req%s",
              light.p50_us, light.p99_us, heavy.p50_us, heavy.p99_us,
              stress.released_p99_us, stress.fail_frac, stress.lag_p99_us,
              stress.cpu_us_per_req,
              light.client_bound || stress.client_bound ? ", client_bound windows" : "");
  report.add("setup_s", setup_s, "s");
  report.add("goodput_rps", stress.goodput_rps, "1/s");
  report.add("rss_mb", peak_rss_mb(), "MB");
  return report;
}

}  // namespace edgebench
