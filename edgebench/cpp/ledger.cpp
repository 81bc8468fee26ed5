// The traced run: where a request's latency goes, layer by layer.
//
// Three sources, all recorded from the benchmark's own side of each call:
//   1. generator spans per request: scheduled -> sent -> answered;
//   2. registry scrapes around every traced phase (histogram bucket deltas,
//      counter deltas) plus a queue-depth sample about once a millisecond;
//   3. an in-process replay of the requests the socket box served, in the
//      same order, on a box opened from the same snapshot:
//      try_decode -> ConcurrentEdge::serve -> append_response, each serve
//      classified by the telemetry counters it moved, and
//      attack::build_profile timed on every window that rolled over.
// Spans are kept in memory and written out at the end. End-to-end numbers
// never come from here; the untraced light windows of this run only give
// the tracing overhead and the reconciliation baseline.
#include <dirent.h>
#include <sys/stat.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <numeric>
#include <unordered_map>

#include "attack/profile.hpp"
#include "core/concurrent_edge.hpp"
#include "core/output_selection.hpp"
#include "core/snapshot.hpp"
#include "lppm/gaussian.hpp"
#include "net/wire.hpp"
#include "obs/metrics.hpp"
#include "runner.hpp"
#include "simd/soa.hpp"

namespace edgebench {

namespace core = privlocad::core;
namespace net = privlocad::net;
namespace obs = privlocad::obs;
namespace util = privlocad::util;

namespace {

using Clock = std::chrono::steady_clock;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// Keeps timed loops' results observable, so they are not optimised away.
volatile std::uint64_t g_sink = 0;

/// Traced windows per phase.
constexpr std::size_t kTraceWindows = 2;
/// Draws and selections timed in the kernel micro-measurements.
constexpr std::size_t kKernelSamples = 2000;

struct Span {
  std::uint64_t request = 0;
  const char* name = "";
  const char* parent = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// Quantile of histogram bucket counts (one trailing overflow bucket),
/// interpolated inside the owning bucket as LatencyHistogram::quantile
/// does.
double bucket_quantile(const std::vector<double>& bounds,
                       const std::vector<std::uint64_t>& counts, double q) {
  double n = 0.0;
  for (const std::uint64_t c : counts) n += static_cast<double>(c);
  if (n == 0.0) return 0.0;
  const double target = q * n;
  double cumulative = 0.0;
  for (std::size_t b = 0; b < counts.size(); ++b) {
    const auto count = static_cast<double>(counts[b]);
    if (count == 0.0) continue;
    if (cumulative + count >= target) {
      if (b == bounds.size()) return bounds.back();
      const double lower = b == 0 ? 0.0 : bounds[b - 1];
      return lower + (bounds[b] - lower) * std::clamp((target - cumulative) / count, 0.0, 1.0);
    }
    cumulative += count;
  }
  return bounds.back();
}

/// Counters and histogram buckets of the box's registry at one instant.
struct Scrape {
  std::uint64_t requests = 0;
  std::uint64_t shed = 0;
  std::uint64_t backpressure_pauses = 0;
  std::uint64_t rebuilds = 0;
  std::uint64_t tables_generated = 0;
  std::vector<std::uint64_t> queue_delay;
  std::vector<std::uint64_t> service_time;
};

Scrape scrape(obs::MetricsRegistry& registry) {
  Scrape s;
  s.requests = registry.counter_value(net::net_metrics::kRequests);
  s.shed = registry.counter_value(net::net_metrics::kShed);
  s.backpressure_pauses = registry.counter_value(net::net_metrics::kBackpressurePauses);
  s.rebuilds = registry.counter_value(core::edge_metrics::kProfileRebuilds);
  s.tables_generated = registry.counter_value(core::edge_metrics::kTablesGenerated);
  s.queue_delay = registry.histogram(net::net_metrics::kQueueDelayUs).bucket_counts();
  s.service_time = registry.histogram(net::net_metrics::kServiceTimeUs).bucket_counts();
  return s;
}

/// What the registry gained over several traced phases.
struct Deltas {
  std::vector<std::uint64_t> queue_delay;
  std::vector<std::uint64_t> service_time;
  std::uint64_t requests = 0;
  std::uint64_t shed = 0;
  std::uint64_t backpressure_pauses = 0;

  void add(const Scrape& before, const Scrape& after) {
    const auto accumulate = [](std::vector<std::uint64_t>& into,
                               const std::vector<std::uint64_t>& b,
                               const std::vector<std::uint64_t>& a) {
      into.resize(a.size(), 0);
      for (std::size_t i = 0; i < a.size(); ++i) into[i] += a[i] - b[i];
    };
    accumulate(queue_delay, before.queue_delay, after.queue_delay);
    accumulate(service_time, before.service_time, after.service_time);
    requests += after.requests - before.requests;
    shed += after.shed - before.shed;
    backpressure_pauses += after.backpressure_pauses - before.backpressure_pauses;
  }
};

/// CPU ticks of every thread of this process.
std::map<long, unsigned long long> thread_ticks() {
  std::map<long, unsigned long long> ticks;
  DIR* dir = ::opendir("/proc/self/task");
  if (dir == nullptr) return ticks;
  while (const dirent* entry = ::readdir(dir)) {
    if (entry->d_name[0] == '.') continue;
    const std::string path = std::string("/proc/self/task/") + entry->d_name + "/stat";
    std::FILE* f = std::fopen(path.c_str(), "r");
    if (f == nullptr) continue;
    char buffer[1024] = {};
    const std::size_t n = std::fread(buffer, 1, sizeof(buffer) - 1, f);
    std::fclose(f);
    buffer[n] = '\0';
    // Fields after the parenthesised command name: state is the first,
    // utime the 12th and stime the 13th.
    const char* rest = std::strrchr(buffer, ')');
    unsigned long long utime = 0;
    unsigned long long stime = 0;
    if (rest != nullptr &&
        std::sscanf(rest + 1, " %*c %*d %*d %*d %*d %*d %*u %*u %*u %*u %*u %llu %llu",
                    &utime, &stime) == 2) {
      ticks[std::atol(entry->d_name)] = utime + stime;
    }
  }
  ::closedir(dir);
  return ticks;
}

/// Busiest thread's share of one CPU between two tick samples, leaving
/// out the generator's own thread.
double busiest_thread_util(const std::map<long, unsigned long long>& before,
                           const std::map<long, unsigned long long>& after,
                           double wall_s, long generator_tid) {
  const double hz = static_cast<double>(::sysconf(_SC_CLK_TCK));
  double busiest = 0.0;
  for (const auto& [tid, ticks] : after) {
    if (tid == generator_tid) continue;
    const auto it = before.find(tid);
    const unsigned long long start = it == before.end() ? 0 : it->second;
    busiest = std::max(busiest, static_cast<double>(ticks - start) / hz / wall_s);
  }
  return busiest;
}

/// Mirrors UserArena's window roll-over rule from outside, so the traced
/// replay can time attack::build_profile on exactly the window a rebuild
/// consumed.
class WindowMirror {
 public:
  WindowMirror(const std::vector<CheckInRecord>& pending,
               const core::LocationManagementConfig& config)
      : config_(config) {
    for (const CheckInRecord& c : pending) (void)record(c.user, {c.x, c.y}, c.time);
  }

  /// Records one check-in; returns true when it rolled the window over.
  bool record(std::uint64_t user, privlocad::geo::Point at, std::int64_t time) {
    State& s = users_[user];
    bool rolled = false;
    if (!s.started) {
      s.started = true;
      s.start = time;
    } else if (time - s.start >= config_.window_seconds &&
               s.points.size() >= config_.min_window_check_ins) {
      rolled_window_.swap(s.points);
      s.points.clear();
      s.start = time;
      rolled = true;
    }
    s.points.push_back(at);
    return rolled;
  }

  /// The window the last roll-over consumed.
  const std::vector<privlocad::geo::Point>& rolled_window() const { return rolled_window_; }

 private:
  struct State {
    bool started = false;
    std::int64_t start = 0;
    std::vector<privlocad::geo::Point> points;
  };
  core::LocationManagementConfig config_;
  std::unordered_map<std::uint64_t, State> users_;
  std::vector<privlocad::geo::Point> rolled_window_;
};

/// What the in-process replay found.
struct Replay {
  std::uint64_t served = 0;
  std::uint64_t mismatches = 0;  ///< releases that differ from the socket's
  std::uint64_t hash = privlocad::core::snapshot::kFnvOffsetBasis;
  std::vector<double> top_hit_us, nomadic_us, first_sight_us, rebuild_us;
  std::vector<double> build_us;
  std::uint64_t mirror_rollovers = 0;
  std::uint64_t rebuilds = 0;
  std::uint64_t top = 0;
  std::uint64_t nomadic = 0;
  double serve_ns_total = 0.0;
  double rebuild_ns_total = 0.0;
  std::vector<net::ServeRequestFrame> requests;
  std::vector<net::ServeResponseFrame> responses;
};

bool was_shed(const Slot& slot) {
  return slot.released == 0 &&
         static_cast<core::ServeOutcome>(slot.outcome) == core::ServeOutcome::kDegradedDropped &&
         slot.status_code == static_cast<std::uint8_t>(util::ErrorCode::kResourceExhausted);
}

/// Which requests a replay serves: exactly those the socket box served
/// (timed, traced and compared with the socket's releases), or every
/// planned request, for a hash that does not depend on which requests a
/// run happened to shed.
enum class ReplayOf { kServed, kPlanned };

util::Result<Replay> replay(const RunConfig& config, const Sidecar& sidecar,
                            const std::vector<const Phase*>& phases, ReplayOf what,
                            std::vector<Span>& spans) {
  const bool served = what == ReplayOf::kServed;
  core::ConcurrentEdge edge(edge_config(config.seed));
  if (util::Status s = edge.open_snapshot(config.snapshot); !s.ok()) return s;
  obs::MetricsRegistry& registry = edge.metrics();
  const obs::Counter& top = registry.counter(core::edge_metrics::kTopReports);
  const obs::Counter& nomadic = registry.counter(core::edge_metrics::kNomadicReports);
  const obs::Counter& rebuilds = registry.counter(core::edge_metrics::kProfileRebuilds);
  const obs::Counter& tables = registry.counter(core::edge_metrics::kTablesGenerated);
  const core::LocationManagementConfig management = edge_config(config.seed).management;
  WindowMirror mirror(sidecar.pending, management);

  Replay out;
  std::vector<std::uint8_t> wire;
  for (const Phase* phase : phases) {
    for (std::size_t i = 0; i < phase->plan.size(); ++i) {
      const Slot& slot = phase->result.slots[i];
      if (served && (slot.state != SlotState::kAnswered || was_shed(slot))) continue;
      net::ServeRequestFrame request = phase->plan[i].frame;
      request.request_id = phase->result.first_id + i;

      wire.clear();
      const std::int64_t t0 = now_ns();
      net::append_request(wire, request);
      const std::int64_t t1 = now_ns();
      net::Frame decoded;
      std::size_t consumed = 0;
      if (util::Status s = net::try_decode(wire.data(), wire.size(), decoded, consumed);
          !s.ok() || consumed == 0) {
        return util::Status::internal("replay could not decode its own frame");
      }
      const net::ServeRequestFrame& r = decoded.request;
      const std::uint64_t top0 = top.value(), nomadic0 = nomadic.value(),
                          rebuilds0 = rebuilds.value(), tables0 = tables.value();
      const std::int64_t t2 = now_ns();
      const core::ServeResult result = edge.serve(r.user_id, {r.x, r.y}, r.time);
      const std::int64_t t3 = now_ns();
      net::ServeResponseFrame response;
      response.request_id = r.request_id;
      response.outcome = static_cast<std::uint8_t>(result.outcome);
      response.kind = static_cast<std::uint8_t>(result.reported.kind);
      response.status_code = static_cast<std::uint8_t>(result.status.code());
      response.released = result.released() ? 1 : 0;
      if (result.released()) {
        response.x = result.reported.location.x;
        response.y = result.reported.location.y;
      }
      wire.clear();
      const std::int64_t t4 = now_ns();
      net::append_response(wire, response);
      const std::int64_t t5 = now_ns();
      if (served) {
        spans.push_back({request.request_id, "replay.encode_request", "", t0, t1});
        spans.push_back({request.request_id, "replay.decode", "", t1, t2});
        spans.push_back({request.request_id, "replay.serve", "", t2, t3});
        spans.push_back({request.request_id, "replay.encode_response", "", t4, t5});
      }

      const double serve_us = static_cast<double>(t3 - t2) / 1e3;
      out.serve_ns_total += static_cast<double>(t3 - t2);
      const bool rebuilt = rebuilds.value() != rebuilds0;
      if (served && mirror.record(r.user_id, {r.x, r.y}, r.time)) {
        ++out.mirror_rollovers;
        const std::int64_t b0 = now_ns();
        const privlocad::attack::LocationProfile profile = privlocad::attack::build_profile(
            mirror.rolled_window(), management.profiling_threshold_m);
        const std::int64_t b1 = now_ns();
        (void)profile;
        out.build_us.push_back(static_cast<double>(b1 - b0) / 1e3);
        spans.push_back({request.request_id, "replay.build_profile", "replay.serve", b0, b1});
      }
      if (rebuilt) {
        ++out.rebuilds;
        out.rebuild_us.push_back(serve_us);
        out.rebuild_ns_total += static_cast<double>(t3 - t2);
      } else if (tables.value() != tables0) {
        out.first_sight_us.push_back(serve_us);
      } else if (top.value() != top0) {
        out.top_hit_us.push_back(serve_us);
      } else if (nomadic.value() != nomadic0) {
        out.nomadic_us.push_back(serve_us);
      }
      out.top += top.value() - top0;
      out.nomadic += nomadic.value() - nomadic0;

      const std::uint64_t xb = std::bit_cast<std::uint64_t>(response.x);
      const std::uint64_t yb = std::bit_cast<std::uint64_t>(response.y);
      out.hash = core::snapshot::fnv1a64(&response.released, 1, out.hash);
      out.hash = core::snapshot::fnv1a64(&xb, sizeof(xb), out.hash);
      out.hash = core::snapshot::fnv1a64(&yb, sizeof(yb), out.hash);
      if (served && (response.released != slot.released ||
                     xb != std::bit_cast<std::uint64_t>(slot.x) ||
                     yb != std::bit_cast<std::uint64_t>(slot.y))) {
        ++out.mismatches;
      }
      ++out.served;
      out.requests.push_back(request);
      out.responses.push_back(response);
    }
  }
  return out;
}

/// Per-frame cost of the wire codec over the replayed frames, timed in
/// bulk (a per-call clock read costs as much as the call). Best of three.
void time_wire(const Replay& replay, double& encode_ns, double& decode_ns) {
  const auto n = static_cast<double>(replay.requests.size());
  encode_ns = decode_ns = 0.0;
  if (replay.requests.empty()) return;
  std::vector<std::uint8_t> requests, responses;
  requests.reserve(replay.requests.size() * net::kMaxFrameBytes);
  responses.reserve(replay.responses.size() * net::kMaxFrameBytes);
  double best_encode = 1e300, best_decode = 1e300;
  for (int round = 0; round < 3; ++round) {
    requests.clear();
    responses.clear();
    const std::int64_t t0 = now_ns();
    for (const net::ServeRequestFrame& f : replay.requests) net::append_request(requests, f);
    for (const net::ServeResponseFrame& f : replay.responses) net::append_response(responses, f);
    const std::int64_t t1 = now_ns();
    std::uint64_t checksum = 0;
    for (const std::vector<std::uint8_t>* buffer : {&requests, &responses}) {
      std::size_t at = 0;
      while (at < buffer->size()) {
        net::Frame frame;
        std::size_t consumed = 0;
        if (!net::try_decode(buffer->data() + at, buffer->size() - at, frame, consumed).ok() ||
            consumed == 0) {
          break;
        }
        checksum += frame.request.user_id + frame.response.request_id;
        at += consumed;
      }
    }
    const std::int64_t t2 = now_ns();
    g_sink = checksum;
    best_encode = std::min(best_encode, static_cast<double>(t1 - t0));
    best_decode = std::min(best_decode, static_cast<double>(t2 - t1));
  }
  encode_ns = best_encode / (2.0 * n);
  decode_ns = best_decode / (2.0 * n);
}

/// The n-fold draw and the posterior selection at the served parameters,
/// over locations the run actually requested.
void time_kernels(const RunConfig& config, const Replay& replay, double& draw_us,
                  double& select_ns) {
  const privlocad::lppm::NFoldGaussianMechanism mechanism(edge_config(config.seed).top_params);
  privlocad::rng::Engine engine(config.seed);
  std::vector<privlocad::geo::Point> candidates;
  std::vector<privlocad::simd::SoaPoints> sets;
  std::vector<double> draws;
  const std::size_t step = std::max<std::size_t>(1, replay.requests.size() / kKernelSamples);
  for (std::size_t i = 0; i < replay.requests.size() && sets.size() < kKernelSamples; i += step) {
    const privlocad::geo::Point at{replay.requests[i].x, replay.requests[i].y};
    const std::int64_t t0 = now_ns();
    mechanism.obfuscate_into(engine, at, candidates);
    const std::int64_t t1 = now_ns();
    draws.push_back(static_cast<double>(t1 - t0) / 1e3);
    sets.emplace_back();
    sets.back().assign(candidates);
  }
  draw_us = quantile(draws, 0.5);
  select_ns = 0.0;
  if (sets.empty()) return;
  constexpr int kRounds = 20;
  std::size_t chosen = 0;
  const std::int64_t t0 = now_ns();
  for (int round = 0; round < kRounds; ++round) {
    for (const privlocad::simd::SoaPoints& set : sets) {
      chosen += privlocad::core::select_candidate(
          engine, {set.xs(), set.ys(), set.size()}, mechanism.posterior_sigma());
    }
  }
  const std::int64_t t1 = now_ns();
  g_sink = chosen;
  select_ns = static_cast<double>(t1 - t0) / (kRounds * static_cast<double>(sets.size()));
}

/// Thread CPU time per ConcurrentEdge::serve call over the run's first
/// planned requests, served in-process on a fresh box opened from the same
/// snapshot, in chunks. Neighbours on the host only ever slow a chunk
/// down, so the lower quartile of the chunks is the estimate; it also
/// leaves out the first chunks' snapshot page faults.
util::Result<double> serve_cpu_us(const RunConfig& config,
                                  const std::vector<const Phase*>& phases) {
  constexpr std::size_t kChunk = 10000;
  constexpr std::size_t kChunks = 20;
  core::ConcurrentEdge edge(edge_config(config.seed));
  if (util::Status s = edge.open_snapshot(config.snapshot); !s.ok()) return s;
  std::vector<const PlannedRequest*> requests;
  for (const Phase* phase : phases) {
    for (const PlannedRequest& p : phase->plan) {
      if (requests.size() < kChunk * kChunks) requests.push_back(&p);
    }
  }
  std::vector<double> chunks;
  for (std::size_t begin = 0; begin + kChunk <= requests.size(); begin += kChunk) {
    const double cpu0 = thread_cpu_s();
    for (std::size_t i = begin; i < begin + kChunk; ++i) {
      const net::ServeRequestFrame& f = requests[i]->frame;
      (void)edge.serve(f.user_id, {f.x, f.y}, f.time);
    }
    chunks.push_back((thread_cpu_s() - cpu0) * 1e6 / static_cast<double>(kChunk));
  }
  return quantile(chunks, 0.25);
}

void write_spans(const RunConfig& config, const std::vector<Span>& spans,
                 RunReport& report) {
  if (config.spans_dir.empty()) return;
  ::mkdir(config.spans_dir.c_str(), 0755);
  const std::string path =
      config.spans_dir + "/" + workload_name(config.kind) + ".spans.tsv";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    report.note("spans: cannot write %s", path.c_str());
    return;
  }
  std::fprintf(f, "request\tspan\tparent\tstart_ns\tend_ns\n");
  for (const Span& s : spans) {
    std::fprintf(f, "%llu\t%s\t%s\t%lld\t%lld\n",
                 static_cast<unsigned long long>(s.request), s.name, s.parent,
                 static_cast<long long>(s.start_ns), static_cast<long long>(s.end_ns));
  }
  std::fclose(f);
  report.note("spans: %zu written to %s", spans.size(), path.c_str());
}

/// Generator spans of one phase: the request, its schedule lag and its
/// time on the wire and in the box.
void add_generator_spans(const Phase& phase, std::vector<Span>& spans) {
  for (std::size_t i = 0; i < phase.plan.size(); ++i) {
    const Slot& slot = phase.result.slots[i];
    if (slot.state != SlotState::kAnswered) continue;
    const std::uint64_t id = phase.result.first_id + i;
    const std::int64_t base = phase.result.start_ns;
    const std::int64_t due = base + std::llround(phase.plan[i].at_s * 1e9);
    spans.push_back({id, "request", "", due, base + slot.answered_ns});
    spans.push_back({id, "gen.schedule_lag", "request", due, base + slot.sent_ns});
    spans.push_back({id, "gen.in_flight", "request", base + slot.sent_ns, base + slot.answered_ns});
  }
}

}  // namespace

util::Result<RunReport> run_traced(const RunConfig& config, const Sidecar& sidecar) {
  RunReport report;
  double setup_s = 0.0;
  double open_s = 0.0;
  util::Result<Box> box = set_up_repeated(config, setup_s, open_s);
  if (!box.ok()) return box.status();
  report.backend = box.value().server->backend_kind();
  report.note("setup: %.4f s (snapshot open %.4f s)", setup_s, open_s);
  Generator& generator = *box.value().generator;
  net::EdgeServer& server = *box.value().server;
  obs::MetricsRegistry& registry = server.metrics();
  const long generator_tid = static_cast<long>(::syscall(SYS_gettid));

  const bool bursty = config.kind == WorkloadKind::kBurstOverload;
  const Schedule schedule(config.seconds);
  Planner planner(config.kind, config.seed, sidecar);
  RunChecks checks(config.kind);
  std::vector<Span> spans;
  std::vector<Phase> phases;  // every phase the socket box served, in order
  phases.reserve(2 + kTraceWindows * 4);

  const Scrape start = scrape(registry);
  util::Result<Phase> warm =
      run_phase(planner, generator, {kLightRps, schedule.warm_s, false}, checks);
  if (!warm.ok()) return warm.status();
  phases.push_back(std::move(warm.value()));

  std::vector<PhaseStats> light_untraced, light_traced, stress_traced;
  Deltas light_deltas, stress_deltas;
  std::vector<double> depth_samples;
  double stress_util = 0.0;
  const obs::Gauge& depth = registry.gauge(net::net_metrics::kQueueDepth);
  // Traced light windows sample too, so the overhead line prices the
  // scrapes themselves.
  std::vector<double> light_depth_samples;
  const auto sample_depth = [&] { depth_samples.push_back(depth.value()); };
  const auto sample_light_depth = [&] { light_depth_samples.push_back(depth.value()); };

  for (std::size_t w = 0; w < kTraceWindows; ++w) {
    util::Result<Phase> plain =
        run_phase(planner, generator, {kLightRps, schedule.light_s, false}, checks);
    if (!plain.ok()) return plain.status();
    light_untraced.push_back(plain.value().stats);
    phases.push_back(std::move(plain.value()));

    Scrape before = scrape(registry);
    util::Result<Phase> light = run_phase(
        planner, generator, {kLightRps, schedule.light_s, false}, checks, sample_light_depth);
    if (!light.ok()) return light.status();
    light_deltas.add(before, scrape(registry));
    light_traced.push_back(light.value().stats);
    add_generator_spans(light.value(), spans);
    phases.push_back(std::move(light.value()));

    const PhaseSpec stress_spec = bursty ? PhaseSpec{kBurstRps, schedule.heavy_s, true}
                                         : PhaseSpec{kHeavyRps, schedule.heavy_s, false};
    before = scrape(registry);
    const std::map<long, unsigned long long> ticks0 = thread_ticks();
    const std::int64_t wall0 = now_ns();
    util::Result<Phase> stress =
        run_phase(planner, generator, stress_spec, checks, sample_depth);
    if (!stress.ok()) return stress.status();
    const double wall_s = static_cast<double>(now_ns() - wall0) * 1e-9;
    stress_util = std::max(stress_util, busiest_thread_util(ticks0, thread_ticks(),
                                                            wall_s, generator_tid));
    stress_deltas.add(before, scrape(registry));
    stress_traced.push_back(stress.value().stats);
    add_generator_spans(stress.value(), spans);
    note_phase(report, bursty ? "burst" : "heavy", stress_spec.rate_rps,
               stress.value().stats);
    phases.push_back(std::move(stress.value()));
  }
  (void)server.edge().telemetry();  // publishes the shard lock tallies
  const Scrape end = scrape(registry);
  std::vector<double> shard_locks;
  for (std::size_t i = 0; i < server.edge().shard_count(); ++i) {
    shard_locks.push_back(static_cast<double>(registry.counter_value(
        "edge.shard" + std::to_string(i) + ".lock_acquisitions")));
  }
  // The knee comes last: its rungs are neither scraped nor replayed.
  util::Result<double> knee = find_knee(planner, generator, schedule, bursty, checks, report);
  if (!knee.ok()) return knee.status();
  checks.finish(report);

  std::vector<const Phase*> driven;
  for (const Phase& p : phases) driven.push_back(&p);
  util::Result<Replay> rep = replay(config, sidecar, driven, ReplayOf::kServed, spans);
  if (!rep.ok()) return rep.status();
  const Replay& r = rep.value();
  util::Result<Replay> planned = replay(config, sidecar, driven, ReplayOf::kPlanned, spans);
  if (!planned.ok()) return planned.status();
  double encode_ns = 0.0, decode_ns = 0.0, draw_us = 0.0, select_ns = 0.0;
  time_wire(r, encode_ns, decode_ns);
  time_kernels(config, r, draw_us, select_ns);
  util::Result<double> serve_cpu = serve_cpu_us(config, driven);
  if (!serve_cpu.ok()) return serve_cpu.status();

  const Window plain = summarise_windows(light_untraced);
  const Window light = summarise_windows(light_traced);
  const Window stress = summarise_windows(stress_traced);
  const std::vector<double>& queue_bounds =
      registry.histogram(net::net_metrics::kQueueDelayUs).upper_bounds();
  const std::vector<double>& service_bounds =
      registry.histogram(net::net_metrics::kServiceTimeUs).upper_bounds();
  const double queue_p50 = bucket_quantile(queue_bounds, light_deltas.queue_delay, 0.50);
  const double queue_p99 = bucket_quantile(queue_bounds, light_deltas.queue_delay, 0.99);
  const double light_service_p50 =
      bucket_quantile(service_bounds, light_deltas.service_time, 0.50);
  const double service_p50 = bucket_quantile(service_bounds, stress_deltas.service_time, 0.50);
  const double service_p99 = bucket_quantile(service_bounds, stress_deltas.service_time, 0.99);
  // A request crosses the codec four times: request and response, each
  // encoded once and decoded once.
  const double wire_us = 2.0 * (encode_ns + decode_ns) / 1e3;
  const double unattributed =
      plain.p50_us - (light.lag_p50_us + wire_us + queue_p50 + light_service_p50);
  const double mean_locks =
      shard_locks.empty() ? 0.0
                          : std::accumulate(shard_locks.begin(), shard_locks.end(), 0.0) /
                                static_cast<double>(shard_locks.size());
  const double max_locks =
      shard_locks.empty() ? 0.0 : *std::max_element(shard_locks.begin(), shard_locks.end());
  struct stat snapshot_stat{};
  ::stat(config.snapshot.c_str(), &snapshot_stat);
  // The working set the socket phases touched: distinct users requested,
  // and their share of the snapshot at its mean bytes per user.
  std::vector<bool> touched(sidecar.users, false);
  std::uint64_t users_touched = 0;
  for (const Phase* p : driven) {
    for (const PlannedRequest& request : p->plan) {
      if (request.frame.user_id < touched.size() && !touched[request.frame.user_id]) {
        touched[request.frame.user_id] = true;
        ++users_touched;
      }
    }
  }
  const double user_share = sidecar.users == 0 ? 0.0
                                               : static_cast<double>(users_touched) /
                                                     static_cast<double>(sidecar.users);
  const double working_set_mb = user_share * static_cast<double>(snapshot_stat.st_size) / 1e6;

  report.note(
      "reconcile light p50: socket %.1f us = lag %.1f + wire %.2f + queue %.1f + "
      "serve %.1f + unattributed (io) %.1f",
      plain.p50_us, light.lag_p50_us, wire_us, queue_p50, light_service_p50, unattributed);
  report.note("tracing overhead (light): p50 %+.1f us, p99 %+.1f us (traced %.1f/%.1f, "
              "untraced %.1f/%.1f)",
              light.p50_us - plain.p50_us, light.p99_us - plain.p99_us, light.p50_us,
              light.p99_us, plain.p50_us, plain.p99_us);
  report.note("replay: %llu served requests, differs from socket on %llu; "
              "planned stream of %llu requests releases fnv=%016llx; "
              "window roll-overs mirrored %llu / rebuilds seen %llu",
              static_cast<unsigned long long>(r.served),
              static_cast<unsigned long long>(r.mismatches),
              static_cast<unsigned long long>(planned.value().served),
              static_cast<unsigned long long>(planned.value().hash),
              static_cast<unsigned long long>(r.mirror_rollovers),
              static_cast<unsigned long long>(r.rebuilds));
  // The replay is the socket run's own request stream on the same
  // snapshot; any difference in what it releases is a defect.
  if (r.mismatches != 0) report.correct = false;
  report.note("working set: %llu of %llu users requested (%.3f), about %.1f MB of the "
              "%.1f MB snapshot",
              static_cast<unsigned long long>(users_touched),
              static_cast<unsigned long long>(sidecar.users), user_share, working_set_mb,
              static_cast<double>(snapshot_stat.st_size) / 1e6);
  write_spans(config, spans, report);

  const double serve_total = std::max(r.serve_ns_total, 1.0);
  const auto classified = static_cast<double>(std::max<std::uint64_t>(r.top + r.nomadic, 1));
  report.add("gen.lag_p50_us", stress.lag_p50_us, "us");
  report.add("gen.lag_p99_us", stress.lag_p99_us, "us");
  report.add("gen.sends_per_wake", stress.sends_per_wake, "count");
  report.add("wire.encode_ns", encode_ns, "ns");
  report.add("wire.decode_ns", decode_ns, "ns");
  report.add("io.busiest_thread_util", stress_util, "ratio");
  report.add("io.unattributed_p50_us", unattributed, "us");
  report.add("io.backpressure_pauses", static_cast<double>(stress_deltas.backpressure_pauses), "count");
  report.add("admission.queue_delay_p50_us", queue_p50, "us");
  report.add("admission.queue_delay_p99_us", queue_p99, "us");
  report.add("admission.depth_p99", quantile(depth_samples, 0.99), "count");
  report.add("admission.shed_frac",
             stress_deltas.requests == 0 ? 0.0
                                         : static_cast<double>(stress_deltas.shed) /
                                               static_cast<double>(stress_deltas.requests),
             "ratio");
  report.add("serve.cpu_us", serve_cpu.value(), "us");
  report.add("serve.time_p50_us", service_p50, "us");
  report.add("serve.time_p99_us", service_p99, "us");
  report.add("serve.top_hit_us", quantile(r.top_hit_us, 0.5), "us");
  report.add("serve.nomadic_us", quantile(r.nomadic_us, 0.5), "us");
  report.add("serve.first_sight_us", quantile(r.first_sight_us, 0.5), "us");
  report.add("serve.rebuild_us", quantile(r.rebuild_us, 0.5), "us");
  report.add("serve.rebuild_share", r.rebuild_ns_total / serve_total, "ratio");
  report.add("serve.top_ratio", static_cast<double>(r.top) / classified, "ratio");
  report.add("serve.rebuilds", static_cast<double>(end.rebuilds - start.rebuilds), "count");
  report.add("serve.tables_generated",
             static_cast<double>(end.tables_generated - start.tables_generated), "count");
  report.add("serve.shard_skew", mean_locks > 0.0 ? max_locks / mean_locks : 0.0, "ratio");
  report.add("profile.build_us_p50", quantile(r.build_us, 0.50), "us");
  report.add("profile.build_us_p99", quantile(r.build_us, 0.99), "us");
  report.add("draw.nfold_us", draw_us, "us");
  report.add("select.candidate_ns", select_ns, "ns");
  report.add("snapshot.open_s", open_s, "s");
  report.add("snapshot.bytes", static_cast<double>(snapshot_stat.st_size), "bytes");
  report.add("plan.user_share", user_share, "ratio");
  report.add("e2e.knee_rps", knee.value(), "1/s");
  report.add("e2e.light_p50_us", plain.p50_us, "us");
  report.add("e2e.light_p99_us", plain.p99_us, "us");
  report.add("e2e.stress_p50_us", stress.p50_us, "us");
  report.add("e2e.stress_p99_us", stress.p99_us, "us");
  report.add("e2e.released_p99_us", stress.released_p99_us, "us");
  report.add("e2e.fail_frac", stress.fail_frac, "ratio");
  report.add("e2e.cpu_us_per_req", stress.cpu_us_per_req, "us");
  report.add("trace.overhead_p50_us", light.p50_us - plain.p50_us, "us");
  return report;
}

}  // namespace edgebench
