#include "workload.hpp"

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>

#include "core/concurrent_edge.hpp"
#include "net/load_model.hpp"
#include "par/parallel.hpp"
#include "rng/engine.hpp"
#include "trace/synthetic.hpp"

namespace edgebench {

namespace core = privlocad::core;
namespace net = privlocad::net;
namespace rng = privlocad::rng;
namespace trace = privlocad::trace;
namespace util = privlocad::util;

namespace {

// Population sizes. The steady population's snapshot is larger than the
// last-level cache of the machines this runs on (about 100 MiB), so
// serving it exercises memory, not just cache. The replay population is
// small enough to prepare in seconds and still rolls over thousands of
// windows per run.
constexpr std::size_t kSteadyUsers = 250000;
/// Caps the generator's log-uniform check-in count (20 to 300 instead of
/// 20 to 11435) to keep preparation in seconds. Request popularity follows
/// the capped counts, so the busiest user is 15 times the quietest.
constexpr std::uint64_t kSteadyMaxCheckIns = 300;
constexpr std::size_t kReplayUsers = 1500;
/// Request jitter around a top location; well inside the 100 m match
/// radius, so every such request is served from the frozen table.
constexpr double kTopJitterM = 20.0;
/// Nomadic spots keep this far from every ground-truth top.
constexpr double kNomadicClearanceM = 1000.0;
constexpr std::uint64_t kSidecarMagic = 0x5241434544494245ULL;  // "EBIDECAR"
constexpr std::uint64_t kSidecarVersion = 3;

bool exists(const std::string& path) {
  struct stat st{};
  return ::stat(path.c_str(), &st) == 0;
}

template <typename T>
bool write_vector(std::FILE* f, const std::vector<T>& v) {
  const std::uint64_t n = v.size();
  return std::fwrite(&n, sizeof(n), 1, f) == 1 &&
         (n == 0 || std::fwrite(v.data(), sizeof(T), n, f) == n);
}

template <typename T>
bool read_vector(std::FILE* f, std::vector<T>& v) {
  std::uint64_t n = 0;
  if (std::fread(&n, sizeof(n), 1, f) != 1 || n > (1ULL << 32)) return false;
  v.resize(n);
  return n == 0 || std::fread(v.data(), sizeof(T), n, f) == n;
}

util::Status write_sidecar(const std::string& path, const Sidecar& s) {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) return util::Status::io_error("cannot write " + tmp);
  const std::uint64_t header[4] = {kSidecarMagic, kSidecarVersion, s.users,
                                   static_cast<std::uint64_t>(s.live_time)};
  bool ok = std::fwrite(header, sizeof(header), 1, f) == 1 &&
            write_vector(f, s.tops) && write_vector(f, s.top_begin) &&
            write_vector(f, s.check_ins) && write_vector(f, s.pending) &&
            write_vector(f, s.stream);
  // Durable before the run starts, so its write-back does not land inside
  // a measurement.
  ok = ok && std::fflush(f) == 0 && ::fsync(::fileno(f)) == 0;
  ok = (std::fclose(f) == 0) && ok;
  if (!ok || std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return util::Status::io_error("cannot write " + path);
  }
  return util::Status();
}

/// Every user's slice of the prepared state, filled in parallel.
struct UserPrep {
  std::uint64_t check_ins = 0;
  std::vector<TopSpot> tops;
  std::vector<CheckInRecord> pending;
  std::vector<CheckInRecord> stream;
};

void prepare_steady_user(core::ConcurrentEdge& edge, const rng::Engine& parent,
                         std::size_t index, std::int64_t live_time,
                         UserPrep& out) {
  trace::SyntheticConfig config;
  config.max_check_ins = kSteadyMaxCheckIns;
  const trace::SyntheticUser user = trace::generate_user(parent, config, index);
  const std::uint64_t id = user.trace.user_id;
  out.check_ins = user.trace.check_ins.size();
  edge.import_history(id, user.trace);
  // One live request per ground-truth top freezes its candidate set (when
  // the profile recognises it), so the run itself draws no noise.
  for (std::size_t k = 0; k < user.truth.top_locations.size(); ++k) {
    const privlocad::geo::Point at = user.truth.top_locations[k];
    const core::ServeResult r = edge.serve(id, at, live_time);
    const bool recognized =
        r.released() && r.reported.kind == core::ReportKind::kTopLocation;
    out.tops.push_back({at.x, at.y, user.truth.weights[k], recognized ? 1ULL : 0ULL});
  }
}

void prepare_replay_user(core::ConcurrentEdge& edge, const rng::Engine& parent,
                         const rng::Engine& splits, std::size_t index,
                         UserPrep& out) {
  const trace::SyntheticUser user =
      trace::generate_user(parent, trace::SyntheticConfig{}, index);
  const std::uint64_t id = user.trace.user_id;
  const trace::Timestamp window = core::EdgeConfig{}.management.window_seconds;
  const trace::Timestamp mid =
      trace::kStudyStart + (trace::kStudyEnd - trace::kStudyStart) / 2;
  // History before a per-user split is imported; the check-ins between the
  // split and the midpoint are served live. The splits are spread over
  // one window, so the users' windows roll over evenly through the replay.
  rng::Engine engine = splits.split(index);
  const trace::Timestamp split =
      mid - static_cast<trace::Timestamp>(
                engine.uniform_index(static_cast<std::uint64_t>(window)));
  edge.import_history(id, trace::slice_by_time(user.trace, trace::kStudyStart, split));
  for (const trace::CheckIn& c : user.trace.check_ins) {
    if (c.time < split) continue;
    const CheckInRecord record{id, c.position.x, c.position.y, c.time};
    if (c.time < mid) {
      (void)edge.serve(id, c.position, c.time);
      out.pending.push_back(record);
    } else {
      out.stream.push_back(record);
    }
  }
}

}  // namespace

util::Result<WorkloadKind> parse_workload(const std::string& name) {
  if (name == "steady_top") return WorkloadKind::kSteadyTop;
  if (name == "trace_replay") return WorkloadKind::kTraceReplay;
  if (name == "burst_overload") return WorkloadKind::kBurstOverload;
  return util::Status::invalid_argument("unknown workload: " + name);
}

const char* workload_name(WorkloadKind kind) {
  switch (kind) {
    case WorkloadKind::kSteadyTop: return "steady_top";
    case WorkloadKind::kTraceReplay: return "trace_replay";
    case WorkloadKind::kBurstOverload: return "burst_overload";
  }
  return "unknown";
}

const char* population_name(WorkloadKind kind) {
  return kind == WorkloadKind::kTraceReplay ? "replay" : "steady";
}

core::EdgeConfig edge_config(std::uint64_t seed) {
  return core::EdgeConfig{}.with_seed(seed);
}

PreparedFiles prepared_files(const std::string& cache_dir, WorkloadKind kind,
                             std::uint64_t seed) {
  const std::string stem = cache_dir + "/" + population_name(kind) + "-s" +
                           std::to_string(seed);
  return {stem + ".snap", stem + ".side"};
}

util::Status prepare(const std::string& cache_dir, WorkloadKind kind,
                     std::uint64_t seed) {
  const PreparedFiles files = prepared_files(cache_dir, kind, seed);
  if (exists(files.snapshot) && exists(files.sidecar)) return util::Status();

  const bool steady = kind != WorkloadKind::kTraceReplay;
  const std::size_t users = steady ? kSteadyUsers : kReplayUsers;
  const rng::Engine parent = rng::Engine(seed).split(steady ? 11 : 12);
  const rng::Engine splits = rng::Engine(seed).split(13);
  Sidecar sidecar;
  sidecar.users = users;
  sidecar.live_time = trace::kStudyEnd + trace::kSecondsPerDay;

  core::ConcurrentEdge edge(edge_config(seed));
  std::vector<UserPrep> prep(users);
  privlocad::par::parallel_for(0, users, [&](std::size_t i) {
    if (steady) {
      prepare_steady_user(edge, parent, i, sidecar.live_time, prep[i]);
    } else {
      prepare_replay_user(edge, parent, splits, i, prep[i]);
    }
  });

  sidecar.top_begin.push_back(0);
  for (UserPrep& p : prep) {
    if (steady) sidecar.check_ins.push_back(p.check_ins);
    sidecar.tops.insert(sidecar.tops.end(), p.tops.begin(), p.tops.end());
    sidecar.top_begin.push_back(sidecar.tops.size());
    sidecar.pending.insert(sidecar.pending.end(), p.pending.begin(),
                           p.pending.end());
    sidecar.stream.insert(sidecar.stream.end(), p.stream.begin(), p.stream.end());
    p = UserPrep{};
  }
  std::stable_sort(sidecar.stream.begin(), sidecar.stream.end(),
                   [](const CheckInRecord& a, const CheckInRecord& b) {
                     return a.time < b.time;
                   });

  if (util::Status s = edge.save_snapshot(files.snapshot); !s.ok()) return s;
  return write_sidecar(files.sidecar, sidecar);
}

util::Status read_sidecar(const std::string& path, Sidecar& out) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return util::Status::io_error("cannot read " + path);
  std::uint64_t header[4] = {};
  const bool ok = std::fread(header, sizeof(header), 1, f) == 1 &&
                  header[0] == kSidecarMagic && header[1] == kSidecarVersion &&
                  read_vector(f, out.tops) && read_vector(f, out.top_begin) &&
                  read_vector(f, out.check_ins) && read_vector(f, out.pending) &&
                  read_vector(f, out.stream);
  std::fclose(f);
  // Planner indexes top_begin[user + 1] and tops[top_begin[...]], and
  // draws steady users from check_ins.
  const bool consistent =
      ok && out.top_begin.size() == header[2] + 1 &&
      (out.check_ins.empty() || out.check_ins.size() == header[2]) &&
      std::is_sorted(out.top_begin.begin(), out.top_begin.end()) &&
      out.top_begin.back() == out.tops.size();
  if (!consistent) return util::Status::parse_error("damaged sidecar: " + path);
  out.users = header[2];
  out.live_time = static_cast<std::int64_t>(header[3]);
  return util::Status();
}

Planner::Planner(WorkloadKind kind, std::uint64_t seed, const Sidecar& sidecar)
    : kind_(kind), seed_(seed), sidecar_(sidecar) {
  double total = 0.0;
  for (const std::uint64_t n : sidecar.check_ins) {
    total += static_cast<double>(n);
    popularity_cdf_.push_back(total);
  }
}

util::Result<std::vector<PlannedRequest>> Planner::plan(const PhaseSpec& phase) {
  ++phases_;
  net::LoadPlanConfig arrivals_config;
  arrivals_config.target_rps = phase.rate_rps;
  arrivals_config.duration_s = phase.duration_s;
  arrivals_config.process =
      phase.bursty ? net::ArrivalProcess::kBursty : net::ArrivalProcess::kPoisson;
  // Only the arrival times are used: users come from the check-in counts
  // below, or from the replay stream.
  arrivals_config.users = 1;
  rng::Engine arrivals_seed = rng::Engine(seed_).split(100 + phases_);
  arrivals_config.seed = arrivals_seed();
  const std::vector<net::TimedRequest> arrivals =
      net::build_open_loop_plan(arrivals_config);

  std::vector<PlannedRequest> plan(arrivals.size());
  if (kind_ == WorkloadKind::kTraceReplay) {
    // The stream repeats, shifted past its own end each lap, so every
    // user's check-ins keep moving forward in time and windows keep
    // rolling over however far a run climbs.
    const std::vector<CheckInRecord>& stream = sidecar_.stream;
    if (stream.empty()) {
      return util::Status::failed_precondition("the replay stream is empty");
    }
    const std::int64_t lap_shift =
        stream.back().time - stream.front().time + trace::kSecondsPerDay;
    for (std::size_t i = 0; i < plan.size(); ++i) {
      const CheckInRecord& c = stream[cursor_ % stream.size()];
      const auto lap = static_cast<std::int64_t>(cursor_ / stream.size());
      ++cursor_;
      plan[i].at_s = arrivals[i].at_s;
      plan[i].frame = {0, c.user, c.x, c.y, c.time + lap * lap_shift};
    }
    return plan;
  }

  if (popularity_cdf_.empty() || popularity_cdf_.back() <= 0.0) {
    return util::Status::failed_precondition("the steady population has no check-ins");
  }
  rng::Engine place = rng::Engine(seed_).split(1000 + phases_);
  rng::Engine who = rng::Engine(seed_).split(2000 + phases_);
  const double half = trace::SyntheticConfig{}.area_half_extent_m;
  for (std::size_t i = 0; i < plan.size(); ++i) {
    const double pick = who.uniform() * popularity_cdf_.back();
    const auto user = static_cast<std::uint64_t>(
        std::upper_bound(popularity_cdf_.begin(), popularity_cdf_.end() - 1, pick) -
        popularity_cdf_.begin());
    const std::size_t begin = sidecar_.top_begin[user];
    const std::size_t end = sidecar_.top_begin[user + 1];
    PlannedRequest& p = plan[i];
    p.at_s = arrivals[i].at_s;
    p.frame.user_id = user;
    p.frame.time = sidecar_.live_time + static_cast<std::int64_t>(sequence_++ % 3600);
    // Recognised tops take their ground-truth weight; everything else is
    // a fresh nomadic spot.
    double u = place.uniform();
    for (std::size_t k = begin; k < end && p.top_key < 0; ++k) {
      const TopSpot& top = sidecar_.tops[k];
      if (top.recognized == 0) continue;
      if (u < top.weight) {
        p.top_key = static_cast<std::int64_t>(k);
        p.frame.x = top.x + place.uniform_in(-kTopJitterM, kTopJitterM);
        p.frame.y = top.y + place.uniform_in(-kTopJitterM, kTopJitterM);
      }
      u -= top.weight;
    }
    if (p.top_key >= 0) continue;
    bool clear = false;
    while (!clear) {
      p.frame.x = place.uniform_in(-half, half);
      p.frame.y = place.uniform_in(-half, half);
      clear = true;
      for (std::size_t k = begin; k < end; ++k) {
        const double dx = p.frame.x - sidecar_.tops[k].x;
        const double dy = p.frame.y - sidecar_.tops[k].y;
        if (dx * dx + dy * dy < kNomadicClearanceM * kNomadicClearanceM) clear = false;
      }
    }
  }
  return plan;
}

}  // namespace edgebench
