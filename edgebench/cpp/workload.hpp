// The benchmark's workloads: the seeded populations behind them, the
// snapshot each run opens, and the request plans the generator drives.
//
//   steady_top      read path. A large population with profiles and frozen
//                   n-fold tables; requests hit each user's top locations
//                   (or fresh nomadic spots) inside the current window, so
//                   no profile rebuilds and no new noise draws happen.
//   trace_replay    write path. A smaller population whose traces are
//                   replayed in time order from the study midpoint; the
//                   90-day windows roll over during the run.
//   burst_overload  steady_top content under on/off bursty arrivals.
//
// Preparation (population, snapshot, sidecar) is deterministic in the seed
// and happens once per seed and build, outside every timed number.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "checks.hpp"
#include "core/edge_device.hpp"
#include "util/status.hpp"

namespace edgebench {

enum class WorkloadKind { kSteadyTop, kTraceReplay, kBurstOverload };

/// Parses a workload name; kInvalidArgument for anything else.
privlocad::util::Result<WorkloadKind> parse_workload(const std::string& name);
const char* workload_name(WorkloadKind kind);

/// The population a workload runs on ("steady" is shared by steady_top and
/// burst_overload).
const char* population_name(WorkloadKind kind);

/// The serving configuration every box in the benchmark uses.
privlocad::core::EdgeConfig edge_config(std::uint64_t seed);

/// One ground-truth top location of one user.
struct TopSpot {
  double x = 0.0;
  double y = 0.0;
  double weight = 0.0;
  /// 1 when the prepared box serves it from a frozen table.
  std::uint64_t recognized = 0;
};

/// One check-in on the wire: who, where, when.
struct CheckInRecord {
  std::uint64_t user = 0;
  double x = 0.0;
  double y = 0.0;
  std::int64_t time = 0;
};

/// What a run needs to know about its prepared population besides the
/// snapshot itself.
struct Sidecar {
  std::uint64_t users = 0;
  /// Request timestamps for the steady population start here: inside the
  /// window each user's prepared box has open.
  std::int64_t live_time = 0;
  /// Steady population: tops grouped by user; user u owns
  /// tops[top_begin[u] .. top_begin[u + 1]).
  std::vector<TopSpot> tops;
  std::vector<std::uint64_t> top_begin;
  /// Steady population: every user's check-in count. Each check-in of a
  /// trace is an ad request, so a user's requests arrive in proportion to
  /// it.
  std::vector<std::uint64_t> check_ins;
  /// Replay population: every user's open profile window at snapshot
  /// time, grouped by user in time order (the traced run mirrors window
  /// roll-overs from it). The steady population's windows cannot roll
  /// over during a run, so it leaves this empty.
  std::vector<CheckInRecord> pending;
  /// Replay population: the request stream, in time order. Plans replay
  /// it in laps, each shifted past the previous one's end.
  std::vector<CheckInRecord> stream;
};

/// Paths of a prepared population in `cache_dir`.
struct PreparedFiles {
  std::string snapshot;
  std::string sidecar;
};
PreparedFiles prepared_files(const std::string& cache_dir, WorkloadKind kind,
                             std::uint64_t seed);

/// Builds the population of `kind` from `seed`, drives it into a box and
/// writes the snapshot and sidecar. Skips the work when both files exist.
privlocad::util::Status prepare(const std::string& cache_dir,
                                WorkloadKind kind, std::uint64_t seed);

privlocad::util::Status read_sidecar(const std::string& path, Sidecar& out);

/// One phase of arrivals: a mean rate over a duration, Poisson or on/off
/// bursty.
struct PhaseSpec {
  double rate_rps = 0.0;
  double duration_s = 0.0;
  bool bursty = false;
};

/// Makes request plans for one run. Each plan draws its arrivals from the
/// seed and a per-phase stream number, so the same seed gives the same
/// plans; the replay workload consumes its stream in order across plans.
/// On the steady population a request's user is drawn in proportion to
/// the user's check-in count.
class Planner {
 public:
  Planner(WorkloadKind kind, std::uint64_t seed, const Sidecar& sidecar);

  /// kFailedPrecondition when the replay stream is empty or the steady
  /// population has no check-ins.
  privlocad::util::Result<std::vector<PlannedRequest>> plan(const PhaseSpec& phase);

 private:
  WorkloadKind kind_;
  std::uint64_t seed_;
  const Sidecar& sidecar_;
  /// Steady population: cumulative check-in counts, user by user.
  std::vector<double> popularity_cdf_;
  std::uint64_t phases_ = 0;
  std::size_t cursor_ = 0;
  std::uint64_t sequence_ = 0;
};

}  // namespace edgebench
