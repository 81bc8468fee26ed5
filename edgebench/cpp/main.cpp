// edgebench: the repository benchmark.
//
//   edgebench prepare --workload W --seed N --cache DIR
//   edgebench run --workload W --seed N --seconds S --trace 0|1 --cache DIR
//                 --build-type T [--spans DIR]
//
// `run` boots an EdgeServer (1 IO thread, 2 workers) in this process on a
// snapshot `prepare` made, connects the open-loop generator (one thread, 4
// connections) and drives the workload's fixed-rate windows. It checks
// every response and prints one JSON line last. With --trace 1 it runs the
// traced ledger and the knee search instead and reports per-layer metrics.
#include <cstdio>
#include <string>
#include <thread>

#include "net/io_backend.hpp"
#include "runner.hpp"
#include "simd/dispatch.hpp"
#include "workload.hpp"

namespace edgebench {
namespace {

namespace net = privlocad::net;
namespace util = privlocad::util;

struct Args {
  std::string command;
  std::string workload;
  std::string cache = ".";
  std::string spans;
  std::string build_type;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
};

bool parse_args(int argc, char** argv, Args& args) {
  if (argc < 2 || argc % 2 != 0) return false;  // a command, then key/value pairs
  args.command = argv[1];
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    try {
      if (key == "--workload") args.workload = value;
      else if (key == "--cache") args.cache = value;
      else if (key == "--spans") args.spans = value;
      else if (key == "--build-type") args.build_type = value;
      else if (key == "--seed") args.seed = std::stoull(value);
      else if (key == "--seconds") args.seconds = std::stod(value);
      else if (key == "--trace") args.trace = std::stoi(value);
      else return false;
    } catch (const std::exception&) {
      return false;
    }
  }
  return !args.workload.empty() && args.seconds > 0.0 &&
         (args.trace == 0 || args.trace == 1);
}

void print_provenance(const Args& args, net::IoBackendKind backend) {
  std::printf(
      "provenance: build_type=%s compiler=\"%s\" flags=\"%s\" cpu_features=%s "
      "simd=%s io_backend=%s nproc=%u seed=%llu\n",
      EDGEBENCH_BUILD_TYPE, __VERSION__, EDGEBENCH_BUILD_FLAGS,
      privlocad::simd::cpu_features_string().c_str(),
      privlocad::simd::dispatch_level_name(privlocad::simd::active_dispatch_level()),
      net::io_backend_kind_name(backend), std::thread::hardware_concurrency(),
      static_cast<unsigned long long>(args.seed));
}

int run(const Args& args, WorkloadKind kind) {
  const PreparedFiles files = prepared_files(args.cache, kind, args.seed);
  Sidecar sidecar;
  if (util::Status s = read_sidecar(files.sidecar, sidecar); !s.ok()) {
    std::fprintf(stderr, "edgebench: %s\n", s.to_string().c_str());
    return 1;
  }
  RunConfig config;
  config.kind = kind;
  config.seed = args.seed;
  config.seconds = args.seconds;
  config.snapshot = files.snapshot;
  config.spans_dir = args.spans;

  util::Result<RunReport> report =
      args.trace == 0 ? run_untraced(config, sidecar) : run_traced(config, sidecar);
  if (!report.ok()) {
    std::fprintf(stderr, "edgebench: %s\n", report.status().to_string().c_str());
    return 1;
  }
  print_provenance(args, report.value().backend);
  for (const std::string& line : report.value().lines) std::printf("%s\n", line.c_str());
  std::printf("%s\n", report.value().to_json().c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace edgebench

int main(int argc, char** argv) {
  using namespace edgebench;
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: edgebench prepare|run --workload W --seed N "
                 "[--seconds S] [--trace 0|1] [--cache DIR] "
                 "[--build-type T] [--spans DIR]\n");
    return 2;
  }
  privlocad::util::Result<WorkloadKind> kind = parse_workload(args.workload);
  if (!kind.ok()) {
    std::fprintf(stderr, "edgebench: %s\n", kind.status().to_string().c_str());
    return 2;
  }
  if (args.command == "prepare") {
    const privlocad::util::Status s = prepare(args.cache, kind.value(), args.seed);
    if (!s.ok()) {
      std::fprintf(stderr, "edgebench: %s\n", s.to_string().c_str());
      return 1;
    }
    return 0;
  }
  if (args.command == "run") {
    if (args.build_type != EDGEBENCH_BUILD_TYPE) {
      std::fprintf(stderr,
                   "edgebench: built as '%s' but the benchmark names '%s'; "
                   "refusing to report\n",
                   EDGEBENCH_BUILD_TYPE, args.build_type.c_str());
      return 1;
    }
    return run(args, kind.value());
  }
  return 2;
}
