// edge_serverd: ConcurrentEdge behind a loopback socket.
//
// The serving daemon the open-loop bench and the ctest smoke drive. Two
// modes:
//   edge_serverd [--port N] [--shards N] [--workers N]
//                [--queue-capacity N] [--seed N]
//                [--admission=queue_capacity|latency_budget]
//                [--latency-budget-us N]
//     Runs until SIGINT/SIGTERM, then stops cleanly and dumps the
//     metrics registry to stdout.
//   edge_serverd --selftest[=N]
//     Boots on an ephemeral port, drives N requests through a loopback
//     client, verifies the fail-private wire contract and counter
//     consistency, shuts down, exits 0/1. This is the ctest smoke.
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>

#include "core/telemetry.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "trace/check_in.hpp"

namespace {

volatile std::sig_atomic_t g_stop = 0;

void handle_signal(int) { g_stop = 1; }

/// `--name=V` or `--name V`; returns `fallback` when absent.
std::uint64_t flag_or(int argc, char** argv, const char* name,
                      std::uint64_t fallback) {
  const std::string prefix = std::string(name) + "=";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind(prefix, 0) == 0) {
      return std::strtoull(arg.c_str() + prefix.size(), nullptr, 10);
    }
    if (arg == name && i + 1 < argc) {
      return std::strtoull(argv[i + 1], nullptr, 10);
    }
  }
  return fallback;
}

/// `--name=V` or `--name V` as a string; `fallback` when absent.
std::string string_flag_or(int argc, char** argv, const char* name,
                           const char* fallback) {
  const std::string prefix = std::string(name) + "=";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind(prefix, 0) == 0) return arg.substr(prefix.size());
    if (arg == name && i + 1 < argc) return argv[i + 1];
  }
  return fallback;
}

bool has_flag(int argc, char** argv, const char* name) {
  const std::string prefix = std::string(name) + "=";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == name || arg.rfind(prefix, 0) == 0) return true;
  }
  return false;
}

int selftest(privlocad::net::EdgeServer& server, std::uint64_t requests) {
  using namespace privlocad;
  util::Result<net::BlockingClient> client =
      net::BlockingClient::connect(server.port());
  if (!client.ok()) {
    std::fprintf(stderr, "selftest: connect failed: %s\n",
                 client.status().to_string().c_str());
    return 1;
  }
  std::uint64_t released = 0;
  for (std::uint64_t i = 0; i < requests; ++i) {
    net::ServeRequestFrame request;
    request.request_id = i;
    request.user_id = 1 + (i % 8);
    request.x = 1000.0 + static_cast<double>(i % 8) * 10.0;
    request.y = 2000.0;
    request.time = trace::kStudyStart + static_cast<std::int64_t>(i);
    util::Result<net::ServeResponseFrame> response =
        client->call(request);
    if (!response.ok()) {
      std::fprintf(stderr, "selftest: request %llu failed: %s\n",
                   static_cast<unsigned long long>(i),
                   response.status().to_string().c_str());
      return 1;
    }
    if (response->request_id != i) {
      std::fprintf(stderr, "selftest: response id mismatch\n");
      return 1;
    }
    if (response->released != 0) {
      ++released;
      // Fail-private: the released location must be obfuscated, never
      // the raw coordinates we sent.
      if (response->x == request.x && response->y == request.y) {
        std::fprintf(stderr, "selftest: raw coordinate leaked\n");
        return 1;
      }
    } else if (response->x != 0.0 || response->y != 0.0) {
      std::fprintf(stderr, "selftest: non-released frame carries coords\n");
      return 1;
    }
  }
  const std::uint64_t seen =
      server.metrics().counter_value(privlocad::net::net_metrics::kRequests);
  if (seen != requests || released == 0) {
    std::fprintf(stderr,
                 "selftest: counters inconsistent (requests=%llu "
                 "released=%llu)\n",
                 static_cast<unsigned long long>(seen),
                 static_cast<unsigned long long>(released));
    return 1;
  }
  std::printf("selftest: %llu requests, %llu released, all obfuscated\n",
              static_cast<unsigned long long>(requests),
              static_cast<unsigned long long>(released));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace privlocad;

  core::EdgeConfig edge_config;
  edge_config.seed = flag_or(argc, argv, "--seed", 1);
  edge_config.shards =
      static_cast<std::size_t>(flag_or(argc, argv, "--shards", 4));

  const std::string admission_name =
      string_flag_or(argc, argv, "--admission", "queue_capacity");
  util::Result<net::AdmissionPolicy> admission =
      net::parse_admission_policy(admission_name.c_str());
  if (!admission.ok()) {
    std::fprintf(stderr, "edge_serverd: %s\n",
                 admission.status().to_string().c_str());
    return 1;
  }

  const net::ServerConfig server_config =
      net::ServerConfig{}
          .with_port(
              static_cast<std::uint32_t>(flag_or(argc, argv, "--port", 0)))
          .with_workers(
              static_cast<std::size_t>(flag_or(argc, argv, "--workers", 2)))
          .with_queue_capacity(static_cast<std::size_t>(
              flag_or(argc, argv, "--queue-capacity", 1024)))
          .with_admission(admission.value())
          .with_latency_budget_us(static_cast<std::uint32_t>(
              flag_or(argc, argv, "--latency-budget-us", 20000)));

  // No exceptions to catch: every failure (bad port, bind failure, IO
  // setup) comes back as a typed Status.
  util::Result<std::unique_ptr<net::EdgeServer>> created =
      net::EdgeServer::create(edge_config, server_config);
  if (!created.ok()) {
    std::fprintf(stderr, "edge_serverd: create failed: %s\n",
                 created.status().to_string().c_str());
    return 1;
  }
  net::EdgeServer& server = *created.value();
  if (util::Status s = server.start(); !s.ok()) {
    std::fprintf(stderr, "edge_serverd: start failed: %s\n",
                 s.to_string().c_str());
    return 1;
  }

  if (has_flag(argc, argv, "--selftest")) {
    const std::uint64_t n = flag_or(argc, argv, "--selftest", 32);
    const int rc = selftest(server, n == 0 ? 32 : n);
    server.stop();
    return rc;
  }

  std::signal(SIGINT, handle_signal);
  std::signal(SIGTERM, handle_signal);
  std::printf("edge_serverd listening on 127.0.0.1:%u (%s backend, %s "
              "admission)\n",
              static_cast<unsigned>(server.port()),
              net::io_backend_kind_name(server.backend_kind()),
              net::admission_policy_name(server_config.admission));
  std::fflush(stdout);
  while (g_stop == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  server.stop();
  std::printf("%s", server.metrics().to_string().c_str());
  return 0;
}
