// Tests for the columnar data plane: UserArena equivalence with the
// legacy per-user modules, snapshot round-trips (bit-identical serving
// across save / mmap-open), the snapshot checksum and format versions,
// corruption handling, all-or-nothing opens, and shard-count invariance
// of the per-user RNG streams.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <tuple>
#include <vector>

#include "core/concurrent_edge.hpp"
#include "core/edge_device.hpp"
#include "core/output_selection.hpp"
#include "core/snapshot.hpp"
#include "core/user_arena.hpp"
#include "lppm/gaussian.hpp"
#include "rng/engine.hpp"
#include "simd/soa.hpp"
#include "trace/check_in.hpp"
#include "util/status.hpp"

namespace privlocad {
namespace {

core::EdgeConfig fast_config() {
  core::EdgeConfig c;
  c.top_params.radius_m = 500.0;
  c.top_params.epsilon = 1.0;
  c.top_params.delta = 0.01;
  c.top_params.n = 10;
  c.management.window_seconds = 1000;
  return c;
}

std::string temp_path(const std::string& name) {
  return testing::TempDir() + name;
}

/// A served output reduced to comparable bits: outcome, kind, and the
/// exact coordinate bit patterns (bit-identity is the contract).
using ServedBits =
    std::tuple<int, int, std::uint64_t, std::uint64_t, std::uint32_t>;

ServedBits bits_of(const core::ServeResult& r) {
  return {static_cast<int>(r.outcome), static_cast<int>(r.reported.kind),
          std::bit_cast<std::uint64_t>(r.reported.location.x),
          std::bit_cast<std::uint64_t>(r.reported.location.y), r.retries};
}

/// One user's deterministic mixed workload: check-ins at home (top after
/// the import) interleaved with far-away nomadic positions.
std::vector<trace::CheckIn> probe_stream(std::uint64_t user_id, int n) {
  std::vector<trace::CheckIn> probes;
  const geo::Point home{1000.0 * static_cast<double>(user_id % 97), 500.0};
  for (int i = 0; i < n; ++i) {
    const trace::Timestamp t = trace::kStudyStart + 2000 + i * 17;
    if (i % 3 == 2) {
      probes.push_back({{home.x + 40000.0, home.y - 35000.0 + i}, t});
    } else {
      probes.push_back({home, t});
    }
  }
  return probes;
}

trace::UserTrace history_for(std::uint64_t user_id, int check_ins = 40) {
  trace::UserTrace history;
  history.user_id = user_id;
  const geo::Point home{1000.0 * static_cast<double>(user_id % 97), 500.0};
  for (int i = 0; i < check_ins; ++i) {
    history.check_ins.push_back({home, trace::kStudyStart + i * 13});
  }
  return history;
}

// ------------------------------------------------- arena golden equivalence

/// FNV-1a over a sequence of fixed-size values: a behaviour digest.
struct Digest {
  std::uint64_t h = core::snapshot::kFnvOffsetBasis;
  template <typename T>
  void add(T value) {
    h = core::snapshot::fnv1a64(&value, sizeof(value), h);
  }
  void add(const attack::ProfileEntry& e) {
    add(e.frequency);
    add(std::bit_cast<std::uint64_t>(e.location.x));
    add(std::bit_cast<std::uint64_t>(e.location.y));
  }
};

/// Digest of the arena's management state: profile, top set, counts.
void add_management_state(Digest& d, const core::UserArena& arena,
                          core::UserArena::Row row) {
  d.add(static_cast<std::uint64_t>(arena.profile_size(row)));
  for (std::size_t i = 0; i < arena.profile_size(row); ++i) {
    d.add(arena.profile_entry(row, i));
  }
  d.add(static_cast<std::uint64_t>(arena.top_size(row)));
  for (std::size_t i = 0; i < arena.top_size(row); ++i) {
    d.add(arena.top_entry(row, i));
  }
  d.add(static_cast<std::uint64_t>(arena.pending_check_ins(row)));
  d.add(static_cast<std::uint64_t>(arena.total_check_ins(row)));
}

// Golden: the digest of every per-check-in rebuild flag, the final profile
// and top set (frequencies and coordinate bits), and the pending/total
// counts. The same digest computed over the per-user LocationManager class
// the arena replaced was 84fbbb3f2cca6f94, so this pins the arena to that
// class's windowing, profiling and eta/min-frequency semantics.
TEST(UserArena, MatchesLocationManagerThroughManyWindows) {
  const core::LocationManagementConfig config{
      .window_seconds = 500, .min_window_check_ins = 5};
  core::UserArena arena{rng::Engine(7)};
  const core::UserArena::Row row = arena.find_or_create(42);

  // Two alternating anchors plus drift so rebuilds produce multi-entry
  // profiles whose top sets actually change across windows.
  rng::Engine jitter(99);
  Digest digest;
  std::size_t rebuilds = 0;
  for (int i = 0; i < 4000; ++i) {
    const bool at_home = i % 3 != 1;
    const geo::Point p{(at_home ? 0.0 : 5000.0) + jitter.uniform() * 10.0,
                       (at_home ? 0.0 : -3000.0) + jitter.uniform() * 10.0};
    const trace::Timestamp t = trace::kStudyStart + i * 40;
    const bool rebuilt = arena.record(row, p, t, config);
    rebuilds += rebuilt ? 1 : 0;
    digest.add(static_cast<std::uint8_t>(rebuilt));
  }
  ASSERT_TRUE(arena.has_profile(row));
  add_management_state(digest, arena, row);
  EXPECT_GT(rebuilds, 100u);
  EXPECT_EQ(arena.profile_size(row), 2u);
  EXPECT_EQ(arena.top_size(row), 2u);
  EXPECT_EQ(arena.total_check_ins(row), 4000u);
  EXPECT_EQ(digest.h, 0x84fbbb3f2cca6f94ULL);

  // Compaction is a pure storage transform: state must be unchanged.
  Digest before;
  add_management_state(before, arena, row);
  arena.compact();
  Digest after;
  add_management_state(after, arena, row);
  EXPECT_EQ(before.h, after.h);
}

TEST(UserArena, DirectoryScalesToManyUsers) {
  core::UserArena arena{rng::Engine(3)};
  constexpr std::uint64_t kUsers = 10000;
  for (std::uint64_t u = 0; u < kUsers; ++u) {
    const core::UserArena::Row row = arena.find_or_create(u * 977 + 5);
    ASSERT_EQ(arena.user_id(row), u * 977 + 5);
  }
  EXPECT_EQ(arena.size(), kUsers);
  for (std::uint64_t u = 0; u < kUsers; ++u) {
    const core::UserArena::Row row = arena.find(u * 977 + 5);
    ASSERT_NE(row, core::UserArena::kNoRow);
    EXPECT_EQ(arena.user_id(row), u * 977 + 5);
  }
  EXPECT_EQ(arena.find(123456789), core::UserArena::kNoRow);
}

// ------------------------------------------------------ selection span API

TEST(OutputSelectionSpan, SpanAndVectorOverloadsAgreeBitwise) {
  std::vector<geo::Point> candidates;
  rng::Engine e(11);
  for (int i = 0; i < 10; ++i) {
    candidates.push_back({e.uniform() * 1000.0, e.uniform() * 1000.0});
  }
  simd::SoaPoints soa;
  soa.assign(candidates);

  const std::vector<double> from_vector =
      core::selection_probabilities(candidates, 300.0);
  const std::vector<double> from_span =
      core::selection_probabilities(soa.span(), 300.0);
  ASSERT_EQ(from_vector.size(), from_span.size());
  for (std::size_t i = 0; i < from_vector.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(from_vector[i]),
              std::bit_cast<std::uint64_t>(from_span[i]));
  }

  rng::Engine ev(21), es(21);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(core::select_candidate(ev, candidates, 300.0),
              core::select_candidate(es, soa.span(), 300.0));
  }
}

// -------------------------------------------------- snapshot round-tripping

TEST(Snapshot, EdgeDeviceRoundTripServesBitIdentically) {
  const std::string path = temp_path("device_roundtrip.snap");
  constexpr int kUsers = 30;

  core::EdgeDevice saved(fast_config().with_seed(5));
  for (int u = 1; u <= kUsers; ++u) {
    saved.import_history(u, history_for(u));
    // Warm some frozen candidate sets pre-snapshot.
    (void)saved.serve(u, probe_stream(u, 1)[0].position,
                      trace::kStudyStart + 1500);
  }
  saved.set_user_privacy(3, {.radius_m = 250.0, .epsilon = 2.0,
                             .delta = 0.01, .n = 5});
  ASSERT_TRUE(saved.save_snapshot(path).ok());

  core::EdgeDevice reopened(fast_config().with_seed(5));
  ASSERT_TRUE(reopened.open_snapshot(path).ok());
  EXPECT_EQ(reopened.user_count(), saved.user_count());
  EXPECT_GT(reopened.data_plane_mapped_bytes(), 0u);

  // Same probe streams through both devices: every served output must be
  // bit-identical, including the personalized-params user.
  const core::EdgeTelemetry tel_a0 = saved.telemetry();
  const core::EdgeTelemetry tel_b0 = reopened.telemetry();
  for (int u = 1; u <= kUsers; ++u) {
    for (const trace::CheckIn& c : probe_stream(u, 30)) {
      const core::ServeResult a = saved.serve(u, c.position, c.time);
      const core::ServeResult b = reopened.serve(u, c.position, c.time);
      ASSERT_EQ(bits_of(a), bits_of(b)) << "user " << u;
    }
  }
  EXPECT_EQ(std::bit_cast<std::uint64_t>(
                reopened.user_privacy(3).radius_m),
            std::bit_cast<std::uint64_t>(saved.user_privacy(3).radius_m));

  // The outcome-counter deltas partition identically too.
  const core::EdgeTelemetry tel_a = saved.telemetry();
  const core::EdgeTelemetry tel_b = reopened.telemetry();
  EXPECT_EQ(tel_a.requests - tel_a0.requests,
            tel_b.requests - tel_b0.requests);
  EXPECT_EQ(tel_a.top_reports - tel_a0.top_reports,
            tel_b.top_reports - tel_b0.top_reports);
  EXPECT_EQ(tel_a.nomadic_reports - tel_a0.nomadic_reports,
            tel_b.nomadic_reports - tel_b0.nomadic_reports);
  EXPECT_EQ(tel_a.tables_generated - tel_a0.tables_generated,
            tel_b.tables_generated - tel_b0.tables_generated);
  std::remove(path.c_str());
}

TEST(Snapshot, ConcurrentEdgeRoundTripAtEveryShardCount) {
  for (const std::size_t shards : {std::size_t{1}, std::size_t{2},
                                   std::size_t{8}}) {
    const std::string path =
        temp_path("edge_roundtrip_" + std::to_string(shards) + ".snap");
    core::ConcurrentEdge saved(
        fast_config().with_seed(9).with_shards(shards));
    for (int u = 1; u <= 20; ++u) {
      saved.import_history(u, history_for(u));
    }
    ASSERT_TRUE(saved.save_snapshot(path).ok());

    core::ConcurrentEdge reopened(
        fast_config().with_seed(9).with_shards(shards));
    ASSERT_TRUE(reopened.open_snapshot(path).ok());
    EXPECT_EQ(reopened.user_count(), saved.user_count());

    for (int u = 1; u <= 20; ++u) {
      for (const trace::CheckIn& c : probe_stream(u, 20)) {
        const core::ServeResult a = saved.serve(u, c.position, c.time);
        const core::ServeResult b = reopened.serve(u, c.position, c.time);
        ASSERT_EQ(bits_of(a), bits_of(b))
            << "user " << u << " at " << shards << " shards";
      }
    }
    std::remove(path.c_str());
  }
}

TEST(Snapshot, ServingIsShardCountInvariant) {
  // The same population at 1, 2, and 8 shards: every user's served
  // stream must be bit-identical, because each user's randomness is an
  // engine split from (seed, user id), never shared shard state.
  std::vector<std::vector<ServedBits>> per_shard_outputs;
  for (const std::size_t shards : {std::size_t{1}, std::size_t{2},
                                   std::size_t{8}}) {
    core::ConcurrentEdge edge(
        fast_config().with_seed(31).with_shards(shards));
    std::vector<ServedBits> outputs;
    for (int u = 1; u <= 25; ++u) {
      edge.import_history(u, history_for(u));
      for (const trace::CheckIn& c : probe_stream(u, 15)) {
        outputs.push_back(bits_of(edge.serve(u, c.position, c.time)));
      }
    }
    per_shard_outputs.push_back(std::move(outputs));
  }
  EXPECT_EQ(per_shard_outputs[0], per_shard_outputs[1]);
  EXPECT_EQ(per_shard_outputs[0], per_shard_outputs[2]);
}

// ------------------------------------------------------- crash safety

// Regression: save_snapshot must be atomic. A writer that dies mid-save
// (simulated by destroying it without finish()) must leave the previous
// complete file at the final path and no temp-file debris -- pre-fix the
// writer streamed straight into the target and a crash left a truncated,
// unopenable hybrid where a valid snapshot used to be.
TEST(Snapshot, AbandonedWriterLeavesExistingSnapshotIntact) {
  const std::string path = temp_path("atomic_overwrite.snap");
  core::EdgeDevice saved(fast_config().with_seed(7));
  saved.import_history(1, history_for(1));
  ASSERT_TRUE(saved.save_snapshot(path).ok());

  {
    core::snapshot::Writer dying(path, 1);
    dying.write_u64(0xDEADBEEFULL);
    const std::vector<std::uint64_t> column(4096, 42);
    dying.write_column(column);
    // Scope exit without finish(): the crash-unwinding path.
  }

  // The original snapshot still opens and validates.
  core::EdgeDevice fresh(fast_config().with_seed(7));
  EXPECT_TRUE(fresh.open_snapshot(path).ok());
  EXPECT_EQ(fresh.user_count(), 1u);
  // No temp file left behind.
  EXPECT_NE(::access((path + ".tmp").c_str(), F_OK), 0);
  std::remove(path.c_str());
}

TEST(Snapshot, AbandonedWriterCreatesNothingAtTheFinalPath) {
  const std::string path = temp_path("atomic_fresh.snap");
  std::remove(path.c_str());
  {
    core::snapshot::Writer dying(path, 1);
    dying.write_u64(1);
  }
  EXPECT_NE(::access(path.c_str(), F_OK), 0);
  EXPECT_NE(::access((path + ".tmp").c_str(), F_OK), 0);
}

TEST(Snapshot, FinishPublishesExactlyOnceAndCleansUp) {
  const std::string path = temp_path("atomic_publish.snap");
  core::EdgeDevice saved(fast_config().with_seed(7));
  saved.import_history(1, history_for(1));
  ASSERT_TRUE(saved.save_snapshot(path).ok());
  // The published file is complete and the temp name is gone.
  EXPECT_EQ(::access(path.c_str(), F_OK), 0);
  EXPECT_NE(::access((path + ".tmp").c_str(), F_OK), 0);
  core::EdgeDevice fresh(fast_config().with_seed(7));
  EXPECT_TRUE(fresh.open_snapshot(path).ok());
  std::remove(path.c_str());
}

TEST(Snapshot, UnwritableDirectoryIsATypedIoError) {
  core::snapshot::Writer writer("/nonexistent-dir-privlocad/file.snap", 1);
  EXPECT_EQ(writer.status().code(), util::ErrorCode::kIoError);
  writer.write_u64(1);  // latched: a no-op, not a crash
  EXPECT_EQ(writer.finish().code(), util::ErrorCode::kIoError);
}

// ---------------------------------------------------- corruption handling

TEST(Snapshot, CorruptedChecksumIsATypedParseError) {
  const std::string path = temp_path("corrupt.snap");
  core::EdgeDevice saved(fast_config().with_seed(2));
  saved.import_history(1, history_for(1));
  ASSERT_TRUE(saved.save_snapshot(path).ok());

  // Flip one payload byte past the header.
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fseek(f, core::snapshot::kHeaderBytes + 96, SEEK_SET), 0);
  const int byte = std::fgetc(f);
  ASSERT_NE(byte, EOF);
  ASSERT_EQ(std::fseek(f, -1, SEEK_CUR), 0);
  std::fputc(byte ^ 0x40, f);
  std::fclose(f);

  core::EdgeDevice fresh(fast_config().with_seed(2));
  const util::Status status = fresh.open_snapshot(path);
  EXPECT_EQ(status.code(), util::ErrorCode::kParseError);
  EXPECT_NE(status.message().find("checksum"), std::string::npos);
  EXPECT_EQ(fresh.user_count(), 0u);
  std::remove(path.c_str());
}

TEST(Snapshot, TruncationAndBadMagicAreTypedErrors) {
  const std::string truncated = temp_path("truncated.snap");
  core::EdgeDevice saved(fast_config().with_seed(2));
  saved.import_history(1, history_for(1));
  ASSERT_TRUE(saved.save_snapshot(truncated).ok());
  ASSERT_EQ(::truncate(truncated.c_str(), 100), 0);
  core::EdgeDevice fresh(fast_config().with_seed(2));
  EXPECT_EQ(fresh.open_snapshot(truncated).code(),
            util::ErrorCode::kParseError);
  std::remove(truncated.c_str());

  const std::string garbage = temp_path("garbage.snap");
  std::FILE* f = std::fopen(garbage.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  for (int i = 0; i < 200; ++i) std::fputc(i & 0xFF, f);
  std::fclose(f);
  core::EdgeDevice fresh2(fast_config().with_seed(2));
  EXPECT_EQ(fresh2.open_snapshot(garbage).code(),
            util::ErrorCode::kParseError);
  EXPECT_EQ(fresh2.open_snapshot("/nonexistent/dir/missing.snap").code(),
            util::ErrorCode::kIoError);
  std::remove(garbage.c_str());
}

TEST(Snapshot, PreconditionsAreTypedFailures) {
  const std::string path = temp_path("preconditions.snap");
  core::ConcurrentEdge saved(fast_config().with_seed(4).with_shards(2));
  saved.import_history(1, history_for(1));
  ASSERT_TRUE(saved.save_snapshot(path).ok());

  // Shard-count mismatch.
  core::ConcurrentEdge wrong_shards(
      fast_config().with_seed(4).with_shards(4));
  EXPECT_EQ(wrong_shards.open_snapshot(path).code(),
            util::ErrorCode::kFailedPrecondition);

  // A standalone device cannot open a multi-shard snapshot.
  core::EdgeDevice device(fast_config().with_seed(4));
  EXPECT_EQ(device.open_snapshot(path).code(),
            util::ErrorCode::kFailedPrecondition);

  // Opening over live users is refused.
  core::ConcurrentEdge busy(fast_config().with_seed(4).with_shards(2));
  busy.import_history(9, history_for(9));
  EXPECT_EQ(busy.open_snapshot(path).code(),
            util::ErrorCode::kFailedPrecondition);
  std::remove(path.c_str());
}

// ------------------------------------------------------ snapshot checksum

/// A deterministic byte pattern with every bit position exercised.
std::vector<std::uint8_t> pattern(std::size_t n) {
  std::vector<std::uint8_t> bytes(n);
  for (std::size_t i = 0; i < n; ++i) {
    bytes[i] = static_cast<std::uint8_t>((i * 2654435761ULL) >> 24);
  }
  return bytes;
}

struct Xxh64Vector {
  const char* name;
  std::string input;
  std::uint64_t expected;
};

// Without a printer gtest lists the parameter as its raw bytes, which hold
// pointers: the discovered test names would change with every link.
void PrintTo(const Xxh64Vector& v, std::ostream* os) {
  *os << v.input.size() << "-byte input";
}

std::string pattern_string(std::size_t n) {
  const std::vector<std::uint8_t> bytes = pattern(n);
  return std::string(bytes.begin(), bytes.end());
}

class Xxh64Vectors : public testing::TestWithParam<Xxh64Vector> {};

TEST_P(Xxh64Vectors, MatchesTheReference) {
  const Xxh64Vector& v = GetParam();
  EXPECT_EQ(core::snapshot::xxh64(v.input.data(), v.input.size()),
            v.expected);
  core::snapshot::Xxh64 streamed;
  for (const char c : v.input) streamed.update(&c, 1);
  EXPECT_EQ(streamed.digest(), v.expected);
}

// The first two are the published XXH64 test vectors; the rest are the
// reference implementation's values, covering the short-input tail (< 32
// bytes), exact stripe multiples, and the stripe path.
INSTANTIATE_TEST_SUITE_P(
    Table, Xxh64Vectors,
    testing::Values(
        Xxh64Vector{"empty", "", 0xEF46DB3751D8E999ULL},
        Xxh64Vector{"a", "a", 0xD24EC4F1A98C6E5BULL},
        Xxh64Vector{"abc", "abc", 0x44BC2CF5AD770999ULL},
        Xxh64Vector{"alphabet", "abcdefghijklmnopqrstuvwxyz",
                    0xCFE1F278FA89835CULL},
        Xxh64Vector{"p3", pattern_string(3), 0xA9CF36B41F9E7D09ULL},
        Xxh64Vector{"p4", pattern_string(4), 0x435F59A33B7EB3D1ULL},
        Xxh64Vector{"p8", pattern_string(8), 0x538CAC3B18F9EF8EULL},
        Xxh64Vector{"p31", pattern_string(31), 0x4071DD1310FA5DA9ULL},
        Xxh64Vector{"p32", pattern_string(32), 0x13EE8A64346F0691ULL},
        Xxh64Vector{"p33", pattern_string(33), 0xF75619499E2E2E99ULL},
        Xxh64Vector{"p64", pattern_string(64), 0xFB24D94DE825912FULL},
        Xxh64Vector{"p97", pattern_string(97), 0x857D60C623F07E54ULL}),
    [](const testing::TestParamInfo<Xxh64Vector>& info) {
      return std::string(info.param.name);
    });

TEST(Xxh64, StreamedEqualsOneShotAtEverySplitPoint) {
  const std::vector<std::uint8_t> bytes = pattern(97);
  for (std::size_t len = 0; len <= bytes.size(); ++len) {
    const std::uint64_t one_shot = core::snapshot::xxh64(bytes.data(), len);
    for (std::size_t split = 0; split <= len; ++split) {
      core::snapshot::Xxh64 streamed;
      streamed.update(bytes.data(), split);
      streamed.update(bytes.data() + split, len - split);
      ASSERT_EQ(streamed.digest(), one_shot)
          << "length " << len << " split at " << split;
    }
  }
}

class Xxh64Chunkings : public testing::TestWithParam<std::uint64_t> {};

TEST_P(Xxh64Chunkings, RandomChunkingOfOneMiBEqualsOneShot) {
  static const std::vector<std::uint8_t> bytes = pattern(std::size_t{1} << 20);
  ASSERT_EQ(core::snapshot::xxh64(bytes.data(), bytes.size()),
            0xFC4AA44E4C19D879ULL);
  // Chunk sizes mix the writer's small pieces (u64 scalars, padding,
  // short columns) with long column extents.
  rng::Engine engine(GetParam());
  core::snapshot::Xxh64 streamed;
  std::size_t offset = 0;
  while (offset < bytes.size()) {
    const std::size_t cap = engine.uniform_index(4) == 0 ? 70000 : 70;
    const std::size_t chunk = std::min<std::size_t>(
        engine.uniform_index(cap + 1), bytes.size() - offset);
    streamed.update(bytes.data() + offset, chunk);
    offset += chunk;
  }
  EXPECT_EQ(streamed.digest(), 0xFC4AA44E4C19D879ULL);
}

INSTANTIATE_TEST_SUITE_P(Seeds, Xxh64Chunkings,
                         testing::Values(1u, 2u, 3u, 17u, 2022u));

// ----------------------------------------------------- format versions

// Header field offsets (core/snapshot.hpp layout).
constexpr std::size_t kVersionOffset = 8;
constexpr std::size_t kChecksumOffset = 32;
/// The u64 every arena section starts with ("USERARNA", user_arena.cpp).
constexpr std::uint64_t kSectionTag = 0x414E524152455355ULL;

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::vector<std::uint8_t> bytes;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return bytes;
  for (int c = std::fgetc(f); c != EOF; c = std::fgetc(f)) {
    bytes.push_back(static_cast<std::uint8_t>(c));
  }
  std::fclose(f);
  return bytes;
}

void write_file(const std::string& path,
                const std::vector<std::uint8_t>& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);
}

template <typename T>
void put(std::vector<std::uint8_t>& bytes, std::size_t offset, T value) {
  std::memcpy(bytes.data() + offset, &value, sizeof(value));
}

/// Stamps `version` into the header and the checksum that version uses,
/// recomputed over the (possibly edited) payload.
void reseal(std::vector<std::uint8_t>& bytes, std::uint32_t version) {
  const std::uint8_t* payload = bytes.data() + core::snapshot::kHeaderBytes;
  const std::size_t n = bytes.size() - core::snapshot::kHeaderBytes;
  put(bytes, kVersionOffset, version);
  put(bytes, kChecksumOffset,
      version == core::snapshot::kFnvFormatVersion
          ? core::snapshot::fnv1a64(payload, n)
          : core::snapshot::xxh64(payload, n));
}

/// Payload offsets of every arena section's tag, in file order.
std::vector<std::size_t> section_offsets(
    const std::vector<std::uint8_t>& bytes) {
  std::vector<std::size_t> offsets;
  for (std::size_t off = core::snapshot::kHeaderBytes;
       off + 8 <= bytes.size(); off += 8) {
    std::uint64_t word = 0;
    std::memcpy(&word, bytes.data() + off, 8);
    if (word == kSectionTag) offsets.push_back(off);
  }
  return offsets;
}

constexpr std::size_t kCompatShards = 4;
constexpr int kCompatUsers = 24;

/// A 4-shard box with warmed tables, saved as a version-2 snapshot.
std::vector<std::uint8_t> saved_box(const std::string& path) {
  core::ConcurrentEdge saved(
      fast_config().with_seed(12).with_shards(kCompatShards));
  for (int u = 1; u <= kCompatUsers; ++u) {
    saved.import_history(u, history_for(u));
    (void)saved.serve(u, probe_stream(u, 1)[0].position,
                      trace::kStudyStart + 1500);
  }
  EXPECT_TRUE(saved.save_snapshot(path).ok());
  return read_file(path);
}

core::ConcurrentEdge fresh_box() {
  return core::ConcurrentEdge(
      fast_config().with_seed(12).with_shards(kCompatShards));
}

TEST(SnapshotFormat, WriterStampsVersionTwoWithXxh64) {
  const std::string path = temp_path("format_v2.snap");
  const std::vector<std::uint8_t> bytes = saved_box(path);
  ASSERT_GT(bytes.size(), core::snapshot::kHeaderBytes);
  std::uint32_t version = 0;
  std::uint64_t checksum = 0;
  std::memcpy(&version, bytes.data() + kVersionOffset, 4);
  std::memcpy(&checksum, bytes.data() + kChecksumOffset, 8);
  EXPECT_EQ(version, core::snapshot::kFormatVersion);
  EXPECT_EQ(version, 2u);
  EXPECT_EQ(checksum,
            core::snapshot::xxh64(bytes.data() + core::snapshot::kHeaderBytes,
                                  bytes.size() - core::snapshot::kHeaderBytes));
  EXPECT_EQ(section_offsets(bytes).size(), kCompatShards);
  std::remove(path.c_str());
}

TEST(SnapshotFormat, VersionOneFileServesBitIdenticallyToVersionTwo) {
  const std::string v2_path = temp_path("compat_v2.snap");
  const std::string v1_path = temp_path("compat_v1.snap");
  std::vector<std::uint8_t> bytes = saved_box(v2_path);
  reseal(bytes, core::snapshot::kFnvFormatVersion);
  write_file(v1_path, bytes);

  core::ConcurrentEdge from_v2 = fresh_box();
  core::ConcurrentEdge from_v1 = fresh_box();
  ASSERT_TRUE(from_v2.open_snapshot(v2_path).ok());
  const util::Status v1_status = from_v1.open_snapshot(v1_path);
  ASSERT_TRUE(v1_status.ok()) << v1_status.message();
  EXPECT_EQ(from_v1.user_count(), from_v2.user_count());
  EXPECT_EQ(from_v1.user_count(), static_cast<std::size_t>(kCompatUsers));
  for (int u = 1; u <= kCompatUsers; ++u) {
    for (const trace::CheckIn& c : probe_stream(u, 20)) {
      const core::ServeResult a = from_v2.serve(u, c.position, c.time);
      const core::ServeResult b = from_v1.serve(u, c.position, c.time);
      ASSERT_EQ(bits_of(a), bits_of(b)) << "user " << u;
    }
  }
  std::remove(v2_path.c_str());
  std::remove(v1_path.c_str());
}

// tests/data/edge_format2.snap: a 2-shard box (seed 21, users 1-6 with
// imported histories and one warmed top location each) saved in format 2.
// The digest of its served stream was recorded when the file was written;
// every later build must open it and serve exactly that stream.
TEST(SnapshotFormat, CommittedVersionTwoFileServesItsRecordedStream) {
  const std::string path =
      std::string(PRIVLOCAD_TEST_DATA_DIR) + "/edge_format2.snap";
  core::ConcurrentEdge box(fast_config().with_seed(21).with_shards(2));
  const util::Status status = box.open_snapshot(path);
  ASSERT_TRUE(status.ok()) << status.message();
  EXPECT_EQ(box.user_count(), 6u);
  Digest served;
  for (int u = 1; u <= 6; ++u) {
    for (const trace::CheckIn& c : probe_stream(u, 20)) {
      const core::ServeResult r = box.serve(u, c.position, c.time);
      served.add(static_cast<std::int32_t>(r.outcome));
      served.add(static_cast<std::int32_t>(r.reported.kind));
      served.add(std::bit_cast<std::uint64_t>(r.reported.location.x));
      served.add(std::bit_cast<std::uint64_t>(r.reported.location.y));
      served.add(r.retries);
    }
  }
  EXPECT_EQ(served.h, 0x12c3c1d7044c6d0eULL);
}

TEST(SnapshotFormat, UnknownVersionIsAParseErrorNamingIt) {
  const std::string path = temp_path("compat_v3.snap");
  std::vector<std::uint8_t> bytes = saved_box(path);
  reseal(bytes, 3);
  write_file(path, bytes);
  core::ConcurrentEdge box = fresh_box();
  const util::Status status = box.open_snapshot(path);
  EXPECT_EQ(status.code(), util::ErrorCode::kParseError);
  EXPECT_NE(status.message().find("version 3"), std::string::npos)
      << status.message();
  EXPECT_EQ(box.user_count(), 0u);
  std::remove(path.c_str());
}

TEST(SnapshotFormat, VersionTwoHeaderCarryingTheFnvValueFailsTheChecksum) {
  const std::string path = temp_path("compat_v2_fnv.snap");
  std::vector<std::uint8_t> bytes = saved_box(path);
  reseal(bytes, core::snapshot::kFnvFormatVersion);
  put(bytes, kVersionOffset, core::snapshot::kFormatVersion);
  write_file(path, bytes);
  core::ConcurrentEdge box = fresh_box();
  const util::Status status = box.open_snapshot(path);
  EXPECT_EQ(status.code(), util::ErrorCode::kParseError);
  EXPECT_NE(status.message().find("checksum"), std::string::npos)
      << status.message();
  EXPECT_EQ(box.user_count(), 0u);
  std::remove(path.c_str());
}

TEST(SnapshotFormat, EverySingleByteFlipFailsTheChecksum) {
  const std::string path = temp_path("flip.snap");
  const std::vector<std::uint8_t> good = saved_box(path);
  const std::size_t first = core::snapshot::kHeaderBytes;
  const std::size_t last = good.size() - 1;
  std::vector<std::size_t> targets = {first, first + (last - first) / 2,
                                      last};
  // One byte inside every shard section, past its tag.
  const std::vector<std::size_t> sections = section_offsets(good);
  ASSERT_EQ(sections.size(), kCompatShards);
  for (std::size_t i = 0; i < sections.size(); ++i) {
    const std::size_t end =
        i + 1 < sections.size() ? sections[i + 1] : good.size();
    targets.push_back(sections[i] + 8 + (end - sections[i] - 8) / 2);
  }
  for (const std::size_t offset : targets) {
    std::vector<std::uint8_t> bytes = good;
    bytes[offset] ^= 0x01;
    write_file(path, bytes);
    core::ConcurrentEdge box = fresh_box();
    const util::Status status = box.open_snapshot(path);
    EXPECT_EQ(status.code(), util::ErrorCode::kParseError)
        << "flip at " << offset;
    EXPECT_NE(status.message().find("checksum"), std::string::npos)
        << "flip at " << offset << ": " << status.message();
    EXPECT_EQ(box.user_count(), 0u) << "flip at " << offset;
  }
  std::remove(path.c_str());
}

// ------------------------------------------------- all-or-nothing opens

// Regression: a bad section (here its tag, with the checksum recomputed so
// the damage passes the header check) used to return kParseError with the
// earlier shards still loaded, so the failed shard's users would later be
// served fresh n-fold draws.
TEST(SnapshotFormat, FailedOpenLeavesEveryShardEmpty) {
  const std::string good_path = temp_path("all_or_nothing_good.snap");
  const std::string bad_path = temp_path("all_or_nothing_bad.snap");
  std::vector<std::uint8_t> bytes = saved_box(good_path);
  const std::vector<std::size_t> sections = section_offsets(bytes);
  ASSERT_EQ(sections.size(), kCompatShards);
  put(bytes, sections.back(), ~kSectionTag);
  reseal(bytes, core::snapshot::kFormatVersion);
  write_file(bad_path, bytes);

  core::ConcurrentEdge box = fresh_box();
  const util::Status status = box.open_snapshot(bad_path);
  EXPECT_EQ(status.code(), util::ErrorCode::kParseError);
  EXPECT_EQ(box.user_count(), 0u);

  const util::Status reopened = box.open_snapshot(good_path);
  ASSERT_TRUE(reopened.ok()) << reopened.message();
  EXPECT_EQ(box.user_count(), static_cast<std::size_t>(kCompatUsers));
  std::remove(good_path.c_str());
  std::remove(bad_path.c_str());
}

// Regression: UserArena::load copied the row scalars into the arena before
// validating them, so a section failing a later check left its users
// behind and the device refused every later open.
TEST(SnapshotFormat, FailedSectionLeavesTheDeviceEmpty) {
  const std::string good_path = temp_path("device_section_good.snap");
  const std::string bad_path = temp_path("device_section_bad.snap");
  core::EdgeDevice saved(fast_config().with_seed(8));
  for (int u = 1; u <= 10; ++u) saved.import_history(u, history_for(u));
  ASSERT_TRUE(saved.save_snapshot(good_path).ok());
  std::vector<std::uint8_t> bytes = read_file(good_path);

  // Section layout: tag, then the user-id column (u64 count + ids), then
  // the engine column's count. An empty engine column disagrees with the
  // row count only after the user ids were read.
  const std::size_t ids_count_at = core::snapshot::kHeaderBytes + 8;
  std::uint64_t users = 0;
  std::memcpy(&users, bytes.data() + ids_count_at, 8);
  ASSERT_EQ(users, 10u);
  put(bytes, ids_count_at + 8 + users * 8, std::uint64_t{0});
  reseal(bytes, core::snapshot::kFormatVersion);
  write_file(bad_path, bytes);

  core::EdgeDevice device(fast_config().with_seed(8));
  EXPECT_EQ(device.open_snapshot(bad_path).code(),
            util::ErrorCode::kParseError);
  EXPECT_EQ(device.user_count(), 0u);
  const util::Status reopened = device.open_snapshot(good_path);
  ASSERT_TRUE(reopened.ok()) << reopened.message();
  EXPECT_EQ(device.user_count(), 10u);
  std::remove(good_path.c_str());
  std::remove(bad_path.c_str());
}

struct BadCustomParam {
  const char* name;
  std::size_t field;  ///< byte offset inside lppm::BoundedGeoIndParams
  double value;       ///< written as the field's bytes (n: as a u64)
};

class SnapshotBadCustomParams
    : public testing::TestWithParam<BadCustomParam> {};

// Regression: custom privacy params were range-checked only by row, so an
// out-of-domain value in a checksum-valid file threw out of the device's
// mechanism rebuild after the section had been adopted, leaving it loaded.
TEST_P(SnapshotBadCustomParams, FailTheOpenAndLeaveTheBoxEmpty) {
  const BadCustomParam& bad = GetParam();
  // One file pair per case: ctest -j runs the cases as parallel processes.
  const std::string good_path =
      temp_path(std::string("custom_params_good_") + bad.name + ".snap");
  const std::string bad_path =
      temp_path(std::string("custom_params_bad_") + bad.name + ".snap");
  core::EdgeDevice saved(fast_config().with_seed(8));
  for (int u = 1; u <= 10; ++u) saved.import_history(u, history_for(u));
  lppm::BoundedGeoIndParams custom;
  custom.epsilon = 2.0;
  saved.set_user_privacy(3, custom);
  ASSERT_TRUE(saved.save_snapshot(good_path).ok());
  std::vector<std::uint8_t> bytes = read_file(good_path);

  // The custom-params values are the section's last column; one user's
  // 32-byte entry ends the file with no padding.
  static_assert(sizeof(lppm::BoundedGeoIndParams) == 32);
  const std::size_t entry_at = bytes.size() - 32;
  lppm::BoundedGeoIndParams stored;
  std::memcpy(&stored, bytes.data() + entry_at, sizeof(stored));
  ASSERT_EQ(stored.epsilon, 2.0);
  if (bad.field == offsetof(lppm::BoundedGeoIndParams, n)) {
    put(bytes, entry_at + bad.field, static_cast<std::uint64_t>(bad.value));
  } else {
    put(bytes, entry_at + bad.field, bad.value);
  }
  reseal(bytes, core::snapshot::kFormatVersion);
  write_file(bad_path, bytes);

  core::EdgeDevice device(fast_config().with_seed(8));
  const util::Status status = device.open_snapshot(bad_path);
  EXPECT_EQ(status.code(), util::ErrorCode::kParseError);
  EXPECT_NE(status.message().find("custom privacy params"), std::string::npos)
      << status.message();
  EXPECT_EQ(device.user_count(), 0u);
  const util::Status reopened = device.open_snapshot(good_path);
  ASSERT_TRUE(reopened.ok()) << reopened.message();
  EXPECT_EQ(device.user_count(), 10u);
  EXPECT_EQ(device.user_privacy(3).epsilon, 2.0);
  std::remove(good_path.c_str());
  std::remove(bad_path.c_str());
}

INSTANTIATE_TEST_SUITE_P(
    Table, SnapshotBadCustomParams,
    testing::Values(
        BadCustomParam{"zero_radius",
                       offsetof(lppm::BoundedGeoIndParams, radius_m), 0.0},
        BadCustomParam{"negative_epsilon",
                       offsetof(lppm::BoundedGeoIndParams, epsilon), -1.0},
        BadCustomParam{"nan_epsilon",
                       offsetof(lppm::BoundedGeoIndParams, epsilon),
                       std::numeric_limits<double>::quiet_NaN()},
        BadCustomParam{"delta_one",
                       offsetof(lppm::BoundedGeoIndParams, delta), 1.0},
        BadCustomParam{"zero_n", offsetof(lppm::BoundedGeoIndParams, n),
                       0.0}),
    [](const testing::TestParamInfo<BadCustomParam>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace privlocad
