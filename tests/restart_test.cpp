// Restart and persistence: the snapshot (core/snapshot.hpp) is the edge's
// only persistence format, so everything a restarted box must keep -- the
// permanent candidate sets, the profiles and top sets, the RNG streams --
// round-trips through it. Suites are named after the state they protect:
// TableStore for obfuscation table T, ProfileStore for the location-
// management state, FaultStores / SnapshotFault for the `snapshot` fault
// site.
#include <gtest/gtest.h>
#include <unistd.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "core/concurrent_edge.hpp"
#include "core/edge_device.hpp"
#include "core/snapshot.hpp"
#include "fault/fault.hpp"
#include "obs/metrics.hpp"
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

/// A per-test file path: ctest -j runs every test as its own process.
std::string temp_path(const std::string& name) {
  const testing::TestInfo* info =
      testing::UnitTest::GetInstance()->current_test_info();
  std::string test = std::string(info->test_suite_name()) + "_" + info->name();
  for (char& c : test) {
    if (c == '/') c = '_';
  }
  return testing::TempDir() + "restart_" + test + "_" + name;
}

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

bool exists(const std::string& path) {
  return ::access(path.c_str(), F_OK) == 0;
}

/// `n` check-ins at `at`, one every `step` seconds from `start`.
void add_visits(trace::UserTrace& trace, geo::Point at, int n,
                trace::Timestamp start, trace::Timestamp step = 1) {
  for (int i = 0; i < n; ++i) trace.check_ins.push_back({at, start + i * step});
}

trace::UserTrace history_at(std::uint64_t user_id, geo::Point home,
                            int check_ins = 50) {
  trace::UserTrace history;
  history.user_id = user_id;
  add_visits(history, home, check_ins, 0);
  return history;
}

/// A served output reduced to comparable bits (bit identity is the
/// contract of a restart).
using ServedBits =
    std::tuple<int, int, std::uint64_t, std::uint64_t, std::uint32_t>;

ServedBits bits_of(const core::ServeResult& r) {
  return {static_cast<int>(r.outcome), static_cast<int>(r.reported.kind),
          std::bit_cast<std::uint64_t>(r.reported.location.x),
          std::bit_cast<std::uint64_t>(r.reported.location.y), r.retries};
}

void expect_same_tops(core::EdgeDevice& a, core::EdgeDevice& b,
                      std::uint64_t user_id) {
  const std::vector<attack::ProfileEntry> ta = a.top_locations(user_id);
  const std::vector<attack::ProfileEntry> tb = b.top_locations(user_id);
  ASSERT_EQ(ta.size(), tb.size()) << "user " << user_id;
  for (std::size_t i = 0; i < ta.size(); ++i) {
    EXPECT_EQ(ta[i].frequency, tb[i].frequency);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(ta[i].location.x),
              std::bit_cast<std::uint64_t>(tb[i].location.x));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(ta[i].location.y),
              std::bit_cast<std::uint64_t>(tb[i].location.y));
  }
}

// ------------------------------------------------------ restart permanence

TEST(EdgeDevice, SnapshotRestoreSurvivesRestart) {
  const std::string path = temp_path("device.snap");
  const geo::Point home{100.0, 200.0};

  // Device A freezes a candidate set, then "crashes" after a save.
  core::EdgeDevice device_a(fast_config().with_seed(42));
  device_a.import_history(1, history_at(1, home));
  ASSERT_EQ(device_a.report_location(1, home, 2000).kind,
            core::ReportKind::kTopLocation);
  ASSERT_TRUE(device_a.save_snapshot(path).ok());

  // Device B restarts under a different seed: the snapshot, not the seed,
  // decides what it releases. It must replay A's frozen candidates --
  // the very stream A would have continued with -- never fresh noise.
  core::EdgeDevice device_b(fast_config().with_seed(777));
  ASSERT_TRUE(device_b.open_snapshot(path).ok());
  std::set<std::pair<double, double>> replayed;
  for (int i = 0; i < 100; ++i) {
    const core::ServeResult a = device_a.serve(1, home, 3000 + i);
    const core::ServeResult b = device_b.serve(1, home, 3000 + i);
    ASSERT_EQ(b.reported.kind, core::ReportKind::kTopLocation);
    ASSERT_EQ(bits_of(a), bits_of(b)) << "request " << i;
    replayed.insert({b.reported.location.x, b.reported.location.y});
  }
  EXPECT_LE(replayed.size(), 10u);  // at most n distinct points, ever
  EXPECT_EQ(device_b.telemetry().tables_generated, 0u);
  EXPECT_EQ(device_b.accountant().spend_for(1).releases, 0u);
  std::remove(path.c_str());
}

TEST(EdgeDevice, RestoreOverLiveEntriesRejected) {
  const std::string path = temp_path("device.snap");
  core::EdgeDevice device(fast_config().with_seed(42));
  device.import_history(1, history_at(1, {0.0, 0.0}));
  device.prepare_obfuscation(1);
  ASSERT_TRUE(device.save_snapshot(path).ok());

  // Opening over live state is refused, not merged: the device keeps its
  // own frozen set and generates nothing new.
  EXPECT_EQ(device.open_snapshot(path).code(),
            util::ErrorCode::kFailedPrecondition);
  EXPECT_EQ(device.user_count(), 1u);
  EXPECT_EQ(device.report_location(1, {0.0, 0.0}, 2000).kind,
            core::ReportKind::kTopLocation);
  EXPECT_EQ(device.telemetry().tables_generated, 1u);
  std::remove(path.c_str());
}

// Regression: top_locations(), user_privacy() and assess_user_risk() used
// to create an arena row for an unknown user, so read-only probes grew
// user_count() and every phantom row was persisted in the snapshot.
TEST(EdgeDevice, ReadOnlyQueriesCreateNoRows) {
  const std::string before = temp_path("before.snap");
  const std::string after = temp_path("after.snap");
  core::EdgeDevice device(fast_config().with_seed(42));
  device.import_history(1, history_at(1, {0.0, 0.0}));
  ASSERT_TRUE(device.save_snapshot(before).ok());

  EXPECT_TRUE(device.top_locations(77).empty());
  EXPECT_EQ(device.user_privacy(78).epsilon,
            device.config().top_params.epsilon);
  const core::RiskAssessment risk = device.assess_user_risk(79);
  EXPECT_EQ(risk.level, core::RiskLevel::kLow);
  EXPECT_EQ(device.user_count(), 1u);
  ASSERT_TRUE(device.save_snapshot(after).ok());
  EXPECT_EQ(read_file(before), read_file(after));
  std::remove(before.c_str());
  std::remove(after.c_str());
}

// ---------------------------------------------------- obfuscation table T

/// User 7 has top locations at (0,0) and (5000,0), user 9 at
/// (-3000,4000); every top already has its frozen candidate set.
core::EdgeDevice& with_two_tabled_users(core::EdgeDevice& device) {
  trace::UserTrace seven;
  seven.user_id = 7;
  add_visits(seven, {0, 0}, 30, 0);
  add_visits(seven, {5000, 0}, 20, 100);
  device.import_history(7, seven);
  device.import_history(9, history_at(9, {-3000, 4000}, 20));
  device.prepare_obfuscation(7);
  device.prepare_obfuscation(9);
  return device;
}

TEST(TableStore, RoundTripPreservesEverything) {
  const std::string first = temp_path("first.snap");
  const std::string second = temp_path("second.snap");
  core::EdgeDevice saved(fast_config().with_seed(1));
  with_two_tabled_users(saved);
  ASSERT_EQ(saved.telemetry().tables_generated, 3u);
  ASSERT_TRUE(saved.save_snapshot(first).ok());

  // Saving what was opened reproduces the file byte for byte: every
  // entry, candidate, profile and stream survived the round trip.
  core::EdgeDevice reopened(fast_config().with_seed(1));
  ASSERT_TRUE(reopened.open_snapshot(first).ok());
  EXPECT_EQ(reopened.user_count(), 2u);
  ASSERT_TRUE(reopened.save_snapshot(second).ok());
  EXPECT_EQ(read_file(first), read_file(second));
  std::remove(first.c_str());
  std::remove(second.c_str());
}

TEST(TableStore, RestartDoesNotRegenerate) {
  // The privacy-critical property: after a save/open cycle, a request at
  // a known top location replays the SAVED candidates, and no fresh noise
  // is drawn (nothing generated, nothing charged).
  const std::string path = temp_path("tables.snap");
  core::EdgeDevice saved(fast_config().with_seed(2));
  with_two_tabled_users(saved);
  ASSERT_TRUE(saved.save_snapshot(path).ok());

  core::EdgeDevice restarted(fast_config().with_seed(999));
  ASSERT_TRUE(restarted.open_snapshot(path).ok());
  for (int i = 0; i < 20; ++i) {
    const geo::Point at = i % 2 == 0 ? geo::Point{0, 0} : geo::Point{5000, 0};
    const core::ServeResult a = saved.serve(7, at, 5000 + i);
    const core::ServeResult b = restarted.serve(7, at, 5000 + i);
    ASSERT_EQ(b.reported.kind, core::ReportKind::kTopLocation);
    ASSERT_EQ(bits_of(a), bits_of(b)) << "request " << i;
  }
  EXPECT_EQ(restarted.telemetry().tables_generated, 0u);
  EXPECT_EQ(restarted.accountant().spend_for(7).releases, 0u);
  std::remove(path.c_str());
}

TEST(TableStore, EmptySnapshotRoundTrips) {
  const std::string path = temp_path("empty.snap");
  core::EdgeDevice empty(fast_config().with_seed(3));
  ASSERT_TRUE(empty.save_snapshot(path).ok());
  core::EdgeDevice reopened(fast_config().with_seed(3));
  ASSERT_TRUE(reopened.open_snapshot(path).ok());
  EXPECT_EQ(reopened.user_count(), 0u);
  // An empty box is a working box: new users are served as usual.
  EXPECT_EQ(reopened.report_location(1, {0, 0}, 0).kind,
            core::ReportKind::kNomadic);
  std::remove(path.c_str());
}

TEST(TableStore, MissingFilesThrow) {
  core::EdgeDevice device(fast_config().with_seed(3));
  const util::Status status =
      device.open_snapshot("/nonexistent/dir/tables.snap");
  EXPECT_EQ(status.code(), util::ErrorCode::kIoError);
  EXPECT_EQ(device.user_count(), 0u);
}

// ------------------------------------------------- structural damage

/// Element sizes of one arena section's columns in file order
/// (UserArena::save): row scalars, frozen columns, window, custom params.
constexpr std::size_t kEngineBytes = sizeof(rng::Engine);
constexpr std::size_t kParamsBytes = sizeof(lppm::BoundedGeoIndParams);
constexpr std::size_t kColumnElementBytes[] = {
    8, kEngineBytes, 8, 8, 4, 4, 1, 8, 4, 8, 4, 8, 4,
    8, 8, 8, 4, 8, 8, 8, 4, 8, 8,
    8, 8, 8, 4,
    4, kParamsBytes};

enum Column : std::size_t {
  kWinHead = 4,
  kWinCount = 5,
  kProfCount = 8,
  kTopCount = 10,
  kEntCount = 12,
  kTopIdx = 16,
  kEntCandCount = 20,
  kWinPrev = 26,
};

/// Byte offset of element 0 of `column` in a single-section snapshot.
std::size_t column_data_offset(const std::vector<std::uint8_t>& bytes,
                               std::size_t column) {
  std::size_t off = core::snapshot::kHeaderBytes + 8;  // past the tag
  for (std::size_t c = 0;; ++c) {
    std::uint64_t count = 0;
    std::memcpy(&count, bytes.data() + off, 8);
    off += 8;
    if (c == column) return off;
    off += count * kColumnElementBytes[c];
    off = (off + 7) & ~std::size_t{7};
  }
}

/// Element `i` of a 4-byte column, read and overwritten in place.
std::uint32_t column_u32(const std::vector<std::uint8_t>& bytes,
                         std::size_t column, std::size_t i) {
  std::uint32_t value = 0;
  std::memcpy(&value, bytes.data() + column_data_offset(bytes, column) + 4 * i,
              sizeof(value));
  return value;
}
void set_column_u32(std::vector<std::uint8_t>& bytes, std::size_t column,
                    std::size_t i, std::uint32_t value) {
  std::memcpy(bytes.data() + column_data_offset(bytes, column) + 4 * i,
              &value, sizeof(value));
}

using Damage = std::function<void(std::vector<std::uint8_t>&)>;

/// Saves ten users (each with one frozen top location and `pending`
/// pending check-ins), applies `damage` to the file, recomputes the
/// checksum so the damage passes the header check, and expects the open
/// to fail as a parse error naming `message`, leaving the device empty.
/// The undamaged file must still open on the same device.
void expect_file_damage_rejected(std::uint32_t pending, const Damage& damage,
                                 const std::string& message) {
  const std::string good_path = temp_path("good.snap");
  const std::string bad_path = temp_path("bad.snap");
  core::EdgeDevice saved(fast_config().with_seed(8));
  for (std::uint64_t u = 1; u <= 10; ++u) {
    const geo::Point home{1000.0 * static_cast<double>(u), 500.0};
    saved.import_history(u, history_at(u, home, 40));
    ASSERT_EQ(saved.report_location(u, home, 1500).kind,
              core::ReportKind::kTopLocation);
    for (std::uint32_t i = 1; i < pending; ++i) {
      (void)saved.report_location(u, home, 1500 + i);
    }
  }
  ASSERT_TRUE(saved.save_snapshot(good_path).ok());
  std::vector<std::uint8_t> bytes = read_file(good_path);
  ASSERT_EQ(column_u32(bytes, kWinCount, 0), pending);
  damage(bytes);
  const std::uint64_t checksum =
      core::snapshot::xxh64(bytes.data() + core::snapshot::kHeaderBytes,
                            bytes.size() - core::snapshot::kHeaderBytes);
  std::memcpy(bytes.data() + 32, &checksum, sizeof(checksum));
  write_file(bad_path, bytes);

  core::EdgeDevice device(fast_config().with_seed(8));
  const util::Status status = device.open_snapshot(bad_path);
  EXPECT_EQ(status.code(), util::ErrorCode::kParseError);
  EXPECT_NE(status.message().find(message), std::string::npos)
      << status.message();
  EXPECT_EQ(device.user_count(), 0u);
  const util::Status reopened = device.open_snapshot(good_path);
  EXPECT_TRUE(reopened.ok()) << reopened.message();
  EXPECT_EQ(device.user_count(), 10u);
  std::remove(good_path.c_str());
  std::remove(bad_path.c_str());
}

/// Overwrites element 0 of `column` with `value` (one pending check-in
/// per user).
template <typename T>
void expect_damage_rejected(std::size_t column, T value,
                            const std::string& message) {
  expect_file_damage_rejected(
      1,
      [&](std::vector<std::uint8_t>& bytes) {
        std::memcpy(bytes.data() + column_data_offset(bytes, column), &value,
                    sizeof(value));
      },
      message);
}

TEST(TableStore, RejectsWrongHeader) {
  const std::string path = temp_path("bad_magic.snap");
  core::EdgeDevice saved(fast_config().with_seed(4));
  saved.import_history(1, history_at(1, {0, 0}));
  ASSERT_TRUE(saved.save_snapshot(path).ok());
  std::vector<std::uint8_t> bytes = read_file(path);
  bytes[0] ^= 0xFF;
  write_file(path, bytes);
  core::EdgeDevice device(fast_config().with_seed(4));
  const util::Status status = device.open_snapshot(path);
  EXPECT_EQ(status.code(), util::ErrorCode::kParseError);
  EXPECT_NE(status.message().find("bad magic"), std::string::npos);
  EXPECT_EQ(device.user_count(), 0u);
  std::remove(path.c_str());
}

TEST(TableStore, RejectsOutOfOrderCandidates) {
  expect_damage_rejected(kEntCandCount, std::uint32_t{1000},
                         "candidate range overruns");
}

TEST(TableStore, RejectsInconsistentTopLocation) {
  expect_damage_rejected(kTopCount, std::uint32_t{50},
                         "row range overruns");
}

TEST(TableStore, RejectsGapInEntryIndices) {
  expect_damage_rejected(kEntCount, std::uint32_t{50},
                         "row range overruns");
}

TEST(TableStore, RejectsMalformedNumbers) {
  expect_damage_rejected(kWinHead, std::uint32_t{0xFFFFFFF0u},
                         "window head outside");
}

// Every way a pending-window chain can break must be refused at open,
// not walked at the user's next window rebuild (where a bad link reads,
// and can write, outside the window columns).
TEST(TableStore, RejectsBrokenWindowChains) {
  constexpr std::uint32_t kPending = 4;
  using Bytes = std::vector<std::uint8_t>;
  const auto head = [](const Bytes& b, std::size_t row) {
    return column_u32(b, kWinHead, row);
  };
  const auto prev = [](const Bytes& b, std::uint32_t record) {
    return column_u32(b, kWinPrev, record);
  };
  const struct {
    const char* name;
    Damage damage;
    const char* message;
  } cases[] = {
      {"link past the end",
       [&](Bytes& b) { set_column_u32(b, kWinPrev, head(b, 0), 1000000); },
       "window link outside"},
      {"cycle",
       [&](Bytes& b) {
         set_column_u32(b, kWinPrev, prev(b, head(b, 0)), head(b, 0));
       },
       "window link not to an older record"},
      {"chain longer than its count",
       [&](Bytes& b) { set_column_u32(b, kWinCount, 0, kPending - 1); },
       "window chain longer than its count"},
      {"chain shorter than its count",
       [&](Bytes& b) { set_column_u32(b, kWinCount, 0, kPending + 1); },
       "window chain shorter than its count"},
      {"two rows share a link",
       [&](Bytes& b) {
         set_column_u32(b, kWinPrev, head(b, 1), prev(b, head(b, 0)));
       },
       "window record linked twice"},
      {"two rows share a head",
       [&](Bytes& b) { set_column_u32(b, kWinHead, 1, head(b, 0)); },
       "window record linked twice"},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.name);
    expect_file_damage_rejected(kPending, c.damage, c.message);
  }
}

TEST(ObfuscationTable, RestoreValidation) {
  // A frozen set must hold candidates: an empty one could only be served
  // by failing the request, so it is damage at open time.
  expect_damage_rejected(kEntCandCount, std::uint32_t{0},
                         "entry without candidates");
}

// ----------------------------------------------- location management state

/// User 1: home 50x, work 20x, a 3x side spot; user 2: one 7x place.
core::EdgeDevice& with_two_profiled_users(core::EdgeDevice& device) {
  trace::UserTrace alice;
  alice.user_id = 1;
  add_visits(alice, {0, 0}, 50, 0);
  add_visits(alice, {8000, 0}, 20, 100);
  add_visits(alice, {3000, 3000}, 3, 200);
  device.import_history(1, alice);
  device.import_history(2, history_at(2, {-500, 900}, 7));
  return device;
}

TEST(ProfileStore, RoundTripPreservesEverything) {
  const std::string path = temp_path("profiles.snap");
  core::EdgeDevice saved(fast_config().with_seed(42));
  with_two_profiled_users(saved);
  ASSERT_EQ(saved.top_locations(1).size(), 2u);
  ASSERT_TRUE(saved.save_snapshot(path).ok());

  core::EdgeDevice reopened(fast_config().with_seed(42));
  ASSERT_TRUE(reopened.open_snapshot(path).ok());
  for (const std::uint64_t u : {1u, 2u}) {
    expect_same_tops(saved, reopened, u);
    // The risk view reads the full profile and the lifetime count.
    const core::RiskAssessment a = saved.assess_user_risk(u);
    const core::RiskAssessment b = reopened.assess_user_risk(u);
    EXPECT_EQ(a.level, b.level);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.entropy_signal),
              std::bit_cast<std::uint64_t>(b.entropy_signal));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.exposure_signal),
              std::bit_cast<std::uint64_t>(b.exposure_signal));
  }
  std::remove(path.c_str());
}

TEST(ProfileStore, EmptySnapshotRoundTrips) {
  const std::string path = temp_path("empty.snap");
  core::ConcurrentEdge empty(fast_config().with_seed(5).with_shards(4));
  ASSERT_TRUE(empty.save_snapshot(path).ok());
  core::ConcurrentEdge reopened(fast_config().with_seed(5).with_shards(4));
  ASSERT_TRUE(reopened.open_snapshot(path).ok());
  EXPECT_EQ(reopened.user_count(), 0u);
  std::remove(path.c_str());
}

TEST(ProfileStore, RejectsCorruptInput) {
  expect_damage_rejected(kProfCount, std::uint32_t{1000},
                         "row range overruns");
}

TEST(ProfileStore, MissingFilesThrow) {
  core::ConcurrentEdge edge(fast_config().with_seed(5).with_shards(4));
  EXPECT_EQ(edge.open_snapshot("/nonexistent/dir/profiles.snap").code(),
            util::ErrorCode::kIoError);
  EXPECT_EQ(edge.save_snapshot("/nonexistent/dir/profiles.snap").code(),
            util::ErrorCode::kIoError);
  EXPECT_EQ(edge.user_count(), 0u);
}

TEST(ProfileStore, RestoredDeviceServesTopLocationsImmediately) {
  const std::string path = temp_path("device.snap");
  const geo::Point home{0.0, 0.0};
  core::EdgeDevice device_a(fast_config().with_seed(42));
  device_a.import_history(1, history_at(1, home));
  device_a.prepare_obfuscation(1);
  ASSERT_TRUE(device_a.save_snapshot(path).ok());

  // The FIRST request after the restart is already a top-location report
  // from the frozen set -- no warm-up window of nomadic service.
  core::EdgeDevice device_b(fast_config().with_seed(777));
  ASSERT_TRUE(device_b.open_snapshot(path).ok());
  const core::ServeResult b = device_b.serve(1, home, 99999);
  EXPECT_EQ(b.reported.kind, core::ReportKind::kTopLocation);
  EXPECT_EQ(bits_of(b), bits_of(device_a.serve(1, home, 99999)));
  std::remove(path.c_str());
}

TEST(ProfileStore, RestoreOverLiveProfileRejected) {
  const std::string path = temp_path("other.snap");
  core::EdgeDevice other(fast_config().with_seed(42));
  with_two_profiled_users(other);
  ASSERT_TRUE(other.save_snapshot(path).ok());

  core::EdgeDevice device(fast_config().with_seed(42));
  device.import_history(1, history_at(1, {4000, 4000}));
  EXPECT_EQ(device.open_snapshot(path).code(),
            util::ErrorCode::kFailedPrecondition);
  EXPECT_EQ(device.user_count(), 1u);
  ASSERT_EQ(device.top_locations(1).size(), 1u);
  EXPECT_EQ(device.top_locations(1)[0].location.x, 4000.0);
  std::remove(path.c_str());
}

TEST(ProfileStore, SnapshotSkipsUsersWithoutProfiles) {
  // A user seen once, before any rebuild, round-trips without a profile:
  // the snapshot invents no top set, and the user stays nomadic.
  const std::string path = temp_path("unprofiled.snap");
  core::EdgeDevice saved(fast_config().with_seed(42));
  (void)saved.report_location(9, {0, 0}, 0);
  ASSERT_TRUE(saved.save_snapshot(path).ok());
  core::EdgeDevice reopened(fast_config().with_seed(42));
  ASSERT_TRUE(reopened.open_snapshot(path).ok());
  EXPECT_EQ(reopened.user_count(), 1u);
  EXPECT_TRUE(reopened.top_locations(9).empty());
  const core::ServeResult b = reopened.serve(9, {0, 0}, 10);
  EXPECT_EQ(b.reported.kind, core::ReportKind::kNomadic);
  EXPECT_EQ(bits_of(b), bits_of(saved.serve(9, {0, 0}, 10)));
  std::remove(path.c_str());
}

TEST(ProfileStore, RestoredTopIndexOutOfRangeRejected) {
  expect_damage_rejected(kTopIdx, std::uint32_t{3},
                         "top index outside the row's profile");
}

// ------------------------------------------------- the snapshot fault site

fault::FaultPlan snapshot_plan(double probability, std::uint64_t seed = 1) {
  fault::FaultPlan plan;
  plan.seed = seed;
  plan.site(fault::Site::kSnapshot).probability = probability;
  return plan;
}

TEST(FaultStores, MissingFileIsANonRetryableIoError) {
  core::EdgeDevice device(fast_config().with_seed(42));
  const util::Status status =
      device.open_snapshot("/nonexistent/dir/missing.snap");
  EXPECT_EQ(status.code(), util::ErrorCode::kIoError);
  EXPECT_FALSE(status.transient());
}

TEST(FaultStores, CorruptFileIsAParseErrorNotARetry) {
  const std::string path = temp_path("corrupt.snap");
  core::EdgeDevice saved(fast_config().with_seed(42));
  saved.import_history(1, history_at(1, {0, 0}));
  ASSERT_TRUE(saved.save_snapshot(path).ok());
  std::vector<std::uint8_t> bytes = read_file(path);
  bytes.back() ^= 0x01;
  write_file(path, bytes);
  core::EdgeDevice device(fast_config().with_seed(42));
  const util::Status status = device.open_snapshot(path);
  EXPECT_EQ(status.code(), util::ErrorCode::kParseError);
  EXPECT_FALSE(status.transient());
  std::remove(path.c_str());
}

TEST(FaultStores, RoundTripSucceedsAndInjectedFaultsSurface) {
  const std::string path = temp_path("faulted.snap");
  std::remove(path.c_str());
  fault::FaultInjector injector(snapshot_plan(1.0));
  core::EdgeConfig config = fast_config().with_seed(42);
  config.faults = &injector;
  core::EdgeDevice device(config);
  device.import_history(1, history_at(1, {0, 0}));
  device.prepare_obfuscation(1);

  // A certain snapshot fault surfaces on the save and on the open, each
  // checked exactly once, with the transient default code.
  const util::Status save = device.save_snapshot(path);
  EXPECT_EQ(save.code(), util::ErrorCode::kUnavailable);
  EXPECT_TRUE(save.transient());
  EXPECT_FALSE(exists(path));
  core::EdgeDevice blocked(config);
  EXPECT_EQ(blocked.open_snapshot(path).code(), util::ErrorCode::kUnavailable);
  EXPECT_EQ(injector.checks(fault::Site::kSnapshot), 2u);
  EXPECT_EQ(injector.injected(fault::Site::kSnapshot), 2u);

  // Without the fault the same round trip succeeds.
  fault::FaultInjector quiet;
  config.faults = &quiet;
  core::EdgeDevice saver(config);
  saver.import_history(1, history_at(1, {0, 0}));
  ASSERT_TRUE(saver.save_snapshot(path).ok());
  core::EdgeDevice opener(config);
  ASSERT_TRUE(opener.open_snapshot(path).ok());
  EXPECT_EQ(opener.user_count(), 1u);
  std::remove(path.c_str());
}

TEST(FaultStores, ProfileStoreHonoursItsOwnFaultSite) {
  // The snapshot site reports its own configured code, and faults at the
  // other sites never reach it.
  const std::string path = temp_path("sites.snap");
  fault::FaultPlan plan = snapshot_plan(1.0);
  plan.site(fault::Site::kSnapshot).code = util::ErrorCode::kResourceExhausted;
  fault::FaultInjector snapshot_faults(plan);
  core::EdgeConfig config = fast_config().with_seed(42);
  config.faults = &snapshot_faults;
  core::EdgeDevice device(config);
  device.import_history(1, history_at(1, {0, 0}));
  EXPECT_EQ(device.save_snapshot(path).code(),
            util::ErrorCode::kResourceExhausted);

  fault::FaultPlan others;
  others.site(fault::Site::kServe).probability = 1.0;
  others.site(fault::Site::kExchange).probability = 1.0;
  fault::FaultInjector other_faults(others);
  config.faults = &other_faults;
  core::EdgeDevice unaffected(config);
  unaffected.import_history(1, history_at(1, {0, 0}));
  ASSERT_TRUE(unaffected.save_snapshot(path).ok());
  core::EdgeDevice opener(config);
  EXPECT_TRUE(opener.open_snapshot(path).ok());
  EXPECT_EQ(other_faults.checks(fault::Site::kSnapshot), 2u);
  EXPECT_EQ(other_faults.injected_total(), 0u);
  std::remove(path.c_str());
}

TEST(FaultPlan, RemovedStoreSitesAreParseErrors) {
  for (const std::string name : {"table_store", "profile_store"}) {
    const util::Result<fault::FaultPlan> parsed =
        fault::FaultPlan::parse(name + ":p=1");
    ASSERT_FALSE(parsed.ok()) << name;
    EXPECT_EQ(parsed.status().code(), util::ErrorCode::kParseError);
    EXPECT_NE(parsed.status().message().find("unknown fault site '" + name),
              std::string::npos)
        << parsed.status().message();
  }
  const util::Result<fault::FaultPlan> snapshot =
      fault::FaultPlan::parse("seed=3;snapshot:p=0.5,code=timeout");
  ASSERT_TRUE(snapshot.ok());
  EXPECT_EQ(snapshot->site(fault::Site::kSnapshot).probability, 0.5);
  EXPECT_EQ(snapshot->site(fault::Site::kSnapshot).code,
            util::ErrorCode::kTimeout);
}

/// A standalone EdgeDevice (shards == 0) or a ConcurrentEdge.
struct BoxShape {
  const char* name;
  std::size_t shards;
};

void PrintTo(const BoxShape& shape, std::ostream* os) { *os << shape.name; }

/// The save/open/serve surface both edge flavours share.
class Box {
 public:
  Box(const BoxShape& shape, fault::FaultInjector* faults) {
    core::EdgeConfig config = fast_config().with_seed(6);
    config.faults = faults;
    if (shape.shards == 0) {
      device_ = std::make_unique<core::EdgeDevice>(config);
    } else {
      edge_ = std::make_unique<core::ConcurrentEdge>(
          config.with_shards(shape.shards));
    }
  }

  util::Status save(const std::string& path) {
    return device_ ? device_->save_snapshot(path) : edge_->save_snapshot(path);
  }
  util::Status open(const std::string& path) {
    return device_ ? device_->open_snapshot(path) : edge_->open_snapshot(path);
  }
  std::size_t user_count() const {
    return device_ ? device_->user_count() : edge_->user_count();
  }
  core::ServeResult serve(std::uint64_t user, geo::Point at,
                          trace::Timestamp time) {
    return device_ ? device_->serve(user, at, time)
                   : edge_->serve(user, at, time);
  }
  void populate() {
    for (std::uint64_t u = 1; u <= 12; ++u) {
      const trace::UserTrace history = history_at(u, home(u), 40);
      if (device_) {
        device_->import_history(u, history);
      } else {
        edge_->import_history(u, history);
      }
      (void)serve(u, home(u), 1500);
    }
  }
  static geo::Point home(std::uint64_t u) {
    return {1000.0 * static_cast<double>(u), 500.0};
  }

 private:
  std::unique_ptr<core::EdgeDevice> device_;
  std::unique_ptr<core::ConcurrentEdge> edge_;
};

class SnapshotFault : public testing::TestWithParam<BoxShape> {};

TEST_P(SnapshotFault, InjectedSaveFaultLeavesTheTargetByteIdentical) {
  const std::string path = temp_path("target.snap");
  fault::FaultInjector quiet;
  Box first(GetParam(), &quiet);
  first.populate();
  ASSERT_TRUE(first.save(path).ok());
  const std::vector<std::uint8_t> published = read_file(path);

  fault::FaultPlan plan = snapshot_plan(1.0);
  plan.site(fault::Site::kSnapshot).code = util::ErrorCode::kTimeout;
  fault::FaultInjector injector(plan);
  Box second(GetParam(), &injector);
  second.populate();
  (void)second.serve(1, {90000, 90000}, 5000);  // state differs from file
  const util::Status status = second.save(path);
  EXPECT_EQ(status.code(), util::ErrorCode::kTimeout);
  EXPECT_TRUE(status.transient());
  EXPECT_EQ(read_file(path), published);
  EXPECT_FALSE(exists(path + ".tmp"));
  EXPECT_EQ(injector.checks(fault::Site::kSnapshot), 1u);
  std::remove(path.c_str());
}

TEST_P(SnapshotFault, InjectedOpenFaultLeavesTheBoxEmpty) {
  const std::string path = temp_path("box.snap");
  fault::FaultInjector quiet;
  Box saved(GetParam(), &quiet);
  saved.populate();
  ASSERT_TRUE(saved.save(path).ok());
  Box reference(GetParam(), &quiet);
  ASSERT_TRUE(reference.open(path).ok());

  // The first seed whose schedule fires on the first open and passes on
  // the second: one box then sees both outcomes.
  std::uint64_t seed = 1;
  for (;; ++seed) {
    fault::FaultInjector probe(snapshot_plan(0.5, seed));
    if (!probe.check(fault::Site::kSnapshot).ok() &&
        probe.check(fault::Site::kSnapshot).ok()) {
      break;
    }
  }
  fault::FaultInjector injector(snapshot_plan(0.5, seed));
  Box box(GetParam(), &injector);
  EXPECT_EQ(box.open(path).code(), util::ErrorCode::kUnavailable);
  EXPECT_EQ(box.user_count(), 0u);

  const util::Status reopened = box.open(path);
  ASSERT_TRUE(reopened.ok()) << reopened.message();
  EXPECT_EQ(box.user_count(), reference.user_count());
  for (std::uint64_t u = 1; u <= 12; ++u) {
    for (int i = 0; i < 10; ++i) {
      const geo::Point at =
          i % 3 == 2 ? geo::Point{40000.0, -35000.0 + i} : Box::home(u);
      ASSERT_EQ(bits_of(box.serve(u, at, 3000 + i)),
                bits_of(reference.serve(u, at, 3000 + i)))
          << "user " << u << " request " << i;
    }
  }
  std::remove(path.c_str());
}

TEST_P(SnapshotFault, PublishEmitsTheSnapshotGauges) {
  const std::string path = temp_path("publish.snap");
  fault::FaultInjector injector(snapshot_plan(1.0));
  Box box(GetParam(), &injector);
  box.populate();
  EXPECT_FALSE(box.save(path).ok());
  EXPECT_FALSE(box.open(path).ok());

  obs::MetricsRegistry registry;
  injector.publish(registry);
  EXPECT_EQ(registry.gauge("fault.snapshot.checks").value(), 2.0);
  EXPECT_EQ(registry.gauge("fault.snapshot.injected").value(), 2.0);
  EXPECT_EQ(registry.gauge("fault.injected_total").value(), 2.0);
  const std::string json = registry.to_json();
  EXPECT_NE(json.find("\"fault.snapshot.checks\""), std::string::npos);
  EXPECT_NE(json.find("\"fault.snapshot.injected\""), std::string::npos);
  EXPECT_EQ(json.find("table_store"), std::string::npos);
  EXPECT_EQ(json.find("profile_store"), std::string::npos);
}

INSTANTIATE_TEST_SUITE_P(
    Boxes, SnapshotFault,
    testing::Values(BoxShape{"edge_device", 0}, BoxShape{"concurrent_4", 4}),
    [](const testing::TestParamInfo<BoxShape>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace privlocad
