// Versioned mmap-backed snapshot format for the columnar data plane.
//
// A snapshot is one file holding the full user-arena state of an edge
// (one section per shard). The layout is designed so that OPENING a
// snapshot is O(map + checksum + directory rebuild), not O(parse): every
// column is written as a contiguous 8-byte-aligned extent that the arena
// can adopt in place from the read-only mapping, with only the small
// mutable row scalars copied out. The checksum still reads every payload
// byte once before any column is adopted, so it runs at memory speed:
// a 1M-user population loads in fractions of a second.
//
// The snapshot is the edge's only persistence format and its restart
// mechanism: it carries every user's frozen candidate sets, so a
// restarted box replays them instead of drawing fresh noise. It is also
// the `snapshot` fault-injection site (fault/fault.hpp): every save and
// every open consults the injector once.
//
// File layout (all integers little-endian, host == file endianness is
// enforced by the endian tag):
//
//   [64-byte header]
//     u64 magic      "PLADSNAP"
//     u32 version    kFormatVersion (2) as written; 1 is still read
//     u32 endian     kEndianTag (0x01020304 as written by the host)
//     u32 shards     section count
//     u32 reserved   0
//     u64 payload    payload byte count (file size - header size)
//     u64 checksum   over the payload bytes: XXH64 (seed 0) in version 2,
//                    FNV-1a 64 in version 1
//     (zero padding to 64 bytes)
//   [payload: `shards` back-to-back arena sections]
//
// The two versions differ only in the checksum, and the header's version
// field alone picks which one open_validated() recomputes. Version 1 stays
// readable because refusing a snapshot already on disk would force fresh
// n-fold draws for every user in it -- the very composition leak the
// format exists to prevent.
//
// Each section is a fixed sequence of scalars and columns (see
// user_arena.cpp); a column is `u64 count` followed by `count` raw
// elements padded to the next 8-byte boundary. Corruption anywhere --
// bad magic, version, endianness, truncation, checksum mismatch -- is
// reported as a typed util::Status (kParseError / kIoError), never a
// crash: per the fail-private contract a damaged snapshot must fail
// loudly at startup, not silently regenerate fresh noise.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "fault/fault.hpp"
#include "util/status.hpp"

namespace privlocad::core::snapshot {

/// "PLADSNAP" read as a little-endian u64.
inline constexpr std::uint64_t kMagic = 0x50414E5344414C50ULL;
inline constexpr std::uint32_t kFormatVersion = 2;
/// The previous format: identical layout, FNV-1a 64 checksum.
inline constexpr std::uint32_t kFnvFormatVersion = 1;
inline constexpr std::uint32_t kEndianTag = 0x01020304;
inline constexpr std::size_t kHeaderBytes = 64;

/// FNV-1a 64 over `n` bytes, chained through `state`. The version-1
/// snapshot checksum; also a cheap chained hash for behaviour digests.
inline constexpr std::uint64_t kFnvOffsetBasis = 0xCBF29CE484222325ULL;
std::uint64_t fnv1a64(const void* data, std::size_t n,
                      std::uint64_t state = kFnvOffsetBasis);

/// Streaming XXH64 with seed 0 (the version-2 snapshot checksum). Four
/// independent 64-bit lanes consume 32-byte stripes, so the hash runs at
/// memory bandwidth instead of one serial multiply per byte. update()
/// accepts any chunking; digest() equals xxh64() over the concatenated
/// bytes.
class Xxh64 {
 public:
  Xxh64();
  void update(const void* data, std::size_t n);
  std::uint64_t digest() const;

 private:
  std::uint64_t lanes_[4];
  std::uint64_t total_ = 0;
  std::uint8_t stripe_[32] = {};
  std::size_t buffered_ = 0;  ///< bytes held in stripe_, always < 32
};

/// One-shot XXH64 (seed 0) of `n` bytes.
std::uint64_t xxh64(const void* data, std::size_t n);

/// Streams one snapshot file: header placeholder first, then payload
/// writes that accumulate the running checksum, then finish() patches the
/// real header in place. Errors latch: after the first failure every
/// write is a no-op and finish() returns the latched status.
///
/// Crash safety: the stream goes to `path + ".tmp"`, and finish() only
/// renames it over `path` after the data has been fsync'ed -- so a crash
/// (or an abandoned Writer) at ANY point leaves either the old complete
/// file or no file at the final path, never a truncated hybrid. The
/// rename is followed by an fsync of the containing directory so the new
/// directory entry itself is durable. All I/O is raw-fd with EINTR and
/// short-write retry loops, and every ::close on this write path is
/// checked -- a close error is a late write error and fails the save.
///
/// finish() checks the `snapshot` fault site once, just before the
/// rename; `faults` == nullptr selects fault::FaultInjector::global().
class Writer {
 public:
  Writer(const std::string& path, std::uint32_t shard_count,
         fault::FaultInjector* faults = nullptr);
  ~Writer();
  Writer(const Writer&) = delete;
  Writer& operator=(const Writer&) = delete;

  void write_u64(std::uint64_t value);

  /// One column: u64 count, `count` raw elements, zero padding to the
  /// next 8-byte boundary.
  template <typename T>
  void write_column(const T* data, std::size_t count) {
    static_assert(std::is_trivially_copyable_v<T>,
                  "snapshot columns hold raw trivially-copyable elements");
    write_u64(count);
    write_bytes(data, count * sizeof(T));
    pad_to_alignment();
  }
  template <typename T>
  void write_column(const std::vector<T>& column) {
    write_column(column.data(), column.size());
  }

  /// Patches the header with the final payload size + checksum, fsyncs,
  /// and atomically renames the temp file over the target path. Returns
  /// the first error hit anywhere, if any, or the injected transient
  /// code of a firing `snapshot` fault check; on error the temp file is
  /// unlinked and the target path is left untouched.
  util::Status finish();

  const util::Status& status() const { return status_; }

 private:
  void write_bytes(const void* data, std::size_t n);
  void pad_to_alignment();
  /// Drains the in-memory buffer to the temp fd (EINTR/short-write safe).
  void flush_buffer();
  /// Closes the temp fd (checked) and unlinks the temp file; used by the
  /// error paths and the abandoning destructor.
  void discard();

  int fd_ = -1;
  std::string path_;
  std::string tmp_path_;
  std::vector<std::uint8_t> buffer_;
  std::uint32_t shard_count_ = 0;
  fault::FaultInjector* faults_;
  std::uint64_t payload_bytes_ = 0;
  Xxh64 checksum_;
  bool finished_ = false;
  util::Status status_;
};

/// RAII read-only mmap of a whole snapshot file. Shared by every arena
/// column that adopts an extent from it, so the mapping outlives the
/// opening scope for as long as any store still reads from it.
class Mapping {
 public:
  ~Mapping();
  Mapping(const Mapping&) = delete;
  Mapping& operator=(const Mapping&) = delete;

  const std::uint8_t* data() const { return base_; }
  std::size_t size() const { return size_; }

 private:
  friend util::Result<std::shared_ptr<Mapping>> map_file(
      const std::string& path);
  Mapping(const std::uint8_t* base, std::size_t size)
      : base_(base), size_(size) {}

  const std::uint8_t* base_ = nullptr;
  std::size_t size_ = 0;
};

/// Maps `path` read-only; kIoError when it cannot be opened or mapped.
util::Result<std::shared_ptr<Mapping>> map_file(const std::string& path);

/// A validated, mapped snapshot: header checked (magic, version, endian,
/// size, checksum of every payload byte) and payload bounds resolved.
struct OpenedSnapshot {
  std::shared_ptr<Mapping> mapping;
  std::uint32_t shard_count = 0;
  std::uint64_t payload_offset = 0;
  std::uint64_t payload_end = 0;  ///< one past the last payload byte
};

/// Maps and validates `path`. kIoError when the file cannot be mapped;
/// kParseError for any structural damage (truncation, bad magic/version/
/// endianness, checksum mismatch). The checksum matching the header's
/// version is recomputed over the whole payload before this returns.
/// The `snapshot` fault site is checked once first, so a firing check
/// returns its injected transient code before anything is mapped or
/// adopted; `faults` == nullptr selects fault::FaultInjector::global().
util::Result<OpenedSnapshot> open_validated(
    const std::string& path, fault::FaultInjector* faults = nullptr);

/// Bounds-checked cursor over a mapped payload. read_column yields a
/// zero-copy pointer into the mapping (8-byte aligned by construction);
/// read_column_copy materializes the extent into an owned vector for the
/// columns that must stay mutable after open.
class Reader {
 public:
  Reader(std::shared_ptr<Mapping> mapping, std::uint64_t offset,
         std::uint64_t end)
      : mapping_(std::move(mapping)), offset_(offset), end_(end) {}

  util::Status read_u64(std::uint64_t& out);

  template <typename T>
  util::Status read_column(const T*& data, std::uint64_t& count) {
    static_assert(std::is_trivially_copyable_v<T>,
                  "snapshot columns hold raw trivially-copyable elements");
    std::uint64_t n = 0;
    if (util::Status s = read_u64(n); !s.ok()) return s;
    const std::uint64_t bytes = n * sizeof(T);
    if (bytes / sizeof(T) != n || bytes > end_ - offset_) {
      return util::Status::parse_error(
          "snapshot column extent overruns the payload");
    }
    data = reinterpret_cast<const T*>(mapping_->data() + offset_);
    count = n;
    offset_ += bytes;
    offset_ = (offset_ + 7) & ~std::uint64_t{7};
    if (offset_ > end_) {
      return util::Status::parse_error(
          "snapshot column padding overruns the payload");
    }
    return util::Status();
  }

  template <typename T>
  util::Status read_column_copy(std::vector<T>& out) {
    const T* data = nullptr;
    std::uint64_t count = 0;
    if (util::Status s = read_column(data, count); !s.ok()) return s;
    out.assign(data, data + count);
    return util::Status();
  }

  std::uint64_t offset() const { return offset_; }
  std::uint64_t end() const { return end_; }
  const std::shared_ptr<Mapping>& mapping() const { return mapping_; }

 private:
  std::shared_ptr<Mapping> mapping_;
  std::uint64_t offset_ = 0;
  std::uint64_t end_ = 0;
};

}  // namespace privlocad::core::snapshot
