#include "core/snapshot.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cerrno>
#include <cstdio>
#include <cstring>

namespace privlocad::core::snapshot {

namespace {

/// The write path buffers this much before hitting the kernel: column
/// writes arrive as many small u64/extent pieces, and a syscall per piece
/// would dominate a million-user save.
constexpr std::size_t kWriterBufferBytes = 256 * 1024;

std::string errno_suffix() {
  return std::string(" (") + std::strerror(errno) + ")";
}

/// ::open with the EINTR retry loop POSIX allows it to need.
int open_retry(const char* path, int flags, mode_t mode = 0) {
  int fd = -1;
  do {
    fd = ::open(path, flags, mode);
  } while (fd < 0 && errno == EINTR);
  return fd;
}

/// Full-buffer ::write: retries EINTR and continues after short writes.
bool write_all(int fd, const void* data, std::size_t n) {
  const auto* bytes = static_cast<const std::uint8_t*>(data);
  while (n > 0) {
    const ssize_t written = ::write(fd, bytes, n);
    if (written < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    bytes += written;
    n -= static_cast<std::size_t>(written);
  }
  return true;
}

/// Full-buffer ::pwrite at `offset`, with the same retry discipline.
bool pwrite_all(int fd, const void* data, std::size_t n, off_t offset) {
  const auto* bytes = static_cast<const std::uint8_t*>(data);
  while (n > 0) {
    const ssize_t written = ::pwrite(fd, bytes, n, offset);
    if (written < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    bytes += written;
    n -= static_cast<std::size_t>(written);
    offset += written;
  }
  return true;
}

bool fsync_retry(int fd) {
  int rc = -1;
  do {
    rc = ::fsync(fd);
  } while (rc != 0 && errno == EINTR);
  return rc == 0;
}

/// One ::close, checked. On Linux the descriptor is released even when
/// close reports EINTR, so retrying would race a concurrent open; EINTR
/// therefore counts as released, any other error is reported.
bool close_checked(int fd) {
  const int rc = ::close(fd);
  return rc == 0 || errno == EINTR;
}

/// fsyncs the directory holding `path` so a just-renamed entry survives a
/// crash. Returns false only when the directory opened but would not sync.
bool fsync_parent_dir(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos
                              ? std::string(".")
                              : path.substr(0, slash == 0 ? 1 : slash);
  const int fd = open_retry(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) return true;  // e.g. search-only dir permissions: best effort
  const bool synced = fsync_retry(fd);
  close_checked(fd);  // read-only directory fd: nothing to lose on error
  return synced;
}

}  // namespace

std::uint64_t fnv1a64(const void* data, std::size_t n, std::uint64_t state) {
  const auto* bytes = static_cast<const std::uint8_t*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    state ^= bytes[i];
    state *= 0x100000001B3ULL;
  }
  return state;
}

// ------------------------------------------------------------------- XXH64

namespace {

constexpr std::uint64_t kPrime1 = 0x9E3779B185EBCA87ULL;
constexpr std::uint64_t kPrime2 = 0xC2B2AE3D27D4EB4FULL;
constexpr std::uint64_t kPrime3 = 0x165667B19E3779F9ULL;
constexpr std::uint64_t kPrime4 = 0x85EBCA77C2B2AE63ULL;
constexpr std::uint64_t kPrime5 = 0x27D4EB2F165667C5ULL;

// Unaligned little-endian reads go through memcpy: the payload pieces the
// writer streams start at arbitrary offsets.
std::uint64_t read64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

std::uint32_t read32(const std::uint8_t* p) {
  std::uint32_t v = 0;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

std::uint64_t xxh_round(std::uint64_t acc, std::uint64_t input) {
  acc += input * kPrime2;
  acc = std::rotl(acc, 31);
  return acc * kPrime1;
}

std::uint64_t xxh_merge(std::uint64_t acc, std::uint64_t lane) {
  acc ^= xxh_round(0, lane);
  return acc * kPrime1 + kPrime4;
}

/// Consumes every whole 32-byte stripe of [p, p+n); returns the bytes used.
std::size_t consume_stripes(std::uint64_t (&lanes)[4], const std::uint8_t* p,
                            std::size_t n) {
  std::uint64_t v1 = lanes[0], v2 = lanes[1], v3 = lanes[2], v4 = lanes[3];
  std::size_t used = 0;
  for (; n - used >= 32; used += 32) {
    v1 = xxh_round(v1, read64(p + used));
    v2 = xxh_round(v2, read64(p + used + 8));
    v3 = xxh_round(v3, read64(p + used + 16));
    v4 = xxh_round(v4, read64(p + used + 24));
  }
  lanes[0] = v1;
  lanes[1] = v2;
  lanes[2] = v3;
  lanes[3] = v4;
  return used;
}

}  // namespace

// Seed 0: the lanes start at {P1 + P2, P2, 0, -P1}, and a short input's
// digest starts at P5.
Xxh64::Xxh64() : lanes_{kPrime1 + kPrime2, kPrime2, 0, 0 - kPrime1} {}

void Xxh64::update(const void* data, std::size_t n) {
  if (n == 0) return;
  const auto* p = static_cast<const std::uint8_t*>(data);
  total_ += n;
  if (buffered_ > 0) {
    const std::size_t take = std::min(n, sizeof(stripe_) - buffered_);
    std::memcpy(stripe_ + buffered_, p, take);
    buffered_ += take;
    p += take;
    n -= take;
    if (buffered_ < sizeof(stripe_)) return;
    consume_stripes(lanes_, stripe_, sizeof(stripe_));
    buffered_ = 0;
  }
  const std::size_t used = consume_stripes(lanes_, p, n);
  std::memcpy(stripe_, p + used, n - used);
  buffered_ = n - used;
}

std::uint64_t Xxh64::digest() const {
  std::uint64_t h = 0;
  if (total_ >= 32) {
    h = std::rotl(lanes_[0], 1) + std::rotl(lanes_[1], 7) +
        std::rotl(lanes_[2], 12) + std::rotl(lanes_[3], 18);
    for (const std::uint64_t lane : lanes_) h = xxh_merge(h, lane);
  } else {
    h = kPrime5;
  }
  h += total_;
  const std::uint8_t* p = stripe_;
  std::size_t left = buffered_;
  for (; left >= 8; left -= 8, p += 8) {
    h ^= xxh_round(0, read64(p));
    h = std::rotl(h, 27) * kPrime1 + kPrime4;
  }
  if (left >= 4) {
    h ^= std::uint64_t{read32(p)} * kPrime1;
    h = std::rotl(h, 23) * kPrime2 + kPrime3;
    left -= 4;
    p += 4;
  }
  for (; left > 0; --left, ++p) {
    h ^= *p * kPrime5;
    h = std::rotl(h, 11) * kPrime1;
  }
  h ^= h >> 33;
  h *= kPrime2;
  h ^= h >> 29;
  h *= kPrime3;
  h ^= h >> 32;
  return h;
}

std::uint64_t xxh64(const void* data, std::size_t n) {
  Xxh64 hash;
  hash.update(data, n);
  return hash.digest();
}

// ------------------------------------------------------------------ Writer

Writer::Writer(const std::string& path, std::uint32_t shard_count,
               fault::FaultInjector* faults)
    : path_(path),
      tmp_path_(path + ".tmp"),
      shard_count_(shard_count),
      faults_(faults != nullptr ? faults : &fault::FaultInjector::global()) {
  fd_ = open_retry(tmp_path_.c_str(),
                   O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd_ < 0) {
    status_ = util::Status::io_error("cannot open snapshot temp file: " +
                                     tmp_path_ + errno_suffix());
    return;
  }
  buffer_.reserve(kWriterBufferBytes);
  // Header placeholder; finish() patches the real one with pwrite.
  buffer_.assign(kHeaderBytes, 0);
}

Writer::~Writer() {
  // Abandoned mid-save (caller error path or crash-unwinding): the target
  // path is untouched by construction; drop the partial temp file.
  if (!finished_) discard();
}

void Writer::discard() {
  if (fd_ >= 0) {
    close_checked(fd_);
    fd_ = -1;
    ::unlink(tmp_path_.c_str());
  }
}

void Writer::flush_buffer() {
  if (!status_.ok() || buffer_.empty()) return;
  if (!write_all(fd_, buffer_.data(), buffer_.size())) {
    status_ = util::Status::io_error("cannot write snapshot: " + tmp_path_ +
                                     errno_suffix());
  }
  buffer_.clear();
}

void Writer::write_bytes(const void* data, std::size_t n) {
  if (!status_.ok() || n == 0) return;
  const auto* bytes = static_cast<const std::uint8_t*>(data);
  buffer_.insert(buffer_.end(), bytes, bytes + n);
  if (buffer_.size() >= kWriterBufferBytes) flush_buffer();
  if (!status_.ok()) return;
  checksum_.update(data, n);
  payload_bytes_ += n;
}

void Writer::write_u64(std::uint64_t value) {
  write_bytes(&value, sizeof(value));
}

void Writer::pad_to_alignment() {
  static const char zeros[8] = {};
  const std::size_t rem = payload_bytes_ % 8;
  if (rem != 0) write_bytes(zeros, 8 - rem);
}

util::Status Writer::finish() {
  if (finished_) return status_;
  finished_ = true;
  flush_buffer();
  if (status_.ok()) {
    std::uint8_t header[kHeaderBytes] = {};
    std::size_t off = 0;
    const auto put = [&](const void* v, std::size_t n) {
      std::memcpy(header + off, v, n);
      off += n;
    };
    const std::uint64_t magic = kMagic;
    const std::uint32_t version = kFormatVersion;
    const std::uint32_t endian = kEndianTag;
    const std::uint32_t reserved = 0;
    put(&magic, 8);
    put(&version, 4);
    put(&endian, 4);
    put(&shard_count_, 4);
    put(&reserved, 4);
    put(&payload_bytes_, 8);
    const std::uint64_t checksum = checksum_.digest();
    put(&checksum, 8);
    if (!pwrite_all(fd_, header, kHeaderBytes, 0)) {
      status_ = util::Status::io_error("cannot patch snapshot header: " +
                                       tmp_path_ + errno_suffix());
    }
  }
  // Data must be durable BEFORE the rename makes it visible: rename-then-
  // sync can surface a complete-looking file whose pages never hit disk.
  if (status_.ok() && !fsync_retry(fd_)) {
    status_ = util::Status::io_error("cannot fsync snapshot: " + tmp_path_ +
                                     errno_suffix());
  }
  if (fd_ >= 0) {
    if (!close_checked(fd_) && status_.ok()) {
      // A deferred write error can surface only at close; ignoring it
      // would publish a snapshot whose tail silently never landed.
      status_ = util::Status::io_error("cannot close snapshot: " +
                                       tmp_path_ + errno_suffix());
    }
    fd_ = -1;
  }
  if (status_.ok()) status_ = faults_->check(fault::Site::kSnapshot);
  if (status_.ok() && ::rename(tmp_path_.c_str(), path_.c_str()) != 0) {
    status_ = util::Status::io_error("cannot publish snapshot (rename " +
                                     tmp_path_ + " -> " + path_ + ")" +
                                     errno_suffix());
  }
  if (!status_.ok()) {
    ::unlink(tmp_path_.c_str());
    return status_;
  }
  if (!fsync_parent_dir(path_)) {
    status_ = util::Status::io_error(
        "cannot fsync snapshot directory for: " + path_ + errno_suffix());
  }
  return status_;
}

// ----------------------------------------------------------------- Mapping

Mapping::~Mapping() {
  if (base_ != nullptr && size_ > 0) {
    ::munmap(const_cast<std::uint8_t*>(base_), size_);
  }
}

util::Result<std::shared_ptr<Mapping>> map_file(const std::string& path) {
  const int fd = open_retry(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    return util::Status::io_error("cannot open snapshot: " + path +
                                  errno_suffix());
  }
  struct stat st {};
  if (::fstat(fd, &st) != 0) {
    close_checked(fd);
    return util::Status::io_error("cannot stat snapshot: " + path);
  }
  const auto size = static_cast<std::size_t>(st.st_size);
  if (size == 0) {
    close_checked(fd);
    return util::Status::parse_error("snapshot file is empty: " + path);
  }
  void* base = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
  // The mapping keeps its own reference to the pages; a read-only close
  // has no buffered data to lose, so its result is advisory only.
  close_checked(fd);
  if (base == MAP_FAILED) {
    return util::Status::io_error("cannot mmap snapshot: " + path + " (" +
                                  std::strerror(errno) + ")");
  }
  return std::shared_ptr<Mapping>(
      new Mapping(static_cast<const std::uint8_t*>(base), size));
}

util::Result<OpenedSnapshot> open_validated(const std::string& path,
                                           fault::FaultInjector* faults) {
  fault::FaultInjector& injector =
      faults != nullptr ? *faults : fault::FaultInjector::global();
  if (util::Status s = injector.check(fault::Site::kSnapshot); !s.ok()) {
    return s;
  }
  util::Result<std::shared_ptr<Mapping>> mapped = map_file(path);
  if (!mapped.ok()) return mapped.status();
  const std::shared_ptr<Mapping>& mapping = mapped.value();
  if (mapping->size() < kHeaderBytes) {
    return util::Status::parse_error("snapshot truncated before the header: " +
                                     path);
  }
  const std::uint8_t* h = mapping->data();
  const auto get_u64 = [&](std::size_t off) {
    std::uint64_t v = 0;
    std::memcpy(&v, h + off, 8);
    return v;
  };
  const auto get_u32 = [&](std::size_t off) {
    std::uint32_t v = 0;
    std::memcpy(&v, h + off, 4);
    return v;
  };
  if (get_u64(0) != kMagic) {
    return util::Status::parse_error("not a PrivLocAd snapshot (bad magic): " +
                                     path);
  }
  const std::uint32_t version = get_u32(8);
  if (version != kFormatVersion && version != kFnvFormatVersion) {
    return util::Status::parse_error(
        "unsupported snapshot format version " + std::to_string(version) +
        " (this build reads versions " + std::to_string(kFnvFormatVersion) +
        " and " + std::to_string(kFormatVersion) + "): " + path);
  }
  if (get_u32(12) != kEndianTag) {
    return util::Status::parse_error(
        "snapshot was written with a different byte order: " + path);
  }
  const std::uint32_t shards = get_u32(16);
  const std::uint64_t payload_bytes = get_u64(24);
  const std::uint64_t stored_checksum = get_u64(32);
  if (payload_bytes != mapping->size() - kHeaderBytes) {
    return util::Status::parse_error(
        "snapshot payload size disagrees with the file size: " + path);
  }
  // Every payload byte is checked here, before any column is adopted.
  const std::uint8_t* payload = mapping->data() + kHeaderBytes;
  const std::uint64_t computed = version == kFnvFormatVersion
                                     ? fnv1a64(payload, payload_bytes)
                                     : xxh64(payload, payload_bytes);
  if (computed != stored_checksum) {
    return util::Status::parse_error(
        "snapshot checksum mismatch (corrupt payload): " + path);
  }
  OpenedSnapshot opened;
  opened.mapping = mapping;
  opened.shard_count = shards;
  opened.payload_offset = kHeaderBytes;
  opened.payload_end = kHeaderBytes + payload_bytes;
  return opened;
}

// ------------------------------------------------------------------ Reader

util::Status Reader::read_u64(std::uint64_t& out) {
  if (end_ - offset_ < sizeof(out)) {
    return util::Status::parse_error("snapshot section truncated");
  }
  std::memcpy(&out, mapping_->data() + offset_, sizeof(out));
  offset_ += sizeof(out);
  return util::Status();
}

}  // namespace privlocad::core::snapshot
