#include "store/wal.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <utility>

#include "store/io.h"
#include "util/crashpoint.h"
#include "util/error.h"

namespace dinar::store {
namespace {

// A record longer than this is taken as frame corruption, not a real
// payload — it bounds the allocation a corrupted length prefix can cause.
constexpr std::uint32_t kMaxRecordBytes = 1u << 30;

// A scan reads and CRCs payloads in pieces of this size, so each piece is
// still in cache when its CRC runs.
constexpr std::size_t kScanChunkBytes = 1u << 20;

void put_u32(std::uint8_t* p, std::uint32_t v) { std::memcpy(p, &v, 4); }
std::uint32_t get_u32(const std::uint8_t* p) {
  std::uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}

// One pass over the log: each frame's header is read, its length checked
// against the file size, and its payload read and CRC-checked in
// kScanChunkBytes pieces — into the record's own buffer when
// `keep_records`, else through one reused chunk, so finding the valid
// prefix copies no record and builds no whole-file buffer.
Wal::ScanResult scan_log(const std::string& path, bool keep_records) {
  Wal::ScanResult out;
  Fd f(::open(path.c_str(), O_RDONLY | O_CLOEXEC));
  if (f.fd < 0) {
    DINAR_CHECK(errno == ENOENT,
                "cannot open WAL " << path << ": " << std::strerror(errno));
    out.missing_or_empty = true;
    return out;
  }
  struct stat st;
  DINAR_CHECK(::fstat(f.fd, &st) == 0,
              "cannot stat WAL " << path << ": " << std::strerror(errno));
  const auto file_bytes = static_cast<std::uint64_t>(st.st_size);
  std::uint8_t header[kWalHeaderBytes];
  if (pread_up_to(f.fd, header, kWalHeaderBytes, 0, path) < kWalHeaderBytes ||
      get_u32(header) != kWalMagic || get_u32(header + 4) != kWalVersion) {
    out.missing_or_empty = true;
    out.tail_discarded = file_bytes > 0;
    return out;
  }
  std::vector<std::uint8_t> record, chunk;
  std::uint64_t pos = kWalHeaderBytes;
  out.valid_bytes = pos;
  std::uint8_t frame[kWalFrameHeaderBytes];
  while (pos + kWalFrameHeaderBytes <= file_bytes &&
         pread_up_to(f.fd, frame, kWalFrameHeaderBytes, pos, path) == kWalFrameHeaderBytes) {
    const std::uint32_t len = get_u32(frame);
    const std::uint32_t crc = get_u32(frame + 4);
    if (len > kMaxRecordBytes || pos + kWalFrameHeaderBytes + len > file_bytes)
      break;  // torn tail: header claims more bytes than the file holds
    const std::uint64_t at = pos + kWalFrameHeaderBytes;
    if (keep_records)
      record.resize(len);
    else if (chunk.size() < std::min<std::size_t>(len, kScanChunkBytes))
      chunk.resize(std::min<std::size_t>(len, kScanChunkBytes));
    std::uint32_t c = 0;
    bool whole = true;
    for (std::size_t done = 0; whole && done < len;) {
      const std::size_t step = std::min<std::size_t>(len - done, kScanChunkBytes);
      std::uint8_t* dst = keep_records ? record.data() + done : chunk.data();
      whole = pread_up_to(f.fd, dst, step, at + done, path) == step;
      c = crc32(dst, step, c);
      done += step;
    }
    if (!whole || c != crc) break;  // bit flip or partially written
    if (keep_records) out.records.push_back(std::exchange(record, {}));
    pos = at + len;
    out.valid_bytes = pos;
  }
  out.tail_discarded = out.valid_bytes < file_bytes;
  return out;
}

}  // namespace

Wal::ScanResult Wal::scan(const std::string& path) { return scan_log(path, true); }

Wal::ScanResult Wal::scan_prefix(const std::string& path) {
  return scan_log(path, false);
}

Wal::Wal(std::string path) : path_(std::move(path)) { open_and_position(); }

Wal::~Wal() {
  if (fd_ >= 0) ::close(fd_);
}

void Wal::open_and_position() {
  const ScanResult existing = scan_prefix(path_);
  fd_ = ::open(path_.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  DINAR_CHECK(fd_ >= 0, "cannot open WAL " << path_ << ": " << std::strerror(errno));
  if (existing.missing_or_empty) {
    // Fresh (or unrecognizable) log: write a clean header. An
    // unrecognizable file has no salvageable records by definition.
    std::uint8_t header[kWalHeaderBytes];
    put_u32(header, kWalMagic);
    put_u32(header + 4, kWalVersion);
    DINAR_CHECK(::ftruncate(fd_, 0) == 0,
                "cannot truncate WAL " << path_ << ": " << std::strerror(errno));
    pwrite_all(fd_, header, {}, 0, path_);
    DINAR_CHECK(::fsync(fd_) == 0,
                "fsync of WAL " << path_ << " failed: " << std::strerror(errno));
    fsync_parent_dir(path_);
    cursor_ = kWalHeaderBytes;
    return;
  }
  // Existing log: drop any torn tail so the next append starts on a clean
  // frame boundary.
  cursor_ = existing.valid_bytes;
  if (existing.tail_discarded) {
    DINAR_CHECK(::ftruncate(fd_, static_cast<off_t>(cursor_)) == 0,
                "cannot trim torn WAL tail of " << path_ << ": "
                                                << std::strerror(errno));
    DINAR_CHECK(::fsync(fd_) == 0,
                "fsync of WAL " << path_ << " failed: " << std::strerror(errno));
  }
}

void Wal::append(std::span<const std::uint8_t> payload) {
  DINAR_CHECK(payload.size() <= kMaxRecordBytes,
              "WAL record of " << payload.size() << " bytes exceeds the "
                               << kMaxRecordBytes << "-byte frame limit");
  std::uint8_t header[kWalFrameHeaderBytes];
  put_u32(header, static_cast<std::uint32_t>(payload.size()));
  put_u32(header + 4, crc32(payload.data(), payload.size()));

  // Every write lands at cursor_, the end of the acked prefix, so the torn
  // bytes of an append that failed partway are overwritten by the next one.
  crashpoint("wal.append.pre_write");
  if (crashpoint_armed()) {
    // Split the write so the mid_write crashpoint leaves a genuinely torn
    // frame (header + partial payload) on disk. Unarmed processes keep the
    // single-write fast path.
    std::vector<std::uint8_t> frame(header, header + kWalFrameHeaderBytes);
    frame.insert(frame.end(), payload.begin(), payload.end());
    const std::size_t half = frame.size() / 2;
    const std::span<const std::uint8_t> bytes(frame);
    pwrite_all(fd_, bytes.first(half), {}, cursor_, path_);
    crashpoint("wal.append.mid_write");
    pwrite_all(fd_, bytes.subspan(half), {}, cursor_ + half, path_);
  } else {
    pwrite_all(fd_, header, payload, cursor_, path_);
  }
  crashpoint("wal.append.pre_fsync");
  DINAR_CHECK(::fsync(fd_) == 0,
              "fsync of WAL " << path_ << " failed: " << std::strerror(errno));
  crashpoint("wal.append.post_fsync");
  cursor_ += kWalFrameHeaderBytes + payload.size();
}

void Wal::reset() {
  DINAR_CHECK(::ftruncate(fd_, static_cast<off_t>(kWalHeaderBytes)) == 0,
              "cannot reset WAL " << path_ << ": " << std::strerror(errno));
  DINAR_CHECK(::fsync(fd_) == 0,
              "fsync of WAL " << path_ << " failed: " << std::strerror(errno));
  cursor_ = kWalHeaderBytes;
}

}  // namespace dinar::store
