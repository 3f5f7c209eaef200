// Durable file I/O primitives for the state store.
//
// Every byte the store trusts after a crash went through one of these
// helpers. The contract is the classic one:
//   - atomic_write_file(): write to `<path>.tmp`, fsync the file, rename()
//     over the destination, fsync the containing directory. A reader can
//     observe either the complete old file or the complete new file, never
//     a prefix of either — rename() is atomic on POSIX filesystems.
//   - CRC-32 framing (crc32()) guards the *contents*: rename atomicity says
//     nothing about bit rot or a torn append inside a log file, so every
//     record and snapshot carries a checksum that recovery verifies before
//     believing a single byte.
//
// All functions throw dinar::Error on I/O failure; corruption is *not* an
// error here — detecting and tolerating it is the recovery layer's job.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace dinar::store {

// CRC-32 (IEEE 802.3, reflected 0xEDB88320), the classic log-record
// checksum. `seed` chains multi-buffer checksums: pass a previous result.
// Computed slice-by-8 (eight table lookups per 8-byte word) in three
// interleaved lanes joined by CRC combination, which gives the same values
// as the bytewise table walk at several times its speed.
std::uint32_t crc32(const void* data, std::size_t n, std::uint32_t seed = 0);

// Reads a whole file into one buffer sized by fstat; std::nullopt if it
// does not exist. Throws on other I/O errors.
std::optional<std::vector<std::uint8_t>> read_file(const std::string& path);

// A file read in two parts, split after a fixed-size header.
struct SplitFile {
  std::size_t header_bytes = 0;    // bytes read into the caller's header
  std::vector<std::uint8_t> rest;  // everything after the header
};

// Reads the first `header.size()` bytes of `path` into `header` and the
// remainder, sized by fstat, into `rest`, so a framed payload lands in a
// buffer of its own without a copy out of the file bytes. `header_bytes`
// is short only for a file shorter than the header (and `rest` is then
// empty). std::nullopt if the file does not exist; throws on other I/O
// errors.
std::optional<SplitFile> read_file_split(const std::string& path,
                                         std::span<std::uint8_t> header);

// Owns an open file descriptor (-1 = none) and closes it on destruction;
// never throws.
struct Fd {
  explicit Fd(int f) : fd(f) {}
  ~Fd();
  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;
  int fd;
};

// Reads up to `n` bytes at file offset `offset` into `dst`, retrying short
// reads and EINTR. Returns the bytes read, fewer than `n` only at end of
// file. Throws dinar::Error naming `path` on failure.
std::size_t pread_up_to(int fd, std::uint8_t* dst, std::size_t n, std::uint64_t offset,
                        const std::string& path);

// Writes `head` then `body` at file offset `offset` (one pwritev, retried
// on short writes and EINTR). Throws dinar::Error naming `path` on failure;
// the file may then hold a prefix of the bytes.
void pwrite_all(int fd, std::span<const std::uint8_t> head,
                std::span<const std::uint8_t> body, std::uint64_t offset,
                const std::string& path);

// Durably replaces `path` with `head` followed by `body` via temp + fsync +
// rename + parent directory fsync; the two parts are written without being
// joined into one buffer. When `crash_site` is non-null, crashpoints
// "<crash_site>.pre_write", "<crash_site>.pre_fsync" and
// "<crash_site>.rename" fire at the matching steps (see util/crashpoint.h).
void atomic_write_file(const std::string& path, std::span<const std::uint8_t> head,
                       std::span<const std::uint8_t> body,
                       const char* crash_site = nullptr);

// Same, for a file that is one buffer.
inline void atomic_write_file(const std::string& path,
                              std::span<const std::uint8_t> bytes,
                              const char* crash_site = nullptr) {
  atomic_write_file(path, bytes, {}, crash_site);
}

// fsyncs the directory containing `path` so a freshly created/renamed
// entry survives power loss. No-op on filesystems that refuse directory
// fds.
void fsync_parent_dir(const std::string& path);

// True if `path` exists (any file type).
bool path_exists(const std::string& path);

// Creates `dir` (and parents) if missing; throws if it cannot.
void ensure_dir(const std::string& dir);

// Removes a file if present; ignores a missing file, throws on other
// failures.
void remove_file(const std::string& path);

}  // namespace dinar::store
