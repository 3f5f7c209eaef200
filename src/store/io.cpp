#include "store/io.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>

#include "util/crashpoint.h"
#include "util/error.h"

namespace dinar::store {
namespace {

// Slice-by-8 tables: kCrcTables[0] is the classic bytewise table, and
// kCrcTables[k][b] advances kCrcTables[k-1][b] by one more zero byte, so one
// 8-byte word folds into the CRC with eight independent lookups.
using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

constexpr CrcTables make_crc_tables() {
  CrcTables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < t.size(); ++k)
    for (std::uint32_t i = 0; i < 256; ++i)
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
  return t;
}

constexpr CrcTables kCrcTables = make_crc_tables();

// Little-endian load, independent of host byte order (compilers fold it
// into one load on little-endian targets).
inline std::uint32_t load_le32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) | static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 | static_cast<std::uint32_t>(p[3]) << 24;
}

// Folds one 8-byte word into the (pre-inverted) CRC register `c`.
inline std::uint32_t crc_word(std::uint32_t c, const std::uint8_t* p) {
  const auto& t = kCrcTables;
  const std::uint32_t lo = load_le32(p) ^ c;
  const std::uint32_t hi = load_le32(p + 4);
  return t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^ t[5][(lo >> 16) & 0xFFu] ^
         t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^ t[2][(hi >> 8) & 0xFFu] ^
         t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
}

// Slice-by-8 over one contiguous run.
std::uint32_t crc32_run(const std::uint8_t* p, std::size_t n, std::uint32_t seed) {
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  for (; n >= 8; p += 8, n -= 8) c = crc_word(c, p);
  for (; n > 0; ++p, --n) c = kCrcTables[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

// a(x) * b(x) mod P(x) in the reflected bit order of the CRC (zlib's
// multmodp).
std::uint32_t mul_mod_p(std::uint32_t a, std::uint32_t b) {
  std::uint32_t m = 1u << 31, prod = 0;
  for (;;) {
    if (a & m) {
      prod ^= b;
      if ((a & (m - 1)) == 0) break;
    }
    m >>= 1;
    b = (b & 1) ? (b >> 1) ^ 0xEDB88320u : b >> 1;
  }
  return prod;
}

// CRC of A followed by B from crc(A), crc(B) and |B| (zlib's
// crc32_combine): crc(A) is advanced over |B| zero bytes by multiplying
// with x^(8|B|) mod P, then crc(B) is added.
std::uint32_t crc32_combine(std::uint32_t crc_a, std::uint32_t crc_b, std::uint64_t len_b) {
  std::uint32_t x_pow = 1u << 23;  // x^8: one zero byte
  std::uint32_t shift = 1u << 31;  // x^0
  for (; len_b > 0; len_b >>= 1, x_pow = mul_mod_p(x_pow, x_pow))
    if (len_b & 1) shift = mul_mod_p(x_pow, shift);
  return mul_mod_p(shift, crc_a) ^ crc_b;
}

// Below this many bytes one run is as fast as three lanes plus the combine.
constexpr std::size_t kCrcLaneMinBytes = 4096;

}  // namespace

std::uint32_t crc32(const void* data, std::size_t n, std::uint32_t seed) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  if (n < kCrcLaneMinBytes) return crc32_run(p, n, seed);
  // Three interleaved lanes over equal thirds: each slice-by-8 step waits
  // on its lane's previous result, so three independent chains keep the
  // table loads busy. The lane CRCs are then joined as if computed in one
  // run, and the tail past the lanes continues from there.
  const std::size_t lane = n / 3 / 8 * 8;
  const std::uint8_t* pb = p + lane;
  const std::uint8_t* pc = pb + lane;
  std::uint32_t ca = seed ^ 0xFFFFFFFFu, cb = 0xFFFFFFFFu, cc = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < lane; i += 8) {
    ca = crc_word(ca, p + i);
    cb = crc_word(cb, pb + i);
    cc = crc_word(cc, pc + i);
  }
  const std::uint32_t ab = crc32_combine(ca ^ 0xFFFFFFFFu, cb ^ 0xFFFFFFFFu, lane);
  const std::uint32_t abc = crc32_combine(ab, cc ^ 0xFFFFFFFFu, lane);
  return crc32_run(pc + lane, n - 3 * lane, abc);
}

Fd::~Fd() {
  if (fd >= 0) ::close(fd);
}

std::size_t pread_up_to(int fd, std::uint8_t* dst, std::size_t n, std::uint64_t offset,
                        const std::string& path) {
  std::size_t got = 0;
  while (got < n) {
    const ssize_t r = ::pread(fd, dst + got, n - got, static_cast<off_t>(offset + got));
    if (r < 0) {
      if (errno == EINTR) continue;
      DINAR_CHECK(false, "read from " << path << " failed: " << std::strerror(errno));
    }
    if (r == 0) break;
    got += static_cast<std::size_t>(r);
  }
  return got;
}

std::optional<SplitFile> read_file_split(const std::string& path,
                                         std::span<std::uint8_t> header) {
  Fd f(::open(path.c_str(), O_RDONLY | O_CLOEXEC));
  if (f.fd < 0) {
    if (errno == ENOENT) return std::nullopt;
    DINAR_CHECK(false, "cannot open " << path << ": " << std::strerror(errno));
  }
  struct stat st;
  DINAR_CHECK(::fstat(f.fd, &st) == 0,
              "cannot stat " << path << ": " << std::strerror(errno));
  SplitFile out;
  out.header_bytes = pread_up_to(f.fd, header.data(), header.size(), 0, path);
  if (out.header_bytes < header.size()) return out;
  const auto size = static_cast<std::size_t>(st.st_size);
  out.rest.resize(size > header.size() ? size - header.size() : 0);
  out.rest.resize(pread_up_to(f.fd, out.rest.data(), out.rest.size(), header.size(), path));
  return out;
}

std::optional<std::vector<std::uint8_t>> read_file(const std::string& path) {
  std::optional<SplitFile> f = read_file_split(path, {});
  if (!f.has_value()) return std::nullopt;
  return std::move(f->rest);
}

void pwrite_all(int fd, std::span<const std::uint8_t> head,
                std::span<const std::uint8_t> body, std::uint64_t offset,
                const std::string& path) {
  // Empty spans may carry a null data(); iovecs of length 0 never touch it.
  iovec iov[2] = {{const_cast<std::uint8_t*>(head.data()), head.size()},
                  {const_cast<std::uint8_t*>(body.data()), body.size()}};
  int first = 0;
  while (first < 2) {
    if (iov[first].iov_len == 0) {
      ++first;
      continue;
    }
    const ssize_t w = ::pwritev(fd, iov + first, 2 - first, static_cast<off_t>(offset));
    if (w < 0) {
      if (errno == EINTR) continue;
      DINAR_CHECK(false, "write to " << path << " failed: " << std::strerror(errno));
    }
    offset += static_cast<std::uint64_t>(w);
    for (auto left = static_cast<std::size_t>(w); left > 0;) {
      const std::size_t step = std::min(left, iov[first].iov_len);
      iov[first].iov_base = static_cast<std::uint8_t*>(iov[first].iov_base) + step;
      iov[first].iov_len -= step;
      left -= step;
      if (iov[first].iov_len == 0) ++first;
    }
  }
}

void fsync_parent_dir(const std::string& path) {
  const std::filesystem::path parent = std::filesystem::path(path).parent_path();
  const std::string dir = parent.empty() ? "." : parent.string();
  Fd d(::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC));
  if (d.fd < 0) return;  // some filesystems refuse directory fds; best effort
  ::fsync(d.fd);         // ditto for the sync itself
}

void atomic_write_file(const std::string& path, std::span<const std::uint8_t> head,
                       std::span<const std::uint8_t> body, const char* crash_site) {
  const std::string site = crash_site == nullptr ? std::string() : crash_site;
  const std::string tmp = path + ".tmp";
  if (!site.empty()) crashpoint((site + ".pre_write").c_str());
  {
    Fd f(::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644));
    DINAR_CHECK(f.fd >= 0, "cannot create " << tmp << ": " << std::strerror(errno));
    pwrite_all(f.fd, head, body, 0, tmp);
    if (!site.empty()) crashpoint((site + ".pre_fsync").c_str());
    DINAR_CHECK(::fsync(f.fd) == 0, "fsync of " << tmp << " failed: "
                                                << std::strerror(errno));
  }
  if (!site.empty()) crashpoint((site + ".rename").c_str());
  DINAR_CHECK(::rename(tmp.c_str(), path.c_str()) == 0,
              "rename " << tmp << " -> " << path << " failed: "
                        << std::strerror(errno));
  fsync_parent_dir(path);
}

bool path_exists(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0;
}

void ensure_dir(const std::string& dir) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  DINAR_CHECK(!ec, "cannot create directory " << dir << ": " << ec.message());
}

void remove_file(const std::string& path) {
  if (::unlink(path.c_str()) == 0 || errno == ENOENT) return;
  DINAR_CHECK(false, "cannot remove " << path << ": " << std::strerror(errno));
}

}  // namespace dinar::store
