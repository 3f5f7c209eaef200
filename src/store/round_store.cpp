#include "store/round_store.h"

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstring>
#include <filesystem>

#include "store/io.h"
#include "util/crashpoint.h"
#include "util/error.h"

namespace dinar::store {
namespace {

constexpr std::size_t kSnapHeaderBytes = 8 + 8 + 8 + 4;  // magic+ver+round+len+crc

using SnapHeader = std::array<std::uint8_t, kSnapHeaderBytes>;

SnapHeader snapshot_header(std::int64_t round, std::span<const std::uint8_t> payload) {
  SnapHeader h;
  const std::uint32_t magic = kSnapshotMagic, version = kSnapshotVersion;
  const std::uint64_t len = payload.size();
  const std::uint32_t crc = crc32(payload.data(), payload.size());
  std::memcpy(h.data(), &magic, 4);
  std::memcpy(h.data() + 4, &version, 4);
  std::memcpy(h.data() + 8, &round, 8);
  std::memcpy(h.data() + 16, &len, 8);
  std::memcpy(h.data() + 24, &crc, 4);
  return h;
}

// Validates a snapshot's framing + CRC in place: `h` is its header,
// `file` what followed it. false on any mismatch (a torn/corrupt snapshot,
// not an error).
bool snapshot_valid(const SnapHeader& h, const SplitFile& file, std::int64_t expect_round) {
  if (file.header_bytes < kSnapHeaderBytes) return false;
  std::uint32_t magic, version, crc;
  std::int64_t round;
  std::uint64_t len;
  std::memcpy(&magic, h.data(), 4);
  std::memcpy(&version, h.data() + 4, 4);
  std::memcpy(&round, h.data() + 8, 8);
  std::memcpy(&len, h.data() + 16, 8);
  std::memcpy(&crc, h.data() + 24, 4);
  if (magic != kSnapshotMagic || version != kSnapshotVersion) return false;
  if (round != expect_round) return false;
  if (len != file.rest.size()) return false;
  return crc32(file.rest.data(), len) == crc;
}

}  // namespace

RoundStore::RoundStore(std::string dir)
    : dir_((ensure_dir(dir), dir)), wal_(dir + "/wal.log") {}

void RoundStore::append(std::span<const std::uint8_t> payload) {
  wal_.append(payload);
}

std::string RoundStore::snapshot_path(std::int64_t round) const {
  char name[48];
  std::snprintf(name, sizeof name, "snapshot-%012lld.snap",
                static_cast<long long>(round));
  return dir_ + "/" + name;
}

std::vector<std::int64_t> RoundStore::snapshot_rounds() const {
  std::vector<std::int64_t> rounds;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir_, ec)) {
    const std::string name = entry.path().filename().string();
    long long round = -1;
    if (std::sscanf(name.c_str(), "snapshot-%lld.snap", &round) == 1 && round >= 0 &&
        name == std::string(snapshot_path(round), dir_.size() + 1))
      rounds.push_back(round);
  }
  std::sort(rounds.rbegin(), rounds.rend());
  return rounds;
}

void RoundStore::install_snapshot(std::int64_t round,
                                  std::span<const std::uint8_t> payload) {
  // 1. Durably install the new snapshot (crash-safe: old snapshot + WAL
  //    still recover until the rename lands).
  const SnapHeader header = snapshot_header(round, payload);
  atomic_write_file(snapshot_path(round), header, payload, "snapshot");
  crashpoint("snapshot.post_rename");
  // 2. Compact the WAL. A crash between 1 and 2 leaves absorbed records in
  //    the log; recovery dedupes them by round.
  wal_.reset();
  // 3. Prune old generations, keeping a fallback in case the newest
  //    snapshot is later found torn.
  const std::vector<std::int64_t> rounds = snapshot_rounds();
  for (std::size_t i = kKeepSnapshots; i < rounds.size(); ++i)
    remove_file(snapshot_path(rounds[i]));
}

RoundStore::Recovered RoundStore::recover() const {
  Recovered out;
  for (const std::int64_t round : snapshot_rounds()) {
    // The payload is read straight into its own buffer, apart from the
    // header, and handed out without another copy.
    SnapHeader header;
    std::optional<SplitFile> file = read_file_split(snapshot_path(round), header);
    if (!file.has_value()) continue;
    if (!snapshot_valid(header, *file, round)) {
      ++out.snapshots_rejected;  // torn or bit-rotted: fall back to older
      continue;
    }
    out.snapshot = std::move(file->rest);
    out.snapshot_round = round;
    break;
  }
  Wal::ScanResult walscan = Wal::scan(wal_.path());
  out.wal_records = std::move(walscan.records);
  out.wal_tail_discarded = walscan.tail_discarded;
  return out;
}

bool RoundStore::empty() const {
  if (!snapshot_rounds().empty()) return false;
  return Wal::scan_prefix(wal_.path()).valid_bytes <= kWalHeaderBytes;
}

}  // namespace dinar::store
