// Durable round store: WAL framing, torn-tail recovery, snapshot
// fallback, crashpoint injection, and crash-consistent simulation
// recovery (empty WAL, snapshot-only, duplicate records, legacy DCKP).
#include <gtest/gtest.h>

#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <csignal>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <random>

#include "fl/durable.h"
#include "fl/simulation.h"
#include "store/io.h"
#include "store/round_store.h"
#include "store/wal.h"
#include "test_helpers.h"
#include "util/crashpoint.h"
#include "util/error.h"

namespace dinar {
namespace {

namespace fs = std::filesystem;
using dinar::testing::make_easy_dataset;
using dinar::testing::tiny_mlp_factory;

std::string fresh_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "dinar_store_test/" + name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

std::vector<std::uint8_t> bytes_of(std::initializer_list<int> v) {
  std::vector<std::uint8_t> out;
  for (int x : v) out.push_back(static_cast<std::uint8_t>(x));
  return out;
}

void write_raw(const std::string& path, const std::vector<std::uint8_t>& bytes) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  f.write(reinterpret_cast<const char*>(bytes.data()),
          static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(f.good());
}

// ------------------------------------------------------------------ crc32 --

TEST(Crc32Test, KnownAnswer) {
  const char* s = "123456789";
  EXPECT_EQ(store::crc32(s, 9), 0xCBF43926u);
}

TEST(Crc32Test, SeedChainsBuffers) {
  const char* s = "123456789";
  const std::uint32_t part = store::crc32(s, 4);
  EXPECT_EQ(store::crc32(s + 4, 5, part), store::crc32(s, 9));
}

// The bytewise table walk that crc32() replaced; kept here as the
// reference the fast path must match value for value.
std::uint32_t bytewise_crc32(const std::uint8_t* p, std::size_t n, std::uint32_t seed = 0) {
  std::uint32_t table[256];
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    table[i] = c;
  }
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  for (std::size_t i = 0; i < n; ++i) c = table[(c ^ p[i]) & 0xFFu] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

std::vector<std::uint8_t> random_bytes(std::size_t n, std::uint32_t seed) {
  std::mt19937 gen(seed);
  std::vector<std::uint8_t> out(n);
  for (std::uint8_t& b : out) b = static_cast<std::uint8_t>(gen());
  return out;
}

TEST(Crc32Test, MatchesBytewiseReferenceAtEveryLengthAndAlignment) {
  const std::vector<std::uint8_t> buf = random_bytes(64 + 8, 1);
  for (std::size_t align = 0; align < 8; ++align)
    for (std::size_t len = 0; len <= 64; ++len)
      EXPECT_EQ(store::crc32(buf.data() + align, len),
                bytewise_crc32(buf.data() + align, len))
          << "align=" << align << " len=" << len;
  // Lengths on both sides of the size where the lanes start, and with every
  // remainder past three whole lanes.
  const std::vector<std::uint8_t> mid = random_bytes(20000, 5);
  for (std::size_t len = 1000; len + 8 <= mid.size(); len += 997)
    for (std::size_t align = 0; align < 8; ++align)
      EXPECT_EQ(store::crc32(mid.data() + align, len, 7u),
                bytewise_crc32(mid.data() + align, len, 7u))
          << "align=" << align << " len=" << len;
  const std::vector<std::uint8_t> big = random_bytes(5u << 20, 2);
  EXPECT_EQ(store::crc32(big.data(), big.size()), bytewise_crc32(big.data(), big.size()));
  EXPECT_EQ(store::crc32(big.data() + 3, big.size() - 3, 0x12345678u),
            bytewise_crc32(big.data() + 3, big.size() - 3, 0x12345678u));
}

TEST(Crc32Test, SeedChainsAtEverySplitPoint) {
  const std::vector<std::uint8_t> buf = random_bytes(100, 3);
  const std::uint32_t whole = bytewise_crc32(buf.data(), buf.size());
  for (std::size_t split = 0; split <= buf.size(); ++split) {
    const std::uint32_t head = store::crc32(buf.data(), split);
    EXPECT_EQ(store::crc32(buf.data() + split, buf.size() - split, head), whole)
        << "split=" << split;
  }
}

// -------------------------------------------------------- atomic_write_file --

TEST(AtomicWriteTest, ReplacesContentAndLeavesNoTemp) {
  const std::string dir = fresh_dir("atomic");
  const std::string path = dir + "/file.bin";
  store::atomic_write_file(path, bytes_of({1, 2, 3}));
  store::atomic_write_file(path, bytes_of({9, 8}));
  const auto got = store::read_file(path);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, bytes_of({9, 8}));
  EXPECT_FALSE(store::path_exists(path + ".tmp"));
}

TEST(AtomicWriteTest, MissingFileReadsAsNullopt) {
  EXPECT_FALSE(store::read_file(fresh_dir("missing") + "/nope").has_value());
}

// ------------------------------------------------------------------- WAL ----

TEST(WalTest, FreshLogScansEmpty) {
  const std::string path = fresh_dir("wal_fresh") + "/wal.log";
  store::Wal wal(path);
  const auto scan = store::Wal::scan(path);
  EXPECT_FALSE(scan.missing_or_empty);
  EXPECT_TRUE(scan.records.empty());
  EXPECT_FALSE(scan.tail_discarded);
}

TEST(WalTest, AppendReopenScanRoundTrips) {
  const std::string path = fresh_dir("wal_rt") + "/wal.log";
  const std::vector<std::vector<std::uint8_t>> records = {
      bytes_of({1, 2, 3, 4, 5}), bytes_of({}), bytes_of({7, 7, 7})};
  {
    store::Wal wal(path);
    for (const auto& r : records) wal.append(r);
  }
  store::Wal reopened(path);  // must not disturb the valid prefix
  const auto scan = store::Wal::scan(path);
  EXPECT_EQ(scan.records, records);
  EXPECT_FALSE(scan.tail_discarded);
}

std::string to_hex(const std::vector<std::uint8_t>& bytes) {
  static const char* digits = "0123456789abcdef";
  std::string out;
  for (const std::uint8_t b : bytes) {
    out += digits[b >> 4];
    out += digits[b & 0xF];
  }
  return out;
}

std::vector<std::uint8_t> from_hex(const std::string& hex) {
  std::vector<std::uint8_t> out;
  for (std::size_t i = 0; i + 1 < hex.size(); i += 2)
    out.push_back(static_cast<std::uint8_t>(std::stoi(hex.substr(i, 2), nullptr, 16)));
  return out;
}

// The on-disk WAL layout, byte for byte: 'DWAL', version 1, then one frame
// of [len 9][crc32 0x881559dd]["dinar-wal"]. A log written in this exact
// form by any earlier build must keep scanning to the same record.
constexpr const char* kGoldenWal =
    "4457414c01000000"     // magic 'DWAL', version 1
    "09000000dd591588"     // payload_len 9, crc32
    "64696e61722d77616c";  // "dinar-wal"

TEST(WalTest, FrameBytesAreGolden) {
  const std::string dir = fresh_dir("wal_golden");
  const std::string payload = "dinar-wal";
  {
    store::Wal wal(dir + "/wal.log");
    wal.append({reinterpret_cast<const std::uint8_t*>(payload.data()), payload.size()});
  }
  const auto bytes = store::read_file(dir + "/wal.log");
  ASSERT_TRUE(bytes.has_value());
  EXPECT_EQ(to_hex(*bytes), kGoldenWal);

  const std::string old_path = dir + "/old.log";
  write_raw(old_path, from_hex(kGoldenWal));
  const auto scan = store::Wal::scan(old_path);
  ASSERT_EQ(scan.records.size(), 1u);
  EXPECT_EQ(std::string(scan.records[0].begin(), scan.records[0].end()), payload);
  EXPECT_FALSE(scan.tail_discarded);
}

// A multi-MiB record round-trips, and a single bit flip in the last,
// partial 8-byte block of its payload (the CRC's bytewise tail) rejects it.
TEST(WalTest, MultiMiBRecordRoundTripsAndCatchesTailBitFlip) {
  const std::string path = fresh_dir("wal_big") + "/wal.log";
  const std::vector<std::uint8_t> big = random_bytes((3u << 20) + 5, 4);
  {
    store::Wal wal(path);
    wal.append(big);
    wal.append(bytes_of({1, 2, 3}));
  }
  auto scan = store::Wal::scan(path);
  ASSERT_EQ(scan.records.size(), 2u);
  EXPECT_TRUE(scan.records[0] == big);
  EXPECT_EQ(scan.records[1], bytes_of({1, 2, 3}));
  EXPECT_EQ(store::Wal::scan_prefix(path).valid_bytes, scan.valid_bytes);

  auto bytes = store::read_file(path);
  ASSERT_TRUE(bytes.has_value());
  const std::size_t last = store::kWalHeaderBytes + store::kWalFrameHeaderBytes + big.size() - 1;
  (*bytes)[last] ^= 0x10;
  write_raw(path, *bytes);
  scan = store::Wal::scan(path);
  EXPECT_TRUE(scan.records.empty());
  EXPECT_TRUE(scan.tail_discarded);
  EXPECT_EQ(scan.valid_bytes, store::kWalHeaderBytes);
  const auto prefix = store::Wal::scan_prefix(path);
  EXPECT_TRUE(prefix.records.empty());
  EXPECT_EQ(prefix.valid_bytes, store::kWalHeaderBytes);
  EXPECT_TRUE(prefix.tail_discarded);
}

// An append that fails partway (here EFBIG under RLIMIT_FSIZE) leaves torn
// bytes behind. The next acked append must land at the end of the valid
// prefix, over the torn bytes, so a scan still finds it. Runs in a death
// test child so the rlimit cannot leak into other tests.
TEST(WalTest, FailedAppendDoesNotHideTheNextAckedRecord) {
  const std::string path = fresh_dir("wal_efbig") + "/wal.log";
  EXPECT_EXIT(
      {
        std::signal(SIGXFSZ, SIG_IGN);
        store::Wal wal(path);
        wal.append(std::vector<std::uint8_t>(100, 1));  // file: 8 + 108 bytes
        rlimit saved{};
        ::getrlimit(RLIMIT_FSIZE, &saved);
        rlimit tight = saved;
        tight.rlim_cur = 116 + 500;  // room for half of the next frame
        ::setrlimit(RLIMIT_FSIZE, &tight);
        bool threw = false;
        try {
          wal.append(std::vector<std::uint8_t>(1000, 2));
        } catch (const Error&) {
          threw = true;
        }
        ::setrlimit(RLIMIT_FSIZE, &saved);
        wal.append(std::vector<std::uint8_t>(10, 3));  // acked
        const auto scan = store::Wal::scan(path);
        const bool ok = threw && scan.records.size() == 2 &&
                        scan.records[1] == std::vector<std::uint8_t>(10, 3);
        std::exit(ok ? 0 : 1);
      },
      ::testing::ExitedWithCode(0), "");
}

TEST(WalTest, ResetTruncatesToHeader) {
  const std::string path = fresh_dir("wal_reset") + "/wal.log";
  store::Wal wal(path);
  wal.append(bytes_of({1, 2, 3}));
  wal.reset();
  wal.append(bytes_of({4}));
  const auto scan = store::Wal::scan(path);
  ASSERT_EQ(scan.records.size(), 1u);
  EXPECT_EQ(scan.records[0], bytes_of({4}));
}

// Torn at EVERY byte boundary: truncating the log anywhere must yield
// exactly the records whose frames fully fit, flag the torn tail, and
// never throw.
TEST(WalTest, TruncationAtEveryLengthRecoversLongestValidPrefix) {
  const std::string dir = fresh_dir("wal_trunc");
  const std::string path = dir + "/wal.log";
  const std::vector<std::vector<std::uint8_t>> records = {
      bytes_of({1, 2, 3, 4, 5}), bytes_of({}), bytes_of({7, 7, 7, 7})};
  {
    store::Wal wal(path);
    for (const auto& r : records) wal.append(r);
  }
  const auto full = store::read_file(path);
  ASSERT_TRUE(full.has_value());
  // Frame boundaries: header, then header + cumulative frame sizes.
  std::vector<std::size_t> boundaries = {8};
  for (const auto& r : records) boundaries.push_back(boundaries.back() + 8 + r.size());
  ASSERT_EQ(boundaries.back(), full->size());

  for (std::size_t len = 0; len < full->size(); ++len) {
    const std::string torn = dir + "/torn.log";
    write_raw(torn, {full->begin(), full->begin() + static_cast<long>(len)});
    const auto scan = store::Wal::scan(torn);
    if (len < 8) {
      EXPECT_TRUE(scan.missing_or_empty) << "len=" << len;
      continue;
    }
    std::size_t expect = 0;
    while (expect + 1 < boundaries.size() && boundaries[expect + 1] <= len) ++expect;
    ASSERT_EQ(scan.records.size(), expect) << "len=" << len;
    for (std::size_t i = 0; i < expect; ++i) EXPECT_EQ(scan.records[i], records[i]);
    EXPECT_EQ(scan.tail_discarded, len != boundaries[expect]) << "len=" << len;
    // Re-opening the torn log for append must trim the tail cleanly.
    store::Wal reopened(torn);
    reopened.append(bytes_of({42}));
    const auto rescan = store::Wal::scan(torn);
    ASSERT_EQ(rescan.records.size(), expect + 1) << "len=" << len;
    EXPECT_EQ(rescan.records.back(), bytes_of({42}));
  }
}

// A single flipped bit anywhere must cost at most the records from the
// flipped frame onward — never a crash, never a corrupted record accepted.
TEST(WalTest, BitFlipAtEveryByteStopsAtTheFlippedFrame) {
  const std::string dir = fresh_dir("wal_flip");
  const std::string path = dir + "/wal.log";
  const std::vector<std::vector<std::uint8_t>> records = {
      bytes_of({1, 2, 3, 4, 5}), bytes_of({}), bytes_of({7, 7, 7, 7})};
  {
    store::Wal wal(path);
    for (const auto& r : records) wal.append(r);
  }
  const auto full = store::read_file(path);
  ASSERT_TRUE(full.has_value());
  std::vector<std::size_t> boundaries = {8};
  for (const auto& r : records) boundaries.push_back(boundaries.back() + 8 + r.size());

  for (std::size_t pos = 0; pos < full->size(); ++pos) {
    std::vector<std::uint8_t> flipped = *full;
    flipped[pos] ^= 0x40;
    const std::string mutated = dir + "/flipped.log";
    write_raw(mutated, flipped);
    const auto scan = store::Wal::scan(mutated);
    if (pos < 8) {
      EXPECT_TRUE(scan.missing_or_empty) << "pos=" << pos;
      continue;
    }
    std::size_t frame = 0;
    while (frame + 1 < boundaries.size() && boundaries[frame + 1] <= pos) ++frame;
    ASSERT_EQ(scan.records.size(), frame) << "pos=" << pos;
    for (std::size_t i = 0; i < frame; ++i) EXPECT_EQ(scan.records[i], records[i]);
  }
}

// ------------------------------------------------------------- crashpoints --

using CrashpointDeathTest = ::testing::Test;

TEST(CrashpointDeathTest, ArmedSiteDiesWithTheDedicatedExitCode) {
  EXPECT_EXIT(
      {
        crashpoint_arm("test.site", 1);
        crashpoint("test.site");
      },
      ::testing::ExitedWithCode(kCrashpointExitCode), "dying at test.site");
}

TEST(CrashpointDeathTest, HitCountDelaysTheKill) {
  EXPECT_EXIT(
      {
        crashpoint_arm("test.site", 2);
        crashpoint("test.site");  // survives the first hit
        crashpoint("test.site");
      },
      ::testing::ExitedWithCode(kCrashpointExitCode), "dying at test.site");
}

TEST(CrashpointTest, UnarmedAndMismatchedSitesAreNoOps) {
  crashpoint("never.armed");
  crashpoint_arm("some.other.site", 1);
  crashpoint("never.armed");
  crashpoint_disarm();
  EXPECT_FALSE(crashpoint_armed());
}

TEST(CrashpointTest, RegistryListsTheDurabilitySites) {
  // The crash matrix kills a run at each of these; every one must fire
  // there, so the list names exactly the sites the durable paths reach.
  const std::vector<std::string> expected = {
      "wal.append.pre_write",  "wal.append.mid_write", "wal.append.pre_fsync",
      "wal.append.post_fsync", "snapshot.pre_write",   "snapshot.pre_fsync",
      "snapshot.rename",       "snapshot.post_rename", "round.commit.mid",
      "round.commit.post_append"};
  EXPECT_EQ(crashpoint_registry(), expected);
}

TEST(CrashpointSpecTest, ParsesBareSiteAndExplicitHitCount) {
  const CrashpointSpec bare = parse_crashpoint_spec("wal.append.pre_fsync");
  EXPECT_EQ(bare.site, "wal.append.pre_fsync");
  EXPECT_EQ(bare.hit, 1);

  const CrashpointSpec counted = parse_crashpoint_spec("snapshot.rename:3");
  EXPECT_EQ(counted.site, "snapshot.rename");
  EXPECT_EQ(counted.hit, 3);
}

TEST(CrashpointSpecTest, RejectsMalformedSpecsWithNamedErrors) {
  // Empty site, with or without a count.
  EXPECT_THROW(parse_crashpoint_spec(":3"), dinar::Error);
  EXPECT_THROW(parse_crashpoint_spec(":"), dinar::Error);
  // A colon commits the spec to a hit count: non-numeric suffixes must not
  // be silently folded back into the site name.
  EXPECT_THROW(parse_crashpoint_spec("wal.append.pre_fsync:"), dinar::Error);
  EXPECT_THROW(parse_crashpoint_spec("wal.append.pre_fsync:x"), dinar::Error);
  EXPECT_THROW(parse_crashpoint_spec("wal.append.pre_fsync:3x"), dinar::Error);
  // Zero, negative and overflowing counts are out of range.
  EXPECT_THROW(parse_crashpoint_spec("wal.append.pre_fsync:0"), dinar::Error);
  EXPECT_THROW(parse_crashpoint_spec("wal.append.pre_fsync:-2"), dinar::Error);
  EXPECT_THROW(parse_crashpoint_spec("wal.append.pre_fsync:99999999999"),
               dinar::Error);
  try {
    parse_crashpoint_spec("site:bogus");
    FAIL() << "expected dinar::Error";
  } catch (const dinar::Error& e) {
    EXPECT_NE(std::string(e.what()).find("DINAR_CRASHPOINT"), std::string::npos);
  }
}

// ------------------------------------------------------------- RoundStore --

TEST(RoundStoreTest, FreshStoreIsEmpty) {
  store::RoundStore s(fresh_dir("rs_empty") + "/store");
  EXPECT_TRUE(s.empty());
  const auto rec = s.recover();
  EXPECT_FALSE(rec.snapshot.has_value());
  EXPECT_TRUE(rec.wal_records.empty());
}

TEST(RoundStoreTest, SnapshotOnlyRecovers) {
  const std::string dir = fresh_dir("rs_snap") + "/store";
  store::RoundStore s(dir);
  s.append(bytes_of({1}));
  s.install_snapshot(5, bytes_of({10, 20, 30}));  // compaction resets the WAL
  const auto rec = s.recover();
  ASSERT_TRUE(rec.snapshot.has_value());
  EXPECT_EQ(*rec.snapshot, bytes_of({10, 20, 30}));
  EXPECT_EQ(rec.snapshot_round, 5);
  EXPECT_TRUE(rec.wal_records.empty());
}

// The on-disk snapshot layout, byte for byte: 'DSNP', version 1, i64
// round 7, u64 length 15, crc32 0x48e8a49e, then the payload, in a file
// named snapshot-<12-digit round>.snap beside wal.log.
constexpr const char* kGoldenSnapshot =
    "44534e5001000000"                // magic 'DSNP', version 1
    "0700000000000000"                // round 7
    "0f00000000000000"                // payload length 15
    "9ea4e848"                        // crc32
    "64696e61722d736e617073686f7421";  // "dinar-snapshot!"

TEST(RoundStoreTest, SnapshotBytesAreGolden) {
  const std::string payload = "dinar-snapshot!";
  const std::vector<std::uint8_t> bytes(payload.begin(), payload.end());
  const std::string dir = fresh_dir("rs_golden") + "/store";
  {
    store::RoundStore s(dir);
    s.install_snapshot(7, bytes);
  }
  EXPECT_TRUE(store::path_exists(dir + "/wal.log"));
  const auto file = store::read_file(dir + "/snapshot-000000000007.snap");
  ASSERT_TRUE(file.has_value());
  EXPECT_EQ(to_hex(*file), kGoldenSnapshot);

  // A store written in this form by an earlier build recovers.
  const std::string old_dir = fresh_dir("rs_golden_old") + "/store";
  fs::create_directories(old_dir);
  write_raw(old_dir + "/wal.log", from_hex(kGoldenWal));
  write_raw(old_dir + "/snapshot-000000000007.snap", from_hex(kGoldenSnapshot));
  const auto rec = store::RoundStore(old_dir).recover();
  ASSERT_TRUE(rec.snapshot.has_value());
  EXPECT_EQ(*rec.snapshot, bytes);
  EXPECT_EQ(rec.snapshot_round, 7);
  ASSERT_EQ(rec.wal_records.size(), 1u);
  EXPECT_EQ(std::string(rec.wal_records[0].begin(), rec.wal_records[0].end()),
            "dinar-wal");
}

TEST(RoundStoreTest, CorruptNewestSnapshotFallsBackToOlder) {
  const std::string dir = fresh_dir("rs_fallback") + "/store";
  std::string newest;
  {
    store::RoundStore s(dir);
    s.install_snapshot(1, bytes_of({1, 1}));
    s.install_snapshot(2, bytes_of({2, 2}));
    for (const auto& e : fs::directory_iterator(dir)) {
      const std::string name = e.path().filename().string();
      if (name.find("snap") != std::string::npos && name.find("2") != std::string::npos)
        newest = e.path().string();
    }
  }
  ASSERT_FALSE(newest.empty());
  auto bytes = store::read_file(newest);
  ASSERT_TRUE(bytes.has_value());
  (*bytes)[bytes->size() - 1] ^= 0xFF;  // corrupt the newest payload
  write_raw(newest, *bytes);

  store::RoundStore s(dir);
  const auto rec = s.recover();
  ASSERT_TRUE(rec.snapshot.has_value());
  EXPECT_EQ(*rec.snapshot, bytes_of({1, 1}));
  EXPECT_EQ(rec.snapshot_round, 1);
  EXPECT_EQ(rec.snapshots_rejected, 1u);
}

TEST(RoundStoreTest, TruncatedSnapshotIsRejectedNotFatal) {
  const std::string dir = fresh_dir("rs_truncsnap") + "/store";
  std::string snap;
  {
    store::RoundStore s(dir);
    s.install_snapshot(3, bytes_of({1, 2, 3, 4, 5, 6, 7, 8}));
    for (const auto& e : fs::directory_iterator(dir))
      if (e.path().filename().string().find(".snap") != std::string::npos)
        snap = e.path().string();
  }
  ASSERT_FALSE(snap.empty());
  const auto bytes = store::read_file(snap);
  ASSERT_TRUE(bytes.has_value());
  write_raw(snap, {bytes->begin(), bytes->begin() + 10});  // torn mid-header

  store::RoundStore s(dir);
  const auto rec = s.recover();
  EXPECT_FALSE(rec.snapshot.has_value());
  EXPECT_EQ(rec.snapshots_rejected, 1u);
}

// -------------------------------------------- simulation-level recovery ----

data::FlSplit easy_split(int clients, std::int64_t n, std::uint64_t seed) {
  Rng rng(seed);
  data::Dataset full = make_easy_dataset(n, rng);
  data::FlSplitConfig cfg;
  cfg.num_clients = clients;
  return data::make_fl_split(full, cfg, rng);
}

fl::SimulationConfig durable_config(int rounds, int eval_every = 0) {
  fl::SimulationConfig cfg;
  cfg.rounds = rounds;
  cfg.train = fl::TrainConfig{/*epochs=*/1, /*batch_size=*/32};
  cfg.seed = 321;
  cfg.eval_every = eval_every;
  cfg.faults.drop_up = 0.15;  // exercises retries + fault counters
  cfg.min_clients = 2;
  cfg.max_retries = 2;
  return cfg;
}

fl::FederatedSimulation make_durable_sim(int rounds, int eval_every = 0) {
  return fl::FederatedSimulation(tiny_mlp_factory(2, 2), easy_split(3, 300, 11),
                                 durable_config(rounds, eval_every),
                                 fl::DefenseBundle{});
}

std::vector<std::uint8_t> full_state(const fl::FederatedSimulation& sim) {
  BinaryWriter w;
  sim.save_full_state(w);
  return w.buffer();
}

TEST(DurableSimTest, RecoverFromEmptyStoreIsANoOp) {
  store::RoundStore s(fresh_dir("sim_empty") + "/store");
  fl::FederatedSimulation sim = make_durable_sim(4);
  sim.attach_store(&s);
  EXPECT_EQ(sim.recover_from_store(), 0);
  EXPECT_TRUE(sim.round_log().empty());
}

TEST(DurableSimTest, WalOnlyRecoveryIsBitIdentical) {
  const std::string dir = fresh_dir("sim_wal") + "/store";
  fl::FederatedSimulation reference = make_durable_sim(4);
  {
    store::RoundStore s(dir);
    fl::FederatedSimulation sim = make_durable_sim(4);
    sim.attach_store(&s, /*snapshot_every=*/100);  // never compacts: pure WAL
    for (int i = 0; i < 3; ++i) sim.run_round();
  }
  for (int i = 0; i < 3; ++i) reference.run_round();

  store::RoundStore s(dir);
  fl::FederatedSimulation recovered = make_durable_sim(4);
  recovered.attach_store(&s, 100);
  EXPECT_EQ(recovered.recover_from_store(), 3);
  EXPECT_EQ(full_state(recovered), full_state(reference));

  // The recovered run must continue exactly like the uninterrupted one.
  recovered.run_round();
  reference.run_round();
  EXPECT_EQ(full_state(recovered), full_state(reference));
}

TEST(DurableSimTest, SnapshotPlusWalWithEvalsRecoversBitIdentical) {
  const std::string dir = fresh_dir("sim_full") + "/store";
  fl::FederatedSimulation reference = make_durable_sim(4, /*eval_every=*/2);
  {
    store::RoundStore s(dir);
    fl::FederatedSimulation sim = make_durable_sim(4, 2);
    sim.attach_store(&s, /*snapshot_every=*/2);
    sim.run();  // rounds 1..4 with evals at 2 and 4, snapshots at 2 and 4
  }
  reference.run();

  store::RoundStore s(dir);
  fl::FederatedSimulation recovered = make_durable_sim(4, 2);
  recovered.attach_store(&s, 2);
  EXPECT_EQ(recovered.recover_from_store(), 4);
  EXPECT_EQ(full_state(recovered), full_state(reference));
  EXPECT_EQ(recovered.history().size(), reference.history().size());
  // Recovering a finished run is a no-op: run() has nothing left to do.
  recovered.run();
  EXPECT_EQ(full_state(recovered), full_state(reference));
}

// A snapshot round returns with its install still running on its own
// thread. Detaching the store, destroying the simulation, or moving it and
// running on must each leave the store exactly as a synchronous install
// would have.
TEST(DurableSimTest, SnapshotInstallInFlightIsJoinedByDetachDestroyAndMove) {
  fl::FederatedSimulation reference = make_durable_sim(4);
  reference.run_round();
  reference.run_round();
  const std::vector<std::uint8_t> at_round_2 = full_state(reference);
  reference.run_round();
  const std::vector<std::uint8_t> at_round_3 = full_state(reference);

  const auto recovered_state = [](const std::string& dir) {
    store::RoundStore s(dir);
    fl::FederatedSimulation sim = make_durable_sim(4);
    sim.attach_store(&s, 2);
    sim.recover_from_store();
    return full_state(sim);
  };
  // Round 2's snapshot is installed and the WAL compacted behind it, plus
  // `records` later round records.
  const auto expect_compacted_at_round_2 = [](const store::RoundStore& s,
                                              std::size_t records) {
    const store::RoundStore::Recovered rec = s.recover();
    EXPECT_EQ(rec.snapshot_round, 2);
    EXPECT_EQ(rec.wal_records.size(), records);
  };
  const auto two_rounds = [](store::RoundStore& s) {
    fl::FederatedSimulation sim = make_durable_sim(4);
    sim.attach_store(&s, /*snapshot_every=*/2);
    sim.run_round();
    sim.run_round();  // snapshot round: the install runs behind it
    return sim;
  };

  const std::string detach_dir = fresh_dir("bg_detach") + "/store";
  {
    store::RoundStore s(detach_dir);
    fl::FederatedSimulation sim = two_rounds(s);
    sim.attach_store(nullptr);
    expect_compacted_at_round_2(s, 0);
  }
  EXPECT_EQ(recovered_state(detach_dir), at_round_2);

  const std::string destroy_dir = fresh_dir("bg_destroy") + "/store";
  {
    store::RoundStore s(destroy_dir);
    { fl::FederatedSimulation sim = two_rounds(s); }
    expect_compacted_at_round_2(s, 0);
  }
  EXPECT_EQ(recovered_state(destroy_dir), at_round_2);

  const std::string move_dir = fresh_dir("bg_move") + "/store";
  {
    store::RoundStore s(move_dir);
    fl::FederatedSimulation sim = two_rounds(s);
    fl::FederatedSimulation moved(std::move(sim));
    moved.run_round();  // joins the install it took over, then commits
    expect_compacted_at_round_2(s, 1);
  }
  EXPECT_EQ(recovered_state(move_dir), at_round_3);

  const std::string move_assign_dir = fresh_dir("bg_move_assign") + "/store";
  {
    store::RoundStore s(move_assign_dir);
    fl::FederatedSimulation target = make_durable_sim(4);
    target = two_rounds(s);
    { fl::FederatedSimulation gone(std::move(target)); }
    expect_compacted_at_round_2(s, 0);
  }
  EXPECT_EQ(recovered_state(move_assign_dir), at_round_2);
}

// Eight clients, two selected per round: a round record carries two
// clients' state and a snapshot all eight, so one snapshot outweighs the
// WAL records before it.
fl::FederatedSimulation make_wide_sim() {
  fl::SimulationConfig cfg = durable_config(4);
  cfg.client_fraction = 0.25;
  cfg.min_clients = 1;
  return fl::FederatedSimulation(tiny_mlp_factory(2, 2), easy_split(8, 400, 11), cfg,
                                 fl::DefenseBundle{});
}

// The install of round 2's snapshot fails (EFBIG) on its own thread; the
// error surfaces, with the snapshot's text, from the next store operation
// (round 3's commit), and rounds 1 and 2 stay intact in the WAL.
TEST(DurableSimTest, FailedSnapshotInstallSurfacesFromTheNextStoreOperation) {
  const std::string base = fresh_dir("bg_efbig");
  EXPECT_EXIT(
      {
        std::signal(SIGXFSZ, SIG_IGN);
        // Sizes from an identical run that never compacts.
        std::uint64_t wal_bytes = 0;
        std::vector<std::uint8_t> at_round_2;
        {
          store::RoundStore dry_store(base + "/dry");
          fl::FederatedSimulation dry = make_wide_sim();
          dry.attach_store(&dry_store, 100);
          dry.run_round();
          dry.run_round();
          wal_bytes = dry_store.wal_size_bytes();
          at_round_2 = full_state(dry);
        }
        if (wal_bytes + 256 >= at_round_2.size()) std::exit(2);  // no room to fail

        store::RoundStore s(base + "/store");
        fl::FederatedSimulation sim = make_wide_sim();
        sim.attach_store(&s, /*snapshot_every=*/2);
        sim.run_round();
        rlimit saved{};
        ::getrlimit(RLIMIT_FSIZE, &saved);
        rlimit tight = saved;
        // Round 2's WAL record fits; its snapshot does not.
        tight.rlim_cur = (wal_bytes + at_round_2.size()) / 2;
        ::setrlimit(RLIMIT_FSIZE, &tight);
        sim.run_round();
        std::string error;
        try {
          sim.run_round();
        } catch (const Error& e) {
          error = e.what();
        }
        ::setrlimit(RLIMIT_FSIZE, &saved);
        const bool named = error.find("snapshot-000000000002.snap") != std::string::npos &&
                           error.find("failed") != std::string::npos;

        const store::RoundStore::Recovered rec = s.recover();
        const bool intact = rec.snapshot_round == -1 && rec.wal_records.size() == 2;
        fl::FederatedSimulation recovered = make_wide_sim();
        recovered.attach_store(&s, 2);
        const bool same =
            recovered.recover_from_store() == 2 && full_state(recovered) == at_round_2;
        std::exit(named ? (intact && same ? 0 : 4) : 3);
      },
      ::testing::ExitedWithCode(0), "");
}

// A crash between the WAL append and its acknowledgment makes the writer
// re-append the same round on restart; replay must dedupe by round.
TEST(DurableSimTest, DuplicateRoundRecordsAreDeduped) {
  const std::string dir = fresh_dir("sim_dup") + "/store";
  fl::FederatedSimulation reference = make_durable_sim(4);
  {
    store::RoundStore s(dir);
    fl::FederatedSimulation sim = make_durable_sim(4);
    sim.attach_store(&s, 100);
    for (int i = 0; i < 3; ++i) sim.run_round();
    // Duplicate the last committed record verbatim.
    const auto scan = store::Wal::scan(s.wal_path());
    ASSERT_EQ(scan.records.size(), 3u);
    s.append(scan.records.back());
  }
  for (int i = 0; i < 3; ++i) reference.run_round();

  store::RoundStore s(dir);
  fl::FederatedSimulation recovered = make_durable_sim(4);
  recovered.attach_store(&s, 100);
  EXPECT_EQ(recovered.recover_from_store(), 3);
  EXPECT_EQ(recovered.round_log().size(), 3u);
  EXPECT_EQ(full_state(recovered), full_state(reference));
}

// A corrupt record mid-log must cost only the records from it onward —
// longest-valid-prefix, never a crash.
TEST(DurableSimTest, CorruptMiddleRecordStopsReplayAtThePrefix) {
  const std::string dir = fresh_dir("sim_corrupt") + "/store";
  {
    store::RoundStore s(dir);
    fl::FederatedSimulation sim = make_durable_sim(4);
    sim.attach_store(&s, 100);
    for (int i = 0; i < 3; ++i) sim.run_round();
  }
  // Re-frame record 2 with valid CRC but garbage payload: serde-level
  // corruption that the CRC cannot catch.
  {
    const auto scan = store::Wal::scan(dir + "/wal.log");
    ASSERT_EQ(scan.records.size(), 3u);
    std::vector<std::uint8_t> mangled = scan.records[1];
    mangled[0] = 0xEE;  // unknown record kind
    store::Wal wal(dir + "/wal.log");
    wal.reset();
    wal.append(scan.records[0]);
    wal.append(mangled);
    wal.append(scan.records[2]);
  }
  store::RoundStore s(dir);
  fl::FederatedSimulation recovered = make_durable_sim(4);
  recovered.attach_store(&s, 100);
  EXPECT_EQ(recovered.recover_from_store(), 1);  // only round 1 survives
  EXPECT_EQ(recovered.round_log().size(), 1u);
}

// The DFST full state is the only snapshot payload. A snapshot holding
// anything else — here a DCKP checkpoint (magic, version 2, round, global
// model) as older builds wrote it — fails recovery by name.
TEST(DurableSimTest, DckpSnapshotPayloadIsRefusedByName) {
  fl::FederatedSimulation source = make_durable_sim(4);
  source.run_round();
  source.run_round();
  BinaryWriter w;
  w.write_u32(0x44434B50);  // "DCKP"
  w.write_u32(2);
  w.write_i64(source.server().round());
  nn::write_flat_params(w, source.server().global_params());

  store::RoundStore s(fresh_dir("sim_dckp"));
  s.install_snapshot(2, w.buffer());
  fl::FederatedSimulation recovered = make_durable_sim(4);
  recovered.attach_store(&s);
  try {
    recovered.recover_from_store();
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("not a DFST full-state snapshot"),
              std::string::npos)
        << e.what();
  }
}

TEST(DurableSimTest, FullStateRejectsMismatchedConfig) {
  fl::FederatedSimulation a = make_durable_sim(4);
  a.run_round();
  BinaryWriter w;
  a.save_full_state(w);

  fl::SimulationConfig other = durable_config(4);
  other.seed = 999;  // different schedule: replay would silently diverge
  fl::FederatedSimulation b(tiny_mlp_factory(2, 2), easy_split(3, 300, 11), other,
                            fl::DefenseBundle{});
  BinaryReader r(w.buffer());
  EXPECT_THROW(b.restore_full_state(r), Error);
}

// Every TransportStats counter — the original in-process seven plus the
// eight socket wire counters — must survive the durable serde verbatim.
// A field silently dropped here would read back as zero after a restart
// and the bit-identical recovery contract would quietly rot.
TEST(DurableSimTest, TransportStatsSerdeRoundTripsEveryCounter) {
  fl::TransportStats s;
  s.messages_up = 101;
  s.messages_down = 102;
  s.bytes_up = 103;
  s.bytes_down = 104;
  s.frame_bytes_up = 105;
  s.frame_bytes_down = 106;
  s.simulated_latency_seconds = 0.12345678901234567;
  s.socket_frames_tx = 107;
  s.socket_frames_rx = 108;
  s.socket_bytes_tx = 109;
  s.socket_bytes_rx = 110;
  s.socket_reconnects = 111;
  s.socket_evictions = 112;
  s.socket_queue_drops = 113;
  s.socket_protocol_errors = 114;

  BinaryWriter w;
  fl::write_transport_stats(w, s);
  BinaryReader r(w.buffer());
  const fl::TransportStats back = fl::read_transport_stats(r);

  EXPECT_EQ(back.messages_up, s.messages_up);
  EXPECT_EQ(back.messages_down, s.messages_down);
  EXPECT_EQ(back.bytes_up, s.bytes_up);
  EXPECT_EQ(back.bytes_down, s.bytes_down);
  EXPECT_EQ(back.frame_bytes_up, s.frame_bytes_up);
  EXPECT_EQ(back.frame_bytes_down, s.frame_bytes_down);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(back.simulated_latency_seconds),
            std::bit_cast<std::uint64_t>(s.simulated_latency_seconds));
  EXPECT_EQ(back.socket_frames_tx, s.socket_frames_tx);
  EXPECT_EQ(back.socket_frames_rx, s.socket_frames_rx);
  EXPECT_EQ(back.socket_bytes_tx, s.socket_bytes_tx);
  EXPECT_EQ(back.socket_bytes_rx, s.socket_bytes_rx);
  EXPECT_EQ(back.socket_reconnects, s.socket_reconnects);
  EXPECT_EQ(back.socket_evictions, s.socket_evictions);
  EXPECT_EQ(back.socket_queue_drops, s.socket_queue_drops);
  EXPECT_EQ(back.socket_protocol_errors, s.socket_protocol_errors);

  // merge() must accumulate the same full set of fields the serde carries.
  fl::TransportStats doubled = s;
  doubled.merge(s);
  EXPECT_EQ(doubled.messages_up, 2 * s.messages_up);
  EXPECT_EQ(doubled.frame_bytes_down, 2 * s.frame_bytes_down);
  EXPECT_EQ(doubled.socket_frames_tx, 2 * s.socket_frames_tx);
  EXPECT_EQ(doubled.socket_bytes_rx, 2 * s.socket_bytes_rx);
  EXPECT_EQ(doubled.socket_protocol_errors, 2 * s.socket_protocol_errors);
}

// Mid-run restart over the *socket* transport: recovery must restore the
// absolute transport counters (wire counters included) so the continued
// run's accounting is bit-identical to the uninterrupted one.
TEST(DurableSimTest, MidRunRestartRestoresSocketTransportStatsExactly) {
  const std::string dir = fresh_dir("sim_sockstats") + "/store";
  fl::SimulationConfig cfg = durable_config(4);
  cfg.socket_transport = true;
  const auto make = [&cfg] {
    return fl::FederatedSimulation(tiny_mlp_factory(2, 2), easy_split(3, 300, 11),
                                   cfg, fl::DefenseBundle{});
  };

  fl::FederatedSimulation reference = make();
  {
    store::RoundStore s(dir);
    fl::FederatedSimulation sim = make();
    sim.attach_store(&s, /*snapshot_every=*/100);
    sim.run_round();
    sim.run_round();
  }  // "restart": the first process's state dies with this scope

  for (int i = 0; i < 4; ++i) reference.run_round();

  store::RoundStore s(dir);
  fl::FederatedSimulation recovered = make();
  recovered.attach_store(&s, 100);
  EXPECT_EQ(recovered.recover_from_store(), 2);
  recovered.run_round();
  recovered.run_round();

  const fl::TransportStats& a = recovered.transport().stats();
  const fl::TransportStats& b = reference.transport().stats();
  EXPECT_GT(a.socket_frames_tx, 0u);  // the wire really was exercised
  EXPECT_EQ(a.messages_up, b.messages_up);
  EXPECT_EQ(a.messages_down, b.messages_down);
  EXPECT_EQ(a.bytes_up, b.bytes_up);
  EXPECT_EQ(a.bytes_down, b.bytes_down);
  EXPECT_EQ(a.frame_bytes_up, b.frame_bytes_up);
  EXPECT_EQ(a.frame_bytes_down, b.frame_bytes_down);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.simulated_latency_seconds),
            std::bit_cast<std::uint64_t>(b.simulated_latency_seconds));
  EXPECT_EQ(a.socket_frames_tx, b.socket_frames_tx);
  EXPECT_EQ(a.socket_frames_rx, b.socket_frames_rx);
  EXPECT_EQ(a.socket_bytes_tx, b.socket_bytes_tx);
  EXPECT_EQ(a.socket_bytes_rx, b.socket_bytes_rx);
  EXPECT_EQ(a.socket_reconnects, b.socket_reconnects);
  EXPECT_EQ(a.socket_evictions, b.socket_evictions);
  EXPECT_EQ(a.socket_queue_drops, b.socket_queue_drops);
  EXPECT_EQ(a.socket_protocol_errors, b.socket_protocol_errors);
  EXPECT_EQ(full_state(recovered), full_state(reference));
}

}  // namespace
}  // namespace dinar
