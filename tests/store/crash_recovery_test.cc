// Crash-point recovery suite: for every CrashPoint, drive FileDisk until the simulated
// power cut fires, then remount the post-crash image and assert the §4 durability
// contract — every acknowledged write is readable with a valid checksum, and no torn
// journal tail is ever replayed. The expected fate of the *unacknowledged* write differs
// per point and is spelled out in docs/STORAGE.md's crash-point catalogue.

#include <gtest/gtest.h>

#include <filesystem>

#include "src/block/block_server.h"
#include "src/block/block_store.h"
#include "src/core/file_server.h"
#include "src/core/fsck.h"
#include "src/rpc/network.h"
#include "src/store/crash_point.h"
#include "src/store/file_disk.h"

namespace afs {
namespace {

constexpr uint32_t kBlockSize = 512;
constexpr uint32_t kAckedBlocks = 10;  // blocks 0..9 are written and acknowledged
constexpr uint32_t kVictimBlock = 10;  // the write that triggers a journal-path cut

std::string ScratchPath(const std::string& name) {
  std::filesystem::path dir = std::filesystem::path("store_scratch") / name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return (dir / "disk.afsdisk").string();
}

std::vector<uint8_t> Pattern(uint32_t bno) {
  std::vector<uint8_t> data(kBlockSize);
  for (uint32_t i = 0; i < kBlockSize; ++i) {
    data[i] = static_cast<uint8_t>(bno * 31 + i * 7 + 1);
  }
  return data;
}

FileDiskOptions Options() {
  FileDiskOptions options;
  options.block_size = kBlockSize;
  options.num_blocks = 64;
  return options;
}

// Journal-path points fire inside a Write(); checkpoint-path points inside Checkpoint().
bool IsJournalPoint(CrashPoint point) {
  switch (point) {
    case CrashPoint::kMidJournalAppend:
    case CrashPoint::kAfterJournalAppend:
    case CrashPoint::kBeforeJournalFsync:
    case CrashPoint::kAfterJournalFsync:
      return true;
    default:
      return false;
  }
}

// Whether the victim record's bytes were across the durability boundary when the power
// went out. kBeforeJournalFsync keeps the staged bytes (the platter got them; only the
// acknowledgement was lost), kAfterJournalFsync fires after the fdatasync returned.
bool VictimSurvives(CrashPoint point) {
  return point == CrashPoint::kBeforeJournalFsync || point == CrashPoint::kAfterJournalFsync;
}

class CrashRecoveryTest : public ::testing::TestWithParam<CrashPoint> {};

TEST_P(CrashRecoveryTest, AcknowledgedWritesSurviveRemount) {
  const CrashPoint point = GetParam();
  const std::string path = ScratchPath(std::string("crash_") + CrashPointName(point));
  CrashInjector<CrashPoint> injector;
  {
    auto disk = FileDisk::Open(path, Options(), &injector);
    ASSERT_TRUE(disk.ok()) << disk.status().message();
    for (uint32_t bno = 0; bno < kAckedBlocks; ++bno) {
      ASSERT_TRUE((*disk)->Write(bno, Pattern(bno)).ok()) << "block " << bno;
    }
    injector.Arm(point);
    if (IsJournalPoint(point)) {
      // The power goes out at `point` while this write is in flight; the acknowledgement
      // must never arrive, whatever the bytes' fate.
      EXPECT_FALSE((*disk)->Write(kVictimBlock, Pattern(kVictimBlock)).ok());
    } else {
      EXPECT_FALSE((*disk)->Checkpoint().ok());
    }
    ASSERT_TRUE(injector.fired()) << "crash point never reached: " << CrashPointName(point);
    EXPECT_TRUE((*disk)->crashed());
    // The dead device refuses all further I/O, like a machine whose power is off.
    std::vector<uint8_t> buf(kBlockSize);
    EXPECT_EQ((*disk)->Write(0, buf).code(), ErrorCode::kUnavailable);
    EXPECT_EQ((*disk)->Read(0, buf).code(), ErrorCode::kUnavailable);
  }

  // "Reboot": mount the post-crash image with the real recovery code.
  auto disk = FileDisk::Open(path, Options());
  ASSERT_TRUE(disk.ok()) << disk.status().message();

  // Invariant 1: every acknowledged write is intact (CRC-verified by ReadSector).
  std::vector<uint8_t> out(kBlockSize);
  for (uint32_t bno = 0; bno < kAckedBlocks; ++bno) {
    ASSERT_TRUE((*disk)->Read(bno, out).ok()) << "block " << bno;
    EXPECT_EQ(out, Pattern(bno)) << "block " << bno;
  }

  // Invariant 2: the unacknowledged write is all-or-nothing — either the full pattern
  // (its record was durable) or virgin zeros (its record was torn/lost) — never garbage.
  ASSERT_TRUE((*disk)->Read(kVictimBlock, out).ok());
  if (IsJournalPoint(point) && VictimSurvives(point)) {
    EXPECT_EQ(out, Pattern(kVictimBlock));
  } else {
    EXPECT_EQ(out, std::vector<uint8_t>(kBlockSize, 0));
  }

  // Per-point recovery forensics.
  if (point == CrashPoint::kMidJournalAppend) {
    EXPECT_GT((*disk)->torn_bytes_discarded(), 0u);  // the half-written record
  }
  if (!IsJournalPoint(point)) {
    // Every checkpoint-path point precedes the journal truncation, so the full journal
    // (all ten acknowledged records) replays on mount regardless of how far the
    // checkpoint got.
    EXPECT_EQ((*disk)->recovered_records(), static_cast<uint64_t>(kAckedBlocks));
  }
}

INSTANTIATE_TEST_SUITE_P(AllCrashPoints, CrashRecoveryTest,
                         ::testing::ValuesIn(kAllCrashPoints),
                         [](const ::testing::TestParamInfo<CrashPoint>& info) {
                           return CrashPointName(info.param);
                         });

// A second cut at the same disk: after recovering from a torn tail, the disk must keep
// working — and a later clean mount must see both generations of writes.
TEST(CrashRecoveryTest, TornTailNeverResurfacesAcrossGenerations) {
  const std::string path = ScratchPath("double_crash");
  CrashInjector<CrashPoint> injector;
  {
    auto disk = FileDisk::Open(path, Options(), &injector);
    ASSERT_TRUE(disk.ok());
    for (uint32_t bno = 0; bno < 4; ++bno) {
      ASSERT_TRUE((*disk)->Write(bno, Pattern(bno)).ok());
    }
    injector.Arm(CrashPoint::kMidJournalAppend);
    EXPECT_FALSE((*disk)->Write(4, Pattern(4)).ok());
    ASSERT_TRUE(injector.fired());
  }
  {
    // Generation 2: recover, write more, crash again mid-append.
    auto disk = FileDisk::Open(path, Options(), &injector);
    ASSERT_TRUE(disk.ok());
    EXPECT_GT((*disk)->torn_bytes_discarded(), 0u);
    for (uint32_t bno = 8; bno < 12; ++bno) {
      ASSERT_TRUE((*disk)->Write(bno, Pattern(bno)).ok());
    }
    injector.Arm(CrashPoint::kMidJournalAppend);
    EXPECT_FALSE((*disk)->Write(12, Pattern(12)).ok());
    ASSERT_TRUE(injector.fired());
  }
  auto disk = FileDisk::Open(path, Options());
  ASSERT_TRUE(disk.ok());
  std::vector<uint8_t> out(kBlockSize);
  for (uint32_t bno : {0u, 1u, 2u, 3u, 8u, 9u, 10u, 11u}) {
    ASSERT_TRUE((*disk)->Read(bno, out).ok()) << "block " << bno;
    EXPECT_EQ(out, Pattern(bno)) << "block " << bno;
  }
  // Both torn victims are gone without a trace.
  for (uint32_t bno : {4u, 12u}) {
    ASSERT_TRUE((*disk)->Read(bno, out).ok());
    EXPECT_EQ(out, std::vector<uint8_t>(kBlockSize, 0)) << "block " << bno;
  }
}

// The whole file service over every crash point: a FileServer commits through a
// BlockServer backed by one crash-injected FileDisk, the power goes out at the
// parameterised point (inside a doomed update for journal points, inside a checkpoint
// otherwise), and after remount + recovery the re-attached server must (a) serve the
// acknowledged commit and (b) pass fsck I1–I7 — including I7, which cross-checks the
// version index RebuildVersionIndex re-seeded from the recovered chains.
class FileServiceCrashPointTest : public ::testing::TestWithParam<CrashPoint> {};

TEST_P(FileServiceCrashPointTest, RecoveredStorePassesFsckWithVersionIndex) {
  const CrashPoint point = GetParam();
  const std::string path = ScratchPath(std::string("fs_crash_") + CrashPointName(point));
  FileDiskOptions options;
  options.block_size = 4096;
  options.num_blocks = 1 << 12;
  CrashInjector<CrashPoint> injector;
  Capability file_cap;
  const std::vector<uint8_t> payload = Pattern(3);
  {
    auto disk = FileDisk::Open(path, options, &injector);
    ASSERT_TRUE(disk.ok()) << disk.status().message();
    Network net(7);
    BlockServer bs(&net, "bs", disk->get(), 101);
    bs.Start();
    Capability account = bs.CreateAccountDirect();
    BlockClient client(&net, bs.port(), account, bs.payload_capacity());
    FileServer fs(&net, "fs0", &client);
    fs.Start();
    ASSERT_TRUE(fs.AttachStore().ok());
    auto file = fs.CreateFile();
    ASSERT_TRUE(file.ok());
    file_cap = *file;
    auto v = fs.CreateVersion(file_cap, kNullPort, false);
    ASSERT_TRUE(v.ok());
    ASSERT_TRUE(fs.WritePage(*v, PagePath::Root(), payload).ok());
    ASSERT_TRUE(fs.Commit(*v).ok());

    injector.Arm(point);
    if (IsJournalPoint(point)) {
      // The cut fires inside this doomed second update, well before its flip could
      // execute — so whatever block writes leak to disk are unreachable garbage.
      auto doomed = fs.CreateVersion(file_cap, kNullPort, false);
      bool survived = doomed.ok() &&
                      fs.WritePage(*doomed, PagePath::Root(), Pattern(9)).ok() &&
                      fs.Commit(*doomed).ok();
      EXPECT_FALSE(survived);
    } else {
      EXPECT_FALSE((*disk)->Checkpoint().ok());
    }
    ASSERT_TRUE(injector.fired()) << "crash point never reached: " << CrashPointName(point);
  }

  // Reboot: remount the post-crash image, recover, re-attach the file service.
  auto disk = FileDisk::Open(path, options);
  ASSERT_TRUE(disk.ok()) << disk.status().message();
  Network net(7);
  BlockServer bs(&net, "bs", disk->get(), 101);
  bs.Start();
  bs.RecoverFromDisk();
  Capability account = bs.CreateAccountDirect();
  BlockClient client(&net, bs.port(), account, bs.payload_capacity());
  FileServer fs(&net, "fs0", &client);
  fs.Start();
  ASSERT_TRUE(fs.AttachStore().ok());

  auto current = fs.GetCurrentVersion(file_cap);
  ASSERT_TRUE(current.ok()) << current.status().message();
  auto read = fs.ReadPage(*current, PagePath::Root(), false);
  ASSERT_TRUE(read.ok()) << read.status().message();
  EXPECT_EQ(read->data, payload);

  // I1–I7 on the recovered store; the doomed update's leaked blocks are garbage, which
  // stays a warning. index_records > 0 proves I7 checked the re-seeded index.
  FsckReport report = RunFsck(&fs);
  EXPECT_TRUE(report.clean) << report.ToString();
  EXPECT_GT(report.index_records, 0u);
}

INSTANTIATE_TEST_SUITE_P(AllCrashPoints, FileServiceCrashPointTest,
                         ::testing::ValuesIn(kAllCrashPoints),
                         [](const ::testing::TestParamInfo<CrashPoint>& info) {
                           return CrashPointName(info.param);
                         });

// Crash during an *automatic* checkpoint (triggered by the journal-size threshold from
// inside a Write) must preserve every previously acknowledged write too.
TEST(CrashRecoveryTest, CrashDuringAutoCheckpoint) {
  const std::string path = ScratchPath("auto_checkpoint_crash");
  FileDiskOptions options = Options();
  options.checkpoint_threshold_bytes = 2048;  // a few records
  CrashInjector<CrashPoint> injector;
  uint32_t acked = 0;
  {
    auto disk = FileDisk::Open(path, options, &injector);
    ASSERT_TRUE(disk.ok());
    injector.Arm(CrashPoint::kMidCheckpointApply);
    // Keep writing until the threshold fires the auto-checkpoint and the cut hits. The
    // triggering write itself was already durable and acknowledged before the checkpoint
    // began, so `acked` counts it.
    for (uint32_t bno = 0; bno < 32 && !injector.fired(); ++bno) {
      if ((*disk)->Write(bno, Pattern(bno)).ok()) {
        ++acked;
      }
    }
    ASSERT_TRUE(injector.fired()) << "auto-checkpoint never triggered";
    ASSERT_GT(acked, 0u);
  }
  auto disk = FileDisk::Open(path, options);
  ASSERT_TRUE(disk.ok());
  std::vector<uint8_t> out(kBlockSize);
  for (uint32_t bno = 0; bno < acked; ++bno) {
    ASSERT_TRUE((*disk)->Read(bno, out).ok()) << "block " << bno;
    EXPECT_EQ(out, Pattern(bno)) << "block " << bno;
  }
}

}  // namespace
}  // namespace afs
