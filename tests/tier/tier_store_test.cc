// TieredStore / ArchiveTier unit tests: burn-and-read-back, migrate-then-read-through,
// write-once enforcement at the store level, durable unmap on free, promotion caching,
// mount-time map rebuild and reconciliation, and scrub repair of rotted archive blocks.

#include <gtest/gtest.h>

#include <algorithm>
#include <string_view>
#include <vector>

#include "src/disk/mem_disk.h"
#include "src/disk/write_once_disk.h"
#include "src/tier/archive.h"
#include "src/tier/tiered_store.h"

namespace afs {
namespace {

std::vector<uint8_t> Bytes(std::string_view s) {
  return std::vector<uint8_t>(s.begin(), s.end());
}

std::vector<uint8_t> Pattern(size_t n, uint8_t seed) {
  std::vector<uint8_t> out(n);
  for (size_t i = 0; i < n; ++i) {
    out[i] = static_cast<uint8_t>(seed + i * 7);
  }
  return out;
}

// Media + tier that can be "power-cut": the MemDisk outlives the WriteOnceDisk and
// TieredStore wrappers, so a restart is a fresh pair of wrappers over the same media.
class TierStoreTest : public ::testing::Test {
 protected:
  TierStoreTest() { Remount(); }

  // Simulated restart: drop every in-memory structure, re-wrap the surviving media.
  void Remount() {
    tiered_.reset();
    platter_.reset();
    platter_ = std::make_unique<WriteOnceDisk>(&media_);
    tiered_ = std::make_unique<TieredStore>(&magnetic_, platter_.get(), options_);
    ASSERT_TRUE(tiered_->Mount().ok());
  }

  BlockNo Put(const std::vector<uint8_t>& payload) {
    auto bno = tiered_->AllocWrite(payload);
    EXPECT_TRUE(bno.ok()) << bno.status();
    return *bno;
  }

  void MigrateOne(BlockNo bno) {
    uint64_t migrated = 0;
    ASSERT_TRUE(tiered_->MigrateBlocks(std::vector<BlockNo>{bno}, &migrated).ok());
    ASSERT_EQ(migrated, 1u);
  }

  TieredStoreOptions options_;
  InMemoryBlockStore magnetic_{4068, 1 << 20};
  MemDisk media_{4096, 512};
  std::unique_ptr<WriteOnceDisk> platter_;
  std::unique_ptr<TieredStore> tiered_;
};

TEST(ArchiveTierTest, BurnReadRoundtrip) {
  WriteOnceDisk disk(4096, 32);
  ArchiveTier archive(&disk);
  ASSERT_TRUE(archive.Mount([](BlockNo, const ArchiveRecord&) {}).ok());
  EXPECT_EQ(archive.payload_capacity(), 4096u - kArchiveHeaderBytes);

  auto a0 = archive.Burn(ArchiveRecordKind::kData, 17, Bytes("alpha"));
  auto a1 = archive.Burn(ArchiveRecordKind::kData, 99, Bytes("beta"));
  ASSERT_TRUE(a0.ok());
  ASSERT_TRUE(a1.ok());
  EXPECT_NE(*a0, *a1);
  EXPECT_EQ(archive.used_blocks(), 2u);

  auto back = archive.ReadRecord(*a0, 17);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, Bytes("alpha"));
  // A mapping that points at someone else's record is a misdirection, not data.
  EXPECT_EQ(archive.ReadRecord(*a1, 17).status().code(), ErrorCode::kCorrupt);
}

TEST(ArchiveTierTest, MountReplaysInBurnOrderAndSkipsDeadBlocks) {
  MemDisk media(4096, 64);
  {
    // A crash between bitmap persist and data landing leaves a burned-per-bitmap block
    // with no valid record in it. Fake one by burning garbage directly.
    WriteOnceDisk disk(&media);
    ASSERT_TRUE(disk.Write(0, std::vector<uint8_t>(4096, 0xEE)).ok());
    ArchiveTier archive(&disk);
    ASSERT_TRUE(archive.Mount([](BlockNo, const ArchiveRecord&) {}).ok());
    EXPECT_EQ(archive.dead_blocks(), 1u);
    ASSERT_TRUE(archive.Burn(ArchiveRecordKind::kData, 5, Bytes("one")).ok());
    ASSERT_TRUE(archive.Burn(ArchiveRecordKind::kData, 6, Bytes("two")).ok());
  }
  // Fresh wrappers over the same media: the scan must skip the dead block, replay the two
  // records in burn order, and position the cursor after the prefix.
  WriteOnceDisk disk(&media);
  ArchiveTier archive(&disk);
  std::vector<BlockNo> sources;
  ASSERT_TRUE(archive
                  .Mount([&](BlockNo, const ArchiveRecord& r) {
                    sources.push_back(r.source);
                  })
                  .ok());
  EXPECT_EQ(sources, (std::vector<BlockNo>{5, 6}));
  EXPECT_EQ(archive.dead_blocks(), 1u);
  auto next = archive.Burn(ArchiveRecordKind::kData, 7, Bytes("three"));
  ASSERT_TRUE(next.ok());
  EXPECT_EQ(*next, 3u);  // 0 dead, 1-2 replayed, cursor at 3
}

TEST_F(TierStoreTest, MigrateThenReadThrough) {
  std::vector<uint8_t> payload = Pattern(4000, 3);
  BlockNo bno = Put(payload);
  const size_t before = magnetic_.allocated_blocks();
  MigrateOne(bno);
  EXPECT_TRUE(tiered_->archived(bno));
  EXPECT_EQ(magnetic_.allocated_blocks(), before - 1);  // magnetic copy reclaimed
  auto back = tiered_->Read(bno);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, payload);  // byte-identical through the archive
  // Vectored reads resolve archived and magnetic blocks in one call.
  BlockNo plain = Put(Bytes("still-magnetic"));
  auto multi = tiered_->ReadMulti(std::vector<BlockNo>{bno, plain});
  ASSERT_TRUE(multi.ok());
  ASSERT_TRUE((*multi)[0].status.ok());
  ASSERT_TRUE((*multi)[1].status.ok());
  EXPECT_EQ((*multi)[0].data, payload);
  EXPECT_EQ((*multi)[1].data, Bytes("still-magnetic"));
}

TEST_F(TierStoreTest, WritesToArchivedBlocksRejected) {
  BlockNo bno = Put(Bytes("immutable"));
  MigrateOne(bno);
  EXPECT_EQ(tiered_->Write(bno, Bytes("rewrite")).code(), ErrorCode::kReadOnly);
  // Batch containing one archived target fails whole and writes nothing.
  BlockNo plain = Put(Bytes("old"));
  std::vector<BlockWrite> batch;
  batch.push_back({plain, Bytes("new")});
  batch.push_back({bno, Bytes("rewrite")});
  EXPECT_EQ(tiered_->WriteBatch(batch).code(), ErrorCode::kReadOnly);
  EXPECT_EQ(*tiered_->Read(plain), Bytes("old"));
  EXPECT_EQ(*tiered_->Read(bno), Bytes("immutable"));
}

TEST_F(TierStoreTest, FreeArchivedBlockPersistsUnmap) {
  BlockNo bno = Put(Bytes("doomed"));
  MigrateOne(bno);
  ASSERT_TRUE(tiered_->Free(bno).ok());
  EXPECT_FALSE(tiered_->archived(bno));
  EXPECT_EQ(tiered_->Read(bno).status().code(), ErrorCode::kNotFound);
  // The unmap record is on the medium: a restart must not resurrect the mapping.
  Remount();
  EXPECT_FALSE(tiered_->archived(bno));
  EXPECT_EQ(tiered_->Read(bno).status().code(), ErrorCode::kNotFound);
}

TEST_F(TierStoreTest, ListBlocksReportsBothTiers) {
  BlockNo archived = Put(Bytes("cold"));
  BlockNo magnetic = Put(Bytes("hot"));
  MigrateOne(archived);
  auto listed = tiered_->ListBlocks();
  ASSERT_TRUE(listed.ok());
  EXPECT_NE(std::find(listed->begin(), listed->end(), archived), listed->end());
  EXPECT_NE(std::find(listed->begin(), listed->end(), magnetic), listed->end());
}

TEST_F(TierStoreTest, PromotionCacheServesRepeatReads) {
  BlockNo bno = Put(Pattern(1000, 9));
  MigrateOne(bno);
  ASSERT_TRUE(tiered_->Read(bno).ok());  // promotes from the medium
  const uint64_t medium_reads = tiered_->Stats().promotions;
  ASSERT_TRUE(tiered_->Read(bno).ok());  // cache hit: no second medium read
  EXPECT_EQ(tiered_->Stats().promotions, medium_reads);
  tiered_->DropPromotions();
  ASSERT_TRUE(tiered_->Read(bno).ok());
  EXPECT_EQ(tiered_->Stats().promotions, medium_reads + 1);
}

TEST_F(TierStoreTest, ColdModeBypassesPromotionCache) {
  options_.promotion_cache_blocks = 0;
  Remount();
  BlockNo bno = Put(Pattern(1000, 5));
  MigrateOne(bno);
  ASSERT_TRUE(tiered_->Read(bno).ok());
  ASSERT_TRUE(tiered_->Read(bno).ok());
  EXPECT_EQ(tiered_->Stats().promotions, 2u);  // every read touches the medium
}

TEST_F(TierStoreTest, MountRebuildsMapAndFinishesInterruptedFree) {
  std::vector<uint8_t> payload = Pattern(2000, 11);
  BlockNo bno = Put(payload);
  // Cut the power after the burn, before the magnetic free: doubly resident.
  CrashInjector<TierCrashPoint> injector;
  tiered_->set_crash_injector(&injector);
  injector.Arm(TierCrashPoint::kAfterBurn);
  uint64_t migrated = 0;
  EXPECT_EQ(tiered_->MigrateBlocks(std::vector<BlockNo>{bno}, &migrated).code(),
            ErrorCode::kUnavailable);
  ASSERT_TRUE(injector.fired());
  const size_t doubly_resident = magnetic_.allocated_blocks();

  // Restart: the map comes back from the burned prefix alone, and reconciliation
  // completes the interrupted reclamation.
  Remount();
  EXPECT_TRUE(tiered_->archived(bno));
  EXPECT_EQ(magnetic_.allocated_blocks(), doubly_resident - 1);
  auto back = tiered_->Read(bno);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, payload);
}

TEST_F(TierStoreTest, ScrubRepairsRottedArchiveFromMagneticCopy) {
  std::vector<uint8_t> payload = Pattern(2000, 23);
  BlockNo bno = Put(payload);
  // Stop after the burn so the magnetic copy still exists (the repair source).
  CrashInjector<TierCrashPoint> injector;
  tiered_->set_crash_injector(&injector);
  injector.Arm(TierCrashPoint::kAfterBurn);
  EXPECT_EQ(tiered_->MigrateBlocks(std::vector<BlockNo>{bno}, nullptr).code(),
            ErrorCode::kUnavailable);
  auto mapping = tiered_->MappingSnapshot();
  ASSERT_EQ(mapping.size(), 1u);
  media_.CorruptBlock(platter_->RawBlockFor(mapping[0].second));

  auto summary = tiered_->ScrubPass();
  ASSERT_TRUE(summary.ok());
  EXPECT_EQ(summary->repaired, 1u);
  EXPECT_EQ(summary->unrecoverable, 0u);
  // The re-burned record serves the data; the magnetic leftover is reclaimed by the pass.
  tiered_->DropPromotions();
  auto back = tiered_->Read(bno);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, payload);
  EXPECT_TRUE(tiered_->archived(bno));
}

TEST_F(TierStoreTest, ScrubCountsUnrecoverableRot) {
  BlockNo bno = Put(Pattern(500, 40));
  MigrateOne(bno);  // magnetic copy reclaimed — the archive is the only copy
  auto mapping = tiered_->MappingSnapshot();
  ASSERT_EQ(mapping.size(), 1u);
  media_.CorruptBlock(platter_->RawBlockFor(mapping[0].second));
  tiered_->DropPromotions();
  auto summary = tiered_->ScrubPass();
  ASSERT_TRUE(summary.ok());
  EXPECT_EQ(summary->repaired, 0u);
  EXPECT_EQ(summary->unrecoverable, 1u);
}

}  // namespace
}  // namespace afs
