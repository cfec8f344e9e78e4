// Crash-mid-migration suite: for every catalogued TierCrashPoint, cut the power there,
// simulate a restart (fresh WriteOnceDisk + TieredStore + FileServer over the surviving
// media), and assert the migration invariant — every block of every committed version is
// readable, byte-identical, from one tier or the other — then re-run the migration to
// completion. The per-point media states are the crash matrix of docs/TIERING.md.

#include <gtest/gtest.h>

#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/core/gc.h"
#include "src/disk/mem_disk.h"
#include "src/disk/write_once_disk.h"
#include "src/tier/crash_point.h"
#include "src/tier/fsck.h"
#include "src/tier/migrator.h"
#include "src/tier/tiered_store.h"

namespace afs {
namespace {

class TierCrashTest : public ::testing::TestWithParam<TierCrashPoint> {
 protected:
  TierCrashTest() : net_(5), magnetic_(4068, 1 << 20), media_(4096, 2048) { Boot(); }

  // (Re)build the whole stack over the surviving media_ + magnetic_, as a restart would.
  void Boot() {
    if (fs_ != nullptr) {
      fs_->Shutdown();
    }
    fs_.reset();
    tiered_.reset();
    platter_.reset();
    platter_ = std::make_unique<WriteOnceDisk>(&media_);
    tiered_ = std::make_unique<TieredStore>(&magnetic_, platter_.get());
    ASSERT_TRUE(tiered_->Mount().ok());
    FileServerOptions options;
    options.cache_committed_pages = false;  // reads must hit the tier, not a server cache
    fs_ = std::make_unique<FileServer>(&net_, "fs0", tiered_.get(), options);
    fs_->Start();
    ASSERT_TRUE(fs_->AttachStore().ok());
  }

  void BuildWorkload() {
    auto file = fs_->CreateFile();
    ASSERT_TRUE(file.ok());
    file_ = *file;
    auto v0 = fs_->CreateVersion(file_, kNullPort, false);
    ASSERT_TRUE(v0.ok());
    for (int i = 0; i < 4; ++i) {
      ASSERT_TRUE(fs_->InsertRef(*v0, PagePath::Root(), i).ok());
      ASSERT_TRUE(fs_->WritePage(*v0, PagePath({static_cast<uint32_t>(i)}),
                                 std::vector<uint8_t>(1500, static_cast<uint8_t>(i)))
                      .ok());
    }
    ASSERT_TRUE(fs_->Commit(*v0).ok());
    for (int gen = 1; gen <= 6; ++gen) {
      auto v = fs_->CreateVersion(file_, kNullPort, false);
      ASSERT_TRUE(v.ok());
      for (int i = 0; i < 4; ++i) {
        std::vector<uint8_t> data(1500, static_cast<uint8_t>(gen * 16 + i));
        ASSERT_TRUE(fs_->WritePage(*v, PagePath({static_cast<uint32_t>(i)}), data).ok());
      }
      ASSERT_TRUE(fs_->Commit(*v).ok());
    }
  }

  // Raw bytes of every block reachable from any committed version, via the tier.
  std::unordered_map<BlockNo, std::vector<uint8_t>> SnapshotHistory() {
    std::unordered_map<BlockNo, std::vector<uint8_t>> contents;
    auto chain = fs_->CommittedChain(file_.object);
    EXPECT_TRUE(chain.ok());
    std::unordered_set<BlockNo> reachable;
    for (BlockNo head : *chain) {
      EXPECT_TRUE(WalkVersionTree(fs_->page_store(), head, &reachable,
                                  [](const Page&, const std::vector<BlockNo>&) {})
                      .ok());
    }
    for (BlockNo bno : reachable) {
      auto data = tiered_->Read(bno);
      EXPECT_TRUE(data.ok()) << "block " << bno << " unreadable: " << data.status();
      if (data.ok()) {
        contents[bno] = std::move(*data);
      }
    }
    return contents;
  }

  Network net_;
  InMemoryBlockStore magnetic_;
  MemDisk media_;
  std::unique_ptr<WriteOnceDisk> platter_;
  std::unique_ptr<TieredStore> tiered_;
  std::unique_ptr<FileServer> fs_;
  Capability file_;
};

TEST_P(TierCrashTest, NoCommittedVersionUnreadableAtAnyCut) {
  BuildWorkload();
  auto before = SnapshotHistory();
  ASSERT_FALSE(before.empty());

  // Cut the power at the parameterised site.
  CrashInjector<TierCrashPoint> injector;
  tiered_->set_crash_injector(&injector);
  injector.Arm(GetParam());
  Migrator migrator({fs_.get()}, tiered_.get());
  auto cut = migrator.RunCycle();
  ASSERT_FALSE(cut.ok());
  EXPECT_EQ(cut.status().code(), ErrorCode::kUnavailable);
  ASSERT_TRUE(injector.fired()) << "site " << TierCrashPointName(GetParam())
                                << " never reached";

  // Restart over the surviving media. Mount reconciles whatever the cut left behind.
  Boot();

  // The invariant: every committed block reads back byte-identical from some tier.
  auto after = SnapshotHistory();
  EXPECT_EQ(before, after) << "history diverged after cut at "
                           << TierCrashPointName(GetParam());
  FsckReport report = RunTieredFsck(fs_.get(), tiered_.get());
  EXPECT_TRUE(report.clean) << report.ToString();

  // The interrupted cycle is restartable: a fresh run completes, reclaims, and the
  // history still reads back intact.
  Migrator redo({fs_.get()}, tiered_.get());
  auto done = redo.RunCycle();
  ASSERT_TRUE(done.ok()) << done.status();
  tiered_->DropPromotions();
  auto final_state = SnapshotHistory();
  EXPECT_EQ(before, final_state);
  EXPECT_GT(tiered_->archived_blocks(), 0u);
  report = RunTieredFsck(fs_.get(), tiered_.get());
  EXPECT_TRUE(report.clean) << report.ToString();
}

INSTANTIATE_TEST_SUITE_P(AllCatalogedPoints, TierCrashTest,
                         ::testing::ValuesIn(kAllTierCrashPoints),
                         [](const ::testing::TestParamInfo<TierCrashPoint>& info) {
                           return TierCrashPointName(info.param);
                         });

// A crash at kMidBurn can strand a burned record whose magnetic twin is freed by a LATER
// completed migration — and a crash between the bitmap persist and the data write leaves a
// dead archive block. Neither may confuse a remount: this drives the mid-burn cut, then a
// full cycle, then verifies a remount rebuilds the same map.
TEST_F(TierCrashTest, RemountAfterMidBurnThenCompletionIsStable) {
  BuildWorkload();
  auto before = SnapshotHistory();

  CrashInjector<TierCrashPoint> injector;
  tiered_->set_crash_injector(&injector);
  injector.Arm(TierCrashPoint::kMidBurn);
  Migrator migrator({fs_.get()}, tiered_.get());
  ASSERT_FALSE(migrator.RunCycle().ok());
  ASSERT_TRUE(injector.fired());
  auto done = migrator.RunCycle();  // completes: skips already-mapped, burns the rest
  ASSERT_TRUE(done.ok()) << done.status();
  const size_t mapped = tiered_->archived_blocks();
  ASSERT_GT(mapped, 0u);

  Boot();
  EXPECT_EQ(tiered_->archived_blocks(), mapped);
  tiered_->DropPromotions();
  auto after = SnapshotHistory();
  EXPECT_EQ(before, after);
}

}  // namespace
}  // namespace afs
