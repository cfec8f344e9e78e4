// Garbage collector tests: exact reclamation, pruning with Figure 4 invariant
// maintenance, pinning by uncommitted versions, crashed-server garbage, concurrency, and
// the reshare-on-commit rule (§5.1).

#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <thread>

#include "src/core/gc.h"
#include "tests/testing/cluster.h"

namespace afs {
namespace {

std::vector<uint8_t> Bytes(std::string_view s) {
  return std::vector<uint8_t>(s.begin(), s.end());
}

class GcTest : public ::testing::Test {
 protected:
  GcTest() : gc_({&cluster_.fs()}, GcOptions{.keep_versions = 1}) {}

  Capability MakeFile(int pages) {
    auto file = cluster_.fs().CreateFile();
    auto v = cluster_.fs().CreateVersion(*file, kNullPort, false);
    for (int i = 0; i < pages; ++i) {
      (void)cluster_.fs().InsertRef(*v, PagePath::Root(), i);
      (void)cluster_.fs().WritePage(*v, PagePath({static_cast<uint32_t>(i)}),
                                    std::vector<uint8_t>(2000, static_cast<uint8_t>(i)));
    }
    (void)cluster_.fs().Commit(*v);
    return *file;
  }

  void CommitWrite(const Capability& file, uint32_t page, std::string_view value) {
    auto v = cluster_.fs().CreateVersion(file, kNullPort, false);
    ASSERT_TRUE(v.ok()) << v.status();
    Status write = cluster_.fs().WritePage(*v, PagePath({page}), Bytes(value));
    ASSERT_TRUE(write.ok()) << write;
    auto commit = cluster_.fs().Commit(*v);
    ASSERT_TRUE(commit.ok()) << commit.status();
  }

  FastCluster cluster_;
  GarbageCollector gc_;
};

TEST_F(GcTest, ChainLongerThanWalkCapKeepsNewestVersions) {
  // A chain of more than twice 4096 versions: the collector prunes and marks from the
  // whole chain, so the sweep never frees pages of versions past any step cap.
  Capability file = MakeFile(2);
  for (int i = 0; i < 8300; ++i) {
    CommitWrite(file, 0, "gen" + std::to_string(i));
  }
  ASSERT_TRUE(gc_.RunCycle().ok());
  EXPECT_EQ(cluster_.fs().FileStat(file)->committed_versions, 1u);
  auto current = cluster_.fs().GetCurrentVersion(file);
  ASSERT_TRUE(current.ok());
  auto page = cluster_.fs().ReadPage(*current, PagePath({0}), false);
  ASSERT_TRUE(page.ok()) << page.status();
  EXPECT_EQ(page->data, Bytes("gen8299"));
}

TEST_F(GcTest, IdleCycleFreesNothingLive) {
  // A non-pruning collector must not touch anything in a quiescent system.
  GarbageCollector keeper({&cluster_.fs()}, GcOptions{.keep_versions = 100});
  Capability file = MakeFile(4);
  size_t before = cluster_.store().allocated_blocks();
  ASSERT_TRUE(keeper.RunCycle().ok());
  EXPECT_EQ(cluster_.store().allocated_blocks(), before);
  // The file remains fully readable.
  auto current = cluster_.fs().GetCurrentVersion(file);
  for (uint32_t i = 0; i < 4; ++i) {
    EXPECT_TRUE(cluster_.fs().ReadPage(*current, PagePath({i}), false).ok());
  }
}

TEST_F(GcTest, OldVersionsPrunedAndChainInvariantKept) {
  Capability file = MakeFile(2);
  for (int i = 0; i < 5; ++i) {
    CommitWrite(file, 0, "gen" + std::to_string(i));
  }
  EXPECT_EQ(cluster_.fs().FileStat(file)->committed_versions, 7u);  // initial + makefile + 5
  ASSERT_TRUE(gc_.RunCycle().ok());
  EXPECT_GT(gc_.stats().versions_pruned, 0u);
  auto stat = cluster_.fs().FileStat(file);
  ASSERT_TRUE(stat.ok());
  EXPECT_EQ(stat->committed_versions, 1u);
  // Figure 4 invariant after pruning: the (new) oldest version's base reference is nil.
  auto chain = cluster_.fs().CommittedChain(file.object);
  ASSERT_TRUE(chain.ok());
  auto oldest = cluster_.fs().page_store()->ReadPage(chain->front());
  ASSERT_TRUE(oldest.ok());
  EXPECT_EQ(oldest->base_ref, kNilRef);
  // Current data intact.
  auto current = cluster_.fs().GetCurrentVersion(file);
  EXPECT_EQ(cluster_.fs().ReadPage(*current, PagePath({0}), false)->data, Bytes("gen4"));
  EXPECT_FALSE(cluster_.fs().ReadPage(*current, PagePath({1}), false)->data.empty());
}

TEST_F(GcTest, SpaceReclaimedAfterPruning) {
  Capability file = MakeFile(2);
  size_t baseline = cluster_.store().allocated_blocks();
  for (int i = 0; i < 10; ++i) {
    CommitWrite(file, 0, std::string(2000, 'x'));
  }
  size_t grown = cluster_.store().allocated_blocks();
  ASSERT_GT(grown, baseline);
  ASSERT_TRUE(gc_.RunCycle().ok());
  EXPECT_GT(gc_.stats().blocks_swept, 0u);
  // Near-baseline occupancy: the 10 historical root pages + their copied pages are gone.
  EXPECT_LT(cluster_.store().allocated_blocks(), baseline + 4);
}

TEST_F(GcTest, AbortedVersionsLeaveNoGarbage) {
  Capability file = MakeFile(2);
  size_t before = cluster_.store().allocated_blocks();
  for (int i = 0; i < 5; ++i) {
    auto v = cluster_.fs().CreateVersion(file, kNullPort, false);
    ASSERT_TRUE(cluster_.fs().WritePage(*v, PagePath({0}), Bytes("temp")).ok());
    ASSERT_TRUE(cluster_.fs().Abort(*v).ok());
  }
  EXPECT_EQ(cluster_.store().allocated_blocks(), before);  // abort frees eagerly
  GarbageCollector keeper({&cluster_.fs()}, GcOptions{.keep_versions = 100});
  ASSERT_TRUE(keeper.RunCycle().ok());
  EXPECT_EQ(cluster_.store().allocated_blocks(), before);  // and the GC finds no more
}

TEST_F(GcTest, UncommittedVersionsPinTheirBase) {
  Capability file = MakeFile(1);
  auto open_version = cluster_.fs().CreateVersion(file, kNullPort, false);
  ASSERT_TRUE(open_version.ok());
  // Several newer versions commit meanwhile.
  for (int i = 0; i < 4; ++i) {
    CommitWrite(file, 0, "newer" + std::to_string(i));
  }
  ASSERT_TRUE(gc_.RunCycle().ok());
  // The open version's pages survive, and the commit still works (its serialisability
  // tests walk the retained chain).
  ASSERT_TRUE(cluster_.fs().WritePage(*open_version, PagePath({0}), Bytes("late")).ok());
  auto commit = cluster_.fs().Commit(*open_version);
  EXPECT_TRUE(commit.ok()) << commit.status();
  auto current = cluster_.fs().GetCurrentVersion(file);
  EXPECT_EQ(cluster_.fs().ReadPage(*current, PagePath({0}), false)->data, Bytes("late"));
}

TEST_F(GcTest, CrashedServersUncommittedVersionsAreCollected) {
  // "Uncommitted versions need not be salvaged in a server crash."
  Capability file = MakeFile(2);
  auto v = cluster_.fs().CreateVersion(file, kNullPort, false);
  ASSERT_TRUE(cluster_.fs().WritePage(*v, PagePath({0}), Bytes("doomed")).ok());
  size_t with_version = cluster_.store().allocated_blocks();
  cluster_.fs().Crash();
  cluster_.fs().Restart();
  ASSERT_TRUE(gc_.RunCycle().ok());
  EXPECT_LT(cluster_.store().allocated_blocks(), with_version);
  // The file itself is unharmed.
  auto current = cluster_.fs().GetCurrentVersion(file);
  ASSERT_TRUE(current.ok());
  EXPECT_TRUE(cluster_.fs().ReadPage(*current, PagePath({0}), false).ok());
}

TEST_F(GcTest, DeletedFilesFullyReclaimed) {
  size_t before = cluster_.store().allocated_blocks();
  Capability file = MakeFile(8);
  ASSERT_TRUE(cluster_.fs().DeleteFile(file).ok());
  ASSERT_TRUE(gc_.RunCycle().ok());
  // Only the (rewritten) file table may differ in block count.
  EXPECT_LE(cluster_.store().allocated_blocks(), before + 1);
}

TEST_F(GcTest, KeepVersionsRespected) {
  GarbageCollector keeper({&cluster_.fs()}, GcOptions{.keep_versions = 3});
  Capability file = MakeFile(1);
  for (int i = 0; i < 6; ++i) {
    CommitWrite(file, 0, "g" + std::to_string(i));
  }
  ASSERT_TRUE(keeper.RunCycle().ok());
  EXPECT_EQ(cluster_.fs().FileStat(file)->committed_versions, 3u);
}

TEST_F(GcTest, RunsInParallelWithUpdates) {
  // Abstract: "A garbage collector that runs independent of, and in parallel with, the
  // operation of the system."
  Capability file = MakeFile(4);
  std::atomic<bool> stop{false};
  std::atomic<int> commits{0};
  std::thread mutator([&] {
    int i = 0;
    while (!stop.load()) {
      auto v = cluster_.fs().CreateVersion(file, kNullPort, false);
      if (!v.ok()) {
        continue;
      }
      if (cluster_.fs()
              .WritePage(*v, PagePath({static_cast<uint32_t>(i % 4)}), Bytes("data"))
              .ok() &&
          cluster_.fs().Commit(*v).ok()) {
        ++commits;
      }
      ++i;
    }
  });
  int cycles = 0;
  while (commits.load() < 10 && cycles < 2000) {
    Status st = gc_.RunCycle();
    ++cycles;
    // Aborted cycles (racing mutations) are fine; failed invariants are not.
    if (!st.ok()) {
      EXPECT_NE(st.code(), ErrorCode::kInternal) << st;
    }
  }
  stop = true;
  mutator.join();
  EXPECT_GT(commits.load(), 0);
  // Final state consistent: everything readable.
  auto current = cluster_.fs().GetCurrentVersion(file);
  ASSERT_TRUE(current.ok()) << current.status();
  for (uint32_t i = 0; i < 4; ++i) {
    EXPECT_TRUE(cluster_.fs().ReadPage(*current, PagePath({i}), false).ok());
  }
  // And a quiescent cycle still reclaims all remaining garbage.
  ASSERT_TRUE(gc_.RunCycle().ok());
}

TEST_F(GcTest, BackgroundModeStartsAndStops) {
  Capability file = MakeFile(1);
  gc_.Start(std::chrono::milliseconds(5));
  for (int i = 0; i < 10; ++i) {
    CommitWrite(file, 0, "bg" + std::to_string(i));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  gc_.Stop();
  EXPECT_GT(gc_.stats().cycles, 0u);
}

// --- Reshare-on-commit (ablation A2, §5.1's "copied but not written" rule) ---

TEST(GcCacheTest, SweptBlockReusedAsNewPageIsNotServedFromCache) {
  // A small device, so the allocator's cursor wraps and hands swept numbers out again.
  // fs1 only reads; fs0 writes. The sweep must drop the freed block from fs1's
  // committed-page cache, or fs1 serves the old page for the block's new content.
  FullCluster cluster(2, /*num_blocks=*/256);
  FileServer& writer = cluster.fs(0);
  FileServer& reader = cluster.fs(1);
  GarbageCollector gc({&writer, &reader}, GcOptions{.keep_versions = 1});
  const auto commit_write = [&](const Capability& file, std::string_view value) {
    auto v = writer.CreateVersion(file, kNullPort, false);
    ASSERT_TRUE(v.ok()) << v.status();
    ASSERT_TRUE(writer.WritePage(*v, PagePath({0}), Bytes(value)).ok());
    ASSERT_TRUE(writer.Commit(*v).ok());
  };
  const auto leaf_block = [&](const Capability& file) {
    auto current = writer.GetCurrentVersion(file);
    auto root = writer.page_store()->ReadPage(static_cast<BlockNo>(current->object));
    return root->refs.at(0).block;
  };

  auto old_file = writer.CreateFile();
  {
    auto v = writer.CreateVersion(*old_file, kNullPort, false);
    ASSERT_TRUE(writer.InsertRef(*v, PagePath::Root(), 0).ok());
    ASSERT_TRUE(writer.WritePage(*v, PagePath({0}), Bytes("old page")).ok());
    ASSERT_TRUE(writer.Commit(*v).ok());
  }
  const BlockNo swept = leaf_block(*old_file);
  auto old_version = reader.GetCurrentVersion(*old_file);
  ASSERT_EQ(reader.ReadPage(*old_version, PagePath({0}), false)->data, Bytes("old page"));
  commit_write(*old_file, "superseding page");
  ASSERT_TRUE(gc.RunCycle().ok());  // prunes the old version and sweeps its leaf

  auto new_file = writer.CreateFile();
  {
    auto v = writer.CreateVersion(*new_file, kNullPort, false);
    ASSERT_TRUE(writer.InsertRef(*v, PagePath::Root(), 0).ok());
    ASSERT_TRUE(writer.WritePage(*v, PagePath({0}), Bytes("new page 0")).ok());
    ASSERT_TRUE(writer.Commit(*v).ok());
  }
  std::string latest = "new page 0";
  for (int i = 1; i < 2000 && leaf_block(*new_file) != swept; ++i) {
    latest = "new page " + std::to_string(i);
    commit_write(*new_file, latest);
    ASSERT_TRUE(gc.RunCycle().ok());
  }
  ASSERT_EQ(leaf_block(*new_file), swept) << "the swept block was never reused";
  auto current = reader.GetCurrentVersion(*new_file);
  ASSERT_TRUE(current.ok());
  auto read = reader.ReadPage(*current, PagePath({0}), false);
  ASSERT_TRUE(read.ok()) << read.status();
  EXPECT_EQ(read->data, Bytes(latest));
}

// Forwards to `inner`. Once armed, a Read of the armed block fetches its content and then
// waits for Open(): a load is held between its read and its cache insert.
class GatedStore : public BlockStore {
 public:
  explicit GatedStore(BlockStore* inner) : inner_(inner) {}

  void Arm(BlockNo bno) {
    std::lock_guard<std::mutex> lock(mu_);
    armed_ = bno;
  }
  void WaitHeld() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return held_; });
  }
  void Open() {
    std::lock_guard<std::mutex> lock(mu_);
    open_ = true;
    cv_.notify_all();
  }

  Result<std::vector<uint8_t>> Read(BlockNo bno) override {
    auto data = inner_->Read(bno);
    std::unique_lock<std::mutex> lock(mu_);
    if (armed_ == bno) {
      armed_ = kNilRef;
      held_ = true;
      cv_.notify_all();
      cv_.wait(lock, [&] { return open_; });
    }
    return data;
  }
  Result<BlockNo> AllocWrite(std::span<const uint8_t> payload) override {
    return inner_->AllocWrite(payload);
  }
  Status Write(BlockNo bno, std::span<const uint8_t> payload) override {
    return inner_->Write(bno, payload);
  }
  Status Free(BlockNo bno) override { return inner_->Free(bno); }
  Result<std::vector<BlockReadResult>> ReadMulti(std::span<const BlockNo> bnos) override {
    return inner_->ReadMulti(bnos);
  }
  Status WriteBatch(std::span<const BlockWrite> writes) override {
    return inner_->WriteBatch(writes);
  }
  Status FreeMulti(std::span<const BlockNo> bnos) override { return inner_->FreeMulti(bnos); }
  Result<std::vector<BlockNo>> AllocMulti(uint32_t n) override { return inner_->AllocMulti(n); }
  Status Lock(BlockNo bno, Port owner) override { return inner_->Lock(bno, owner); }
  Status Unlock(BlockNo bno, Port owner) override { return inner_->Unlock(bno, owner); }
  Result<std::vector<BlockNo>> ListBlocks() override { return inner_->ListBlocks(); }
  uint32_t payload_capacity() const override { return inner_->payload_capacity(); }

 private:
  BlockStore* inner_;
  std::mutex mu_;
  std::condition_variable cv_;
  BlockNo armed_ = kNilRef;
  bool held_ = false;
  bool open_ = false;
};

TEST(GcCacheTest, LoadRacingTheSweepDoesNotCacheTheFreedPage) {
  // A reader of a pruned snapshot reads a block, the sweep frees it, and only then does
  // the reader's load try to cache what it read. The insert must be dropped, or the old
  // page is served once the number is reused.
  FullCluster cluster(1, /*num_blocks=*/256);
  FileServer& writer = cluster.fs(0);
  std::unique_ptr<StableStore> reader_stable = cluster.MakeStableStore();
  GatedStore gated(reader_stable.get());
  FileServer reader(&cluster.net(), "fs-reader", &gated, FileServerOptions{});
  reader.Start();
  ASSERT_TRUE(reader.AttachStore().ok());
  GarbageCollector gc({&writer, &reader}, GcOptions{.keep_versions = 1});
  const auto commit_write = [&](const Capability& file, std::string_view value) {
    auto v = writer.CreateVersion(file, kNullPort, false);
    ASSERT_TRUE(v.ok()) << v.status();
    ASSERT_TRUE(writer.WritePage(*v, PagePath({0}), Bytes(value)).ok());
    ASSERT_TRUE(writer.Commit(*v).ok());
  };
  const auto leaf_block = [&](const Capability& file) {
    auto current = writer.GetCurrentVersion(file);
    auto root = writer.page_store()->ReadPage(static_cast<BlockNo>(current->object));
    return root->refs.at(0).block;
  };
  const auto create_file = [&](std::string_view value) {
    auto file = writer.CreateFile();
    auto v = writer.CreateVersion(*file, kNullPort, false);
    EXPECT_TRUE(writer.InsertRef(*v, PagePath::Root(), 0).ok());
    EXPECT_TRUE(writer.WritePage(*v, PagePath({0}), Bytes(value)).ok());
    EXPECT_TRUE(writer.Commit(*v).ok());
    return *file;
  };

  const Capability old_file = create_file("old page");
  const BlockNo swept = leaf_block(old_file);
  auto old_version = reader.GetCurrentVersion(old_file);
  ASSERT_TRUE(old_version.ok());
  commit_write(old_file, "superseding page");

  gated.Arm(swept);
  std::thread load([&] { (void)reader.ReadPage(*old_version, PagePath({0}), false); });
  gated.WaitHeld();
  ASSERT_TRUE(gc.RunCycle().ok());  // prunes the old version and sweeps its leaf
  gated.Open();
  load.join();

  const Capability new_file = create_file("new page 0");
  std::string latest = "new page 0";
  for (int i = 1; i < 2000 && leaf_block(new_file) != swept; ++i) {
    latest = "new page " + std::to_string(i);
    commit_write(new_file, latest);
    ASSERT_TRUE(gc.RunCycle().ok());
  }
  ASSERT_EQ(leaf_block(new_file), swept) << "the swept block was never reused";
  auto current = reader.GetCurrentVersion(new_file);
  ASSERT_TRUE(current.ok());
  auto read = reader.ReadPage(*current, PagePath({0}), false);
  ASSERT_TRUE(read.ok()) << read.status();
  EXPECT_EQ(read->data, Bytes(latest));
}

TEST(ReshareTest, CopiedButUnwrittenPagesResharedWithBase) {
  FileServerOptions with;
  with.reshare_on_commit = true;
  FileServerOptions without;
  without.reshare_on_commit = false;

  auto measure = [](FileServerOptions options) -> size_t {
    FastCluster cluster(options);
    auto file = cluster.fs().CreateFile();
    auto v0 = cluster.fs().CreateVersion(*file, kNullPort, false);
    for (int i = 0; i < 8; ++i) {
      (void)cluster.fs().InsertRef(*v0, PagePath::Root(), i);
      (void)cluster.fs().WritePage(*v0, PagePath({static_cast<uint32_t>(i)}),
                                   std::vector<uint8_t>(2000, 1));
    }
    (void)cluster.fs().Commit(*v0);
    // The update READS seven pages and writes one: the seven read-copies are clean.
    auto v1 = cluster.fs().CreateVersion(*file, kNullPort, false);
    for (int i = 0; i < 7; ++i) {
      (void)cluster.fs().ReadPage(*v1, PagePath({static_cast<uint32_t>(i)}), false);
    }
    (void)cluster.fs().WritePage(*v1, PagePath({7}), std::vector<uint8_t>(2000, 2));
    (void)cluster.fs().Commit(*v1);
    // Resharing redirects references; the dropped copies become unreachable and are
    // reclaimed by the collector (both versions retained, so pruning plays no part).
    GarbageCollector gc({&cluster.fs()}, GcOptions{.keep_versions = 100});
    (void)gc.RunCycle();
    return cluster.store().allocated_blocks();
  };

  // With resharing, the clean read-copies are dropped from the committed tree; the
  // space difference is the point of the §5.1 rule.
  EXPECT_LT(measure(with), measure(without));
}

TEST(ReshareTest, ReshareKeepsContentIdentical) {
  FileServerOptions options;
  options.reshare_on_commit = true;
  FastCluster cluster(options);
  auto file = cluster.fs().CreateFile();
  auto v0 = cluster.fs().CreateVersion(*file, kNullPort, false);
  for (int i = 0; i < 4; ++i) {
    (void)cluster.fs().InsertRef(*v0, PagePath::Root(), i);
    (void)cluster.fs().WritePage(*v0, PagePath({static_cast<uint32_t>(i)}),
                                 Bytes("original" + std::to_string(i)));
  }
  (void)cluster.fs().Commit(*v0);
  auto v1 = cluster.fs().CreateVersion(*file, kNullPort, false);
  for (int i = 0; i < 3; ++i) {
    (void)cluster.fs().ReadPage(*v1, PagePath({static_cast<uint32_t>(i)}), false);
  }
  ASSERT_TRUE(cluster.fs().WritePage(*v1, PagePath({3}), Bytes("rewritten")).ok());
  ASSERT_TRUE(cluster.fs().Commit(*v1).ok());
  auto current = cluster.fs().GetCurrentVersion(*file);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(cluster.fs().ReadPage(*current, PagePath({static_cast<uint32_t>(i)}), false)->data,
              Bytes("original" + std::to_string(i)));
  }
  EXPECT_EQ(cluster.fs().ReadPage(*current, PagePath({3}), false)->data, Bytes("rewritten"));
}

}  // namespace
}  // namespace afs
