// Integration of the durable store with the upper layers: a stable pair of BlockServers
// over two FileDisks (paper §4's two-server stable storage, now on media that survive
// process exit), and a FileServer whose files round-trip across a simulated process
// restart — the property the `afs_shell --store` flag is built on.

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <string>

#include "src/block/block_server.h"
#include "src/block/block_store.h"
#include "src/core/file_server.h"
#include "src/rpc/network.h"
#include "src/store/file_disk.h"

namespace afs {
namespace {

std::string ScratchDir(const std::string& name) {
  std::filesystem::path dir = std::filesystem::path("store_scratch") / name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

std::vector<uint8_t> Bytes(const std::string& s) {
  return std::vector<uint8_t>(s.begin(), s.end());
}

FileDiskOptions PairGeometry() {
  FileDiskOptions options;
  options.block_size = 1024;
  options.num_blocks = 256;
  return options;
}

// One "process run" of a stable pair over two FileDisks. Deterministic seeds everywhere
// (network, signer) so a second run reconstructs the same capability universe — which is
// exactly what a restarted server binary does.
struct PairRun {
  explicit PairRun(const std::string& dir, const FileDiskOptions& options = PairGeometry())
      : net(7) {
    auto da = FileDisk::Open(dir + "/a.afsdisk", options);
    auto db = FileDisk::Open(dir + "/b.afsdisk", options);
    if (!da.ok() || !db.ok()) {
      std::abort();
    }
    disk_a = std::move(da).value();
    disk_b = std::move(db).value();
    bs_a = std::make_unique<BlockServer>(&net, "block-a", disk_a.get(), 101);
    bs_b = std::make_unique<BlockServer>(&net, "block-b", disk_b.get(), 101);
    bs_a->Start();
    bs_b->Start();
    bs_a->SetCompanion(bs_b->port());
    bs_b->SetCompanion(bs_a->port());
    // Adopt whatever a previous run left on the disks (no-op on fresh media).
    bs_a->RecoverFromDisk();
    bs_b->RecoverFromDisk();
    account = bs_a->CreateAccountDirect();
    const uint32_t capacity = options.block_size - kBlockHeaderBytes;
    store = std::make_unique<StableStore>(
        std::make_unique<BlockClient>(&net, bs_a->port(), account, capacity),
        std::make_unique<BlockClient>(&net, bs_b->port(), account, capacity), 99);
  }

  Network net;
  std::unique_ptr<FileDisk> disk_a;
  std::unique_ptr<FileDisk> disk_b;
  std::unique_ptr<BlockServer> bs_a;
  std::unique_ptr<BlockServer> bs_b;
  Capability account;
  std::unique_ptr<StableStore> store;
};

TEST(StoreIntegrationTest, StablePairRoundTripsOverFileDisks) {
  const std::string dir = ScratchDir("pair_round_trip");
  PairRun run(dir);
  auto payload = Bytes("stable storage on durable media");
  auto bno = run.store->AllocWrite(payload);
  ASSERT_TRUE(bno.ok()) << bno.status().message();
  auto read = run.store->Read(*bno);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, payload);
  // The companion-first discipline: both FileDisks saw the write.
  EXPECT_GE(run.disk_a->writes(), 1u);
  EXPECT_GE(run.disk_b->writes(), 1u);
}

TEST(StoreIntegrationTest, BatchSharesJournalFsyncs) {
  // A FileDisk's writes wait for a group-commit flush; the block server keeps a batch's
  // writes in flight together so the journal folds them into a few fsyncs per disk,
  // where writing them one after another would cost one fsync each.
  const std::string dir = ScratchDir("pair_batch_fsyncs");
  FileDiskOptions options = PairGeometry();
  options.group_commit_window = std::chrono::microseconds(200);
  PairRun run(dir, options);
  EXPECT_TRUE(run.disk_a->geometry().writes_share_flush);
  constexpr uint32_t kBlocks = 16;
  auto bnos = run.store->AllocMulti(kBlocks);
  ASSERT_TRUE(bnos.ok()) << bnos.status();
  std::vector<BlockWrite> writes;
  for (BlockNo bno : *bnos) {
    writes.push_back({bno, Bytes("block " + std::to_string(bno))});
  }
  const uint64_t fsyncs_a = run.disk_a->fsync_batches();
  const uint64_t fsyncs_b = run.disk_b->fsync_batches();
  ASSERT_TRUE(run.store->WriteBatch(writes).ok());
  EXPECT_LT(run.disk_a->fsync_batches() - fsyncs_a, kBlocks / 2);
  EXPECT_LT(run.disk_b->fsync_batches() - fsyncs_b, kBlocks / 2);
  for (const BlockWrite& w : writes) {
    auto read = run.store->Read(w.bno);
    ASSERT_TRUE(read.ok());
    EXPECT_EQ(*read, w.payload);
  }
}

TEST(StoreIntegrationTest, CorruptSectorRepairedFromCompanion) {
  const std::string dir = ScratchDir("pair_repair");
  PairRun run(dir);
  auto payload = Bytes("repair me from the companion");
  auto bno = run.store->AllocWrite(payload);
  ASSERT_TRUE(bno.ok());
  // Damage the primary's stored copy. FileDisk detects the bad sector CRC itself and
  // returns kCorrupt; the BlockServer must then fetch the companion's copy and repair.
  run.disk_a->CorruptBlock(*bno);
  auto read = run.store->Read(*bno);
  ASSERT_TRUE(read.ok()) << read.status().message();
  EXPECT_EQ(*read, payload);
  // The repair rewrote the local sector: a direct device read is clean again.
  std::vector<uint8_t> raw(PairGeometry().block_size);
  EXPECT_TRUE(run.disk_a->Read(*bno, raw).ok());
}

TEST(StoreIntegrationTest, BlocksSurviveProcessRestart) {
  const std::string dir = ScratchDir("pair_restart");
  auto payload = Bytes("written by process one");
  BlockNo bno = 0;
  {
    PairRun run(dir);
    auto res = run.store->AllocWrite(payload);
    ASSERT_TRUE(res.ok());
    bno = *res;
  }  // orderly shutdown: FileDisk destructors checkpoint and close
  PairRun run(dir);
  // Same secret seed -> the account capability from run one verifies in run two; the
  // allocation scan adopted the on-disk blocks, so reads and fresh allocations both work.
  auto read = run.store->Read(bno);
  ASSERT_TRUE(read.ok()) << read.status().message();
  EXPECT_EQ(*read, payload);
  auto fresh = run.store->AllocWrite(Bytes("written by process two"));
  ASSERT_TRUE(fresh.ok());
  EXPECT_NE(*fresh, bno) << "allocation map must have adopted the old block";
}

TEST(StoreIntegrationTest, FileServiceSurvivesProcessRestart) {
  const std::string dir = ScratchDir("fs_restart");
  FileDiskOptions options;
  options.block_size = 4096;
  options.num_blocks = 1 << 12;
  auto payload = Bytes("a file that outlives its process");
  Capability file_cap;  // the shell persists this in its meta file; tests keep it in memory
  {
    PairRun run(dir, options);
    FileServer fs(&run.net, "fs0", run.store.get());
    fs.Start();
    ASSERT_TRUE(fs.AttachStore().ok());
    auto file = fs.CreateFile();
    ASSERT_TRUE(file.ok());
    file_cap = *file;
    auto version = fs.CreateVersion(file_cap, kNullPort, false);
    ASSERT_TRUE(version.ok());
    ASSERT_TRUE(fs.WritePage(*version, PagePath::Root(), payload).ok());
    ASSERT_TRUE(fs.Commit(*version).ok());
  }
  // "Process two": fresh network, fresh servers, same disks, same seeds.
  PairRun run(dir, options);
  FileServer fs(&run.net, "fs0", run.store.get());
  fs.Start();
  // AttachStore's scan finds the existing file table page instead of creating a new one.
  ASSERT_TRUE(fs.AttachStore().ok());
  auto current = fs.GetCurrentVersion(file_cap);
  ASSERT_TRUE(current.ok()) << current.status().message();
  auto read = fs.ReadPage(*current, PagePath::Root(), false);
  ASSERT_TRUE(read.ok()) << read.status().message();
  EXPECT_EQ(read->data, payload);
  // And the service is fully writable: a second-generation update commits cleanly.
  auto version = fs.CreateVersion(file_cap, kNullPort, false);
  ASSERT_TRUE(version.ok());
  ASSERT_TRUE(fs.WritePage(*version, PagePath::Root(), Bytes("updated in process two")).ok());
  ASSERT_TRUE(fs.Commit(*version).ok());
}

}  // namespace
}  // namespace afs
