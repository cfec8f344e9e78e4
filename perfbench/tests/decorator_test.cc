// The benchmark's measurement decorators must be invisible to the program, and its
// correctness check must be able to fail.

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "lib/decorators.h"
#include "lib/payload.h"
#include "src/block/block_server.h"
#include "src/block/block_store.h"
#include "src/core/file_server.h"
#include "src/disk/mem_disk.h"
#include "src/rpc/network.h"

namespace perfbench {
namespace {

using afs::Capability;
using afs::PagePath;

constexpr size_t kPageBytes = 2048;

// A seeded sequence of file-service operations; returns everything observable: each
// operation's status code and every page image read back.
std::vector<std::string> FileServiceTranscript(afs::BlockStore* store, uint64_t seed) {
  afs::Network net(1);
  afs::FileServer fs(&net, "fs", store);
  fs.Start();
  std::vector<std::string> out;
  out.push_back("attach " + std::to_string(static_cast<int>(fs.AttachStore().code())));
  afs::Rng rng(seed);
  std::vector<Capability> files;
  for (uint32_t f = 0; f < 3; ++f) {
    auto file = fs.CreateFile();
    auto v = fs.CreateVersion(*file, afs::kNullPort, false);
    for (uint32_t p = 0; p < 4; ++p) {
      (void)fs.InsertRef(*v, PagePath::Root(), p);
      (void)fs.WritePage(*v, PagePath({p}), EncodePayload({f, p, 0, 0}, kPageBytes));
    }
    out.push_back("create " + std::to_string(fs.Commit(*v).ok()));
    files.push_back(*file);
  }
  for (uint64_t i = 1; i <= 40; ++i) {
    const uint32_t f = static_cast<uint32_t>(rng.NextBelow(files.size()));
    const uint32_t p = static_cast<uint32_t>(rng.NextBelow(4));
    auto v = fs.CreateVersion(files[f], afs::kNullPort, false);
    auto wrote = fs.WritePage(*v, PagePath({p}), EncodePayload({f, p, 1, i}, kPageBytes));
    auto committed = fs.Commit(*v);
    out.push_back("txn " + std::to_string(static_cast<int>(wrote.code())) + " " +
                  std::to_string(committed.ok()));
    auto current = fs.GetCurrentVersion(files[rng.NextBelow(files.size())]);
    auto read = fs.ReadPage(*current, PagePath({static_cast<uint32_t>(rng.NextBelow(4))}), false);
    out.push_back(read.ok() ? std::string(read->data.begin(), read->data.end()) : "read error");
  }
  return out;
}

TEST(CountingBlockStoreTest, SameSequenceGivesIdenticalResults) {
  afs::InMemoryBlockStore plain;
  afs::InMemoryBlockStore inner;
  CountingBlockStore counted(&inner);
  const auto want = FileServiceTranscript(&plain, 7);
  const auto got = FileServiceTranscript(&counted, 7);
  EXPECT_EQ(got, want);
  // The decorator saw the traffic it forwarded.
  const BlockStoreTotals totals = counted.totals();
  EXPECT_GT(totals.blocks_written, 40u);
  EXPECT_GT(totals.calls[kOpLock], 0u);
  EXPECT_EQ(totals.calls[kOpLock], totals.calls[kOpUnlock]);
}

// A seeded sequence of block-server operations through a stable pair; returns every
// reply plus the final image of both devices.
std::vector<std::string> BlockServerTranscript(bool decorate, uint64_t seed) {
  afs::Network net(1);
  afs::MemDisk disk_a(4096, 256);
  afs::MemDisk disk_b(4096, 256);
  CountingBlockDevice dev_a(&disk_a);
  CountingBlockDevice dev_b(&disk_b);
  afs::BlockServer a(&net, "a", decorate ? static_cast<afs::BlockDevice*>(&dev_a) : &disk_a, 3);
  afs::BlockServer b(&net, "b", decorate ? static_cast<afs::BlockDevice*>(&dev_b) : &disk_b, 3);
  a.Start();
  b.Start();
  a.SetCompanion(b.port());
  b.SetCompanion(a.port());
  const Capability account = a.CreateAccountDirect();
  afs::StableStore store(std::make_unique<afs::BlockClient>(&net, a.port(), account,
                                                            a.payload_capacity()),
                         std::make_unique<afs::BlockClient>(&net, b.port(), account,
                                                            b.payload_capacity()),
                         1);
  std::vector<std::string> out;
  std::vector<afs::BlockNo> live;
  afs::Rng rng(seed);
  for (uint64_t i = 0; i < 200; ++i) {
    const uint64_t roll = rng.NextBelow(4);
    if (roll == 0 || live.empty()) {
      auto bno = store.AllocWrite(EncodePayload({9, 9, 9, i}, 1000));
      out.push_back("alloc " + (bno.ok() ? std::to_string(*bno) : std::string("error")));
      if (bno.ok()) {
        live.push_back(*bno);
      }
    } else if (roll == 1) {
      const afs::BlockNo bno = live[rng.NextBelow(live.size())];
      out.push_back("write " +
                    std::to_string(store.Write(bno, EncodePayload({9, 9, 8, i}, 900)).ok()));
    } else if (roll == 2) {
      auto data = store.Read(live[rng.NextBelow(live.size())]);
      out.push_back(data.ok() ? std::string(data->begin(), data->end()) : "read error");
    } else {
      const size_t k = rng.NextBelow(live.size());
      out.push_back("free " + std::to_string(store.Free(live[k]).ok()));
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(k));
    }
  }
  for (afs::MemDisk* disk : {&disk_a, &disk_b}) {
    std::vector<uint8_t> block(4096);
    for (afs::BlockNo bno = 0; bno < 256; ++bno) {
      EXPECT_TRUE(disk->Read(bno, block).ok());
      out.emplace_back(block.begin(), block.end());
    }
  }
  if (decorate) {
    EXPECT_GT(dev_a.writes(), 0u);
    EXPECT_EQ(dev_a.writes(), disk_a.writes());
  }
  return out;
}

TEST(CountingBlockDeviceTest, SameSequenceGivesIdenticalResultsAndDeviceImages) {
  EXPECT_EQ(BlockServerTranscript(/*decorate=*/true, 11),
            BlockServerTranscript(/*decorate=*/false, 11));
}

TEST(PayloadCheckTest, FlippedByteIsCaught) {
  afs::Network net(1);
  afs::InMemoryBlockStore inner;
  CountingBlockStore counted(&inner);
  afs::FileServerOptions options;
  options.cache_committed_pages = false;  // every read reaches the block store
  afs::FileServer fs(&net, "fs", &counted, options);
  fs.Start();
  ASSERT_TRUE(fs.AttachStore().ok());
  auto file = fs.CreateFile();
  auto v = fs.CreateVersion(*file, afs::kNullPort, false);
  ASSERT_TRUE(fs.InsertRef(*v, PagePath::Root(), 0).ok());
  ASSERT_TRUE(fs.WritePage(*v, PagePath({0}), EncodePayload({5, 0, 1, 42}, kPageBytes)).ok());
  ASSERT_TRUE(fs.Commit(*v).ok());

  auto read_stamp = [&](PageStamp* stamp, std::string* error) {
    auto current = fs.GetCurrentVersion(*file);
    auto read = fs.ReadPage(*current, PagePath({0}), false);
    EXPECT_TRUE(read.ok());
    return DecodePayload(read->data, 5, 0, stamp, error);
  };
  PageStamp stamp;
  std::string error;
  ASSERT_TRUE(read_stamp(&stamp, &error)) << error;
  EXPECT_EQ(stamp, (PageStamp{5, 0, 1, 42}));

  counted.ArmFlip(kPageBytes);
  EXPECT_FALSE(read_stamp(&stamp, &error));
  EXPECT_NE(error.find("CRC"), std::string::npos) << error;
  // One-shot: the stored page itself is intact.
  EXPECT_TRUE(read_stamp(&stamp, &error)) << error;
}

TEST(PayloadCheckTest, MisplacedPageIsCaught) {
  PageStamp stamp;
  std::string error;
  const std::vector<uint8_t> data = EncodePayload({3, 4, 1, 9}, 1024);
  EXPECT_TRUE(DecodePayload(data, 3, 4, &stamp, &error));
  EXPECT_FALSE(DecodePayload(data, 3, 5, &stamp, &error));
  EXPECT_NE(error.find("misplaced"), std::string::npos);
}

}  // namespace
}  // namespace perfbench
