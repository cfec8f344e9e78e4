// Block server tests (paper §4): allocate/read/write/free, account protection, the locking
// facility, the recovery operation, corruption detection, and destruction with a handler in
// flight.

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <thread>

#include "src/block/block_server.h"
#include "src/block/block_store.h"
#include "src/block/protocol.h"
#include "src/disk/mem_disk.h"

namespace afs {
namespace {

class BlockServerTest : public ::testing::Test {
 protected:
  BlockServerTest() : net_(3), disk_(kDefaultBlockSize, 256) {
    server_ = std::make_unique<BlockServer>(&net_, "bs", &disk_, 5);
    server_->Start();
    account_ = server_->CreateAccountDirect();
    client_ = std::make_unique<BlockClient>(&net_, server_->port(), account_,
                                            server_->payload_capacity());
  }

  std::vector<uint8_t> Payload(uint8_t fill, size_t n = 100) {
    return std::vector<uint8_t>(n, fill);
  }

  Network net_;
  MemDisk disk_;
  std::unique_ptr<BlockServer> server_;
  Capability account_;
  std::unique_ptr<BlockClient> client_;
};

TEST_F(BlockServerTest, AllocWriteReadRoundTrip) {
  auto bno = client_->AllocWrite(Payload(0xaa));
  ASSERT_TRUE(bno.ok());
  auto data = client_->Read(*bno);
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(*data, Payload(0xaa));
}

TEST_F(BlockServerTest, OverwriteInPlace) {
  auto bno = client_->AllocWrite(Payload(0x01));
  ASSERT_TRUE(bno.ok());
  ASSERT_TRUE(client_->Write(*bno, Payload(0x02, 50)).ok());
  EXPECT_EQ(*client_->Read(*bno), Payload(0x02, 50));
}

TEST_F(BlockServerTest, DistinctBlocksForDistinctAllocs) {
  auto a = client_->AllocWrite(Payload(1));
  auto b = client_->AllocWrite(Payload(2));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_NE(*a, *b);
}

TEST_F(BlockServerTest, FreeMakesBlockUnreadable) {
  auto bno = client_->AllocWrite(Payload(7));
  ASSERT_TRUE(bno.ok());
  ASSERT_TRUE(client_->Free(*bno).ok());
  EXPECT_FALSE(client_->Read(*bno).ok());
}

TEST_F(BlockServerTest, FreedBlockIsReused) {
  std::vector<BlockNo> first;
  for (int i = 0; i < 250; ++i) {
    auto bno = client_->AllocWrite(Payload(1));
    ASSERT_TRUE(bno.ok());
    first.push_back(*bno);
  }
  for (BlockNo bno : first) {
    ASSERT_TRUE(client_->Free(bno).ok());
  }
  // The disk has 256 blocks; a second sweep must reuse freed ones.
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(client_->AllocWrite(Payload(2)).ok());
  }
}

TEST_F(BlockServerTest, DiskFullReported) {
  for (;;) {
    auto bno = client_->AllocWrite(Payload(1));
    if (!bno.ok()) {
      EXPECT_EQ(bno.status().code(), ErrorCode::kNoSpace);
      break;
    }
  }
}

TEST_F(BlockServerTest, ProtectionAgainstOtherAccounts) {
  // "a block, allocated by user A cannot be accessed by user B without A's permission."
  auto bno = client_->AllocWrite(Payload(9));
  ASSERT_TRUE(bno.ok());
  Capability intruder = server_->CreateAccountDirect();
  BlockClient other(&net_, server_->port(), intruder, server_->payload_capacity());
  EXPECT_EQ(other.Read(*bno).status().code(), ErrorCode::kBadCapability);
  EXPECT_EQ(other.Write(*bno, Payload(1)).code(), ErrorCode::kBadCapability);
}

TEST_F(BlockServerTest, ForgedAccountRejected) {
  Capability forged = account_;
  forged.check ^= 0x1;
  BlockClient bad(&net_, server_->port(), forged, server_->payload_capacity());
  EXPECT_EQ(bad.AllocWrite(Payload(1)).status().code(), ErrorCode::kBadCapability);
}

TEST_F(BlockServerTest, OversizedPayloadRejected) {
  std::vector<uint8_t> big(server_->payload_capacity() + 1, 0);
  EXPECT_FALSE(client_->AllocWrite(big).ok());
}

TEST_F(BlockServerTest, MaxPayloadAccepted) {
  std::vector<uint8_t> max(server_->payload_capacity(), 0x5a);
  auto bno = client_->AllocWrite(max);
  ASSERT_TRUE(bno.ok());
  EXPECT_EQ(client_->Read(*bno)->size(), max.size());
}

TEST_F(BlockServerTest, RecoverListsOwnedBlocks) {
  // "Block servers can support a recovery operation, which given an account number,
  // returns a list of block numbers owned by that account."
  std::set<BlockNo> mine;
  for (int i = 0; i < 5; ++i) {
    auto bno = client_->AllocWrite(Payload(static_cast<uint8_t>(i)));
    ASSERT_TRUE(bno.ok());
    mine.insert(*bno);
  }
  auto listed = client_->ListBlocks();
  ASSERT_TRUE(listed.ok());
  EXPECT_EQ(std::set<BlockNo>(listed->begin(), listed->end()), mine);
}

TEST_F(BlockServerTest, LockExcludesOtherOwners) {
  auto bno = client_->AllocWrite(Payload(1));
  ASSERT_TRUE(bno.ok());
  Port owner1 = net_.AllocatePort();
  Port owner2 = net_.AllocatePort();
  ASSERT_TRUE(client_->Lock(*bno, owner1).ok());
  EXPECT_EQ(client_->Lock(*bno, owner2).code(), ErrorCode::kLocked);
  ASSERT_TRUE(client_->Unlock(*bno, owner1).ok());
  EXPECT_TRUE(client_->Lock(*bno, owner2).ok());
}

TEST_F(BlockServerTest, LockIsReentrantForSameOwner) {
  auto bno = client_->AllocWrite(Payload(1));
  Port owner = net_.AllocatePort();
  ASSERT_TRUE(client_->Lock(*bno, owner).ok());
  EXPECT_TRUE(client_->Lock(*bno, owner).ok());
}

TEST_F(BlockServerTest, DeadOwnersLockIsStolen) {
  // Locks are made of ports (§5.3): a lock whose holder's port died is stealable.
  auto bno = client_->AllocWrite(Payload(1));
  Port dead = net_.AllocatePort();
  ASSERT_TRUE(client_->Lock(*bno, dead).ok());
  net_.ClosePort(dead);
  Port live = net_.AllocatePort();
  EXPECT_TRUE(client_->Lock(*bno, live).ok());
}

TEST_F(BlockServerTest, UnlockByNonHolderRejected) {
  auto bno = client_->AllocWrite(Payload(1));
  Port owner = net_.AllocatePort();
  Port other = net_.AllocatePort();
  ASSERT_TRUE(client_->Lock(*bno, owner).ok());
  EXPECT_FALSE(client_->Unlock(*bno, other).ok());
}

TEST_F(BlockServerTest, RestartRebuildsAllocationFromDisk) {
  auto a = client_->AllocWrite(Payload(0x61));
  auto b = client_->AllocWrite(Payload(0x62));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  server_->Crash();
  server_->Restart();
  // Data survives, ownership survives, and new allocations avoid live blocks.
  EXPECT_EQ(*client_->Read(*a), Payload(0x61));
  auto fresh = client_->AllocWrite(Payload(0x63));
  ASSERT_TRUE(fresh.ok());
  EXPECT_NE(*fresh, *a);
  EXPECT_NE(*fresh, *b);
}

// Destroying a server waits for a handler still in flight. After its disk write returns,
// the write handler updates the server's block table, so it must finish before the
// server's own members are destroyed (under ASan a late handler is a use-after-free).
TEST(BlockServerLifetimeTest, DestroyJoinsHandlerInFlight) {
  Network net(4);
  MemDisk disk(kDefaultBlockSize, 64);
  auto server = std::make_unique<BlockServer>(&net, "bs", &disk, 5);
  server->Start();
  Capability account = server->CreateAccountDirect();
  BlockClient client(&net, server->port(), account, server->payload_capacity());
  auto bno = client.AllocWrite(std::vector<uint8_t>(100, 1));
  ASSERT_TRUE(bno.ok());
  const uint64_t writes_before = disk.writes();

  disk.latency().set_sleep(std::chrono::milliseconds(200));
  obs::Gauge* depth = server->metrics()->gauge("rpc.queue_depth");
  std::thread caller([&] { (void)client.Write(*bno, std::vector<uint8_t>(100, 2)); });
  // The queue held the call and is empty again: a worker has taken it.
  while (depth->max() < 1 || depth->value() != 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));  // into the disk's sleep
  server.reset();
  EXPECT_EQ(disk.writes(), writes_before + 1) << "destroyed before the handler finished";
  caller.join();
}

}  // namespace
}  // namespace afs
