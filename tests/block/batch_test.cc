// Vectored block I/O tests: multi-block RPC round trips, chunking under the 32K message
// limit, the oversized-payload guard, per-chunk atomicity when a server crashes mid-batch,
// and stable-pair consistency for pipelined batched replication.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/block/block_server.h"
#include "src/block/block_store.h"
#include "src/block/protocol.h"
#include "src/disk/mem_disk.h"
#include "src/rpc/message.h"

namespace afs {
namespace {

class BatchIoTest : public ::testing::Test {
 protected:
  BatchIoTest() : net_(21), disk_(kDefaultBlockSize, 256) {
    server_ = std::make_unique<BlockServer>(&net_, "bs", &disk_, 5);
    server_->Start();
    account_ = server_->CreateAccountDirect();
    client_ = std::make_unique<BlockClient>(&net_, server_->port(), account_,
                                            server_->payload_capacity());
  }

  std::vector<uint8_t> Payload(uint8_t fill, size_t n = 4000) {
    return std::vector<uint8_t>(n, fill);
  }

  // Allocates `n` blocks with distinct payloads and returns their numbers.
  std::vector<BlockNo> AllocBlocks(size_t n, size_t payload_len = 4000) {
    std::vector<BlockNo> bnos;
    for (size_t i = 0; i < n; ++i) {
      auto bno = client_->AllocWrite(Payload(static_cast<uint8_t>(i), payload_len));
      EXPECT_TRUE(bno.ok());
      bnos.push_back(*bno);
    }
    return bnos;
  }

  Network net_;
  MemDisk disk_;
  std::unique_ptr<BlockServer> server_;
  Capability account_;
  std::unique_ptr<BlockClient> client_;
};

TEST_F(BatchIoTest, ReadMultiRoundTrip) {
  std::vector<BlockNo> bnos = AllocBlocks(20);
  uint64_t calls_before = net_.total_calls();
  auto results = client_->ReadMulti(bnos);
  ASSERT_TRUE(results.ok());
  ASSERT_EQ(results->size(), bnos.size());
  for (size_t i = 0; i < bnos.size(); ++i) {
    ASSERT_TRUE((*results)[i].status.ok()) << i;
    EXPECT_EQ((*results)[i].data, Payload(static_cast<uint8_t>(i)));
  }
  // 20 blocks of ~4K payload cannot fit one 32K reply, but must take far fewer than 20
  // round trips (8 entries per reply -> 3 chunks).
  uint64_t calls = net_.total_calls() - calls_before;
  EXPECT_GT(calls, 1u);
  EXPECT_LE(calls, 4u);
}

TEST_F(BatchIoTest, ReadMultiReportsPerBlockErrors) {
  std::vector<BlockNo> bnos = AllocBlocks(3, 64);
  ASSERT_TRUE(client_->Free(bnos[1]).ok());
  auto results = client_->ReadMulti(bnos);
  ASSERT_TRUE(results.ok());
  EXPECT_TRUE((*results)[0].status.ok());
  EXPECT_FALSE((*results)[1].status.ok());
  EXPECT_TRUE((*results)[2].status.ok());
}

TEST_F(BatchIoTest, WriteBatchChunksUnderMessageLimit) {
  std::vector<BlockNo> bnos = AllocBlocks(20);
  std::vector<BlockWrite> writes;
  for (size_t i = 0; i < bnos.size(); ++i) {
    writes.push_back({bnos[i], Payload(static_cast<uint8_t>(0x80 + i))});
  }
  uint64_t calls_before = net_.total_calls();
  ASSERT_TRUE(client_->WriteBatch(writes).ok());
  // ~80K of writes: more than one message, far fewer than one per block.
  uint64_t calls = net_.total_calls() - calls_before;
  EXPECT_GT(calls, 1u);
  EXPECT_LE(calls, 4u);
  for (size_t i = 0; i < bnos.size(); ++i) {
    EXPECT_EQ(*client_->Read(bnos[i]), Payload(static_cast<uint8_t>(0x80 + i)));
  }
}

TEST_F(BatchIoTest, OversizedSingleWriteFailsCleanly) {
  // A client stub configured for a (hypothetical) huge block size: one payload that cannot
  // fit any transaction message must fail with kInvalidArgument before anything is sent.
  BlockClient big_client(&net_, server_->port(), account_, 64 * 1024);
  auto bnos = AllocBlocks(1, 64);
  std::vector<BlockWrite> writes;
  writes.push_back({bnos[0], std::vector<uint8_t>(kMaxMessageBytes + 10, 1)});
  uint64_t calls_before = net_.total_calls();
  Status st = big_client.WriteBatch(writes);
  EXPECT_EQ(st.code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(net_.total_calls(), calls_before);
  // The original small payload is untouched.
  EXPECT_EQ(*client_->Read(bnos[0]), Payload(0, 64));
}

TEST_F(BatchIoTest, FreeMultiAndAllocMultiRoundTrip) {
  auto fresh = client_->AllocMulti(10);
  ASSERT_TRUE(fresh.ok());
  ASSERT_EQ(fresh->size(), 10u);
  std::vector<BlockWrite> writes;
  for (size_t i = 0; i < fresh->size(); ++i) {
    writes.push_back({(*fresh)[i], Payload(static_cast<uint8_t>(i), 100)});
  }
  ASSERT_TRUE(client_->WriteBatch(writes).ok());
  for (size_t i = 0; i < fresh->size(); ++i) {
    EXPECT_EQ(*client_->Read((*fresh)[i]), Payload(static_cast<uint8_t>(i), 100));
  }
  ASSERT_TRUE(client_->FreeMulti(*fresh).ok());
  for (BlockNo bno : *fresh) {
    EXPECT_FALSE(client_->Read(bno).ok());
  }
  // FreeMulti is idempotent, like Free.
  EXPECT_TRUE(client_->FreeMulti(*fresh).ok());
}

TEST_F(BatchIoTest, CrashMidBatchKeepsAckedChunksOnly) {
  // 20 writes of ~4K chunk into [8, 8, 4]. Crash the server after the first chunk is
  // acked: per-chunk atomicity requires exactly the acked chunk's blocks to carry the new
  // data — durable across restart — and every later block to keep its old contents.
  std::vector<BlockNo> bnos = AllocBlocks(20);
  std::vector<BlockWrite> writes;
  for (size_t i = 0; i < bnos.size(); ++i) {
    writes.push_back({bnos[i], Payload(static_cast<uint8_t>(0xc0 + i))});
  }
  client_->set_between_chunks_hook_for_test([this](size_t completed_chunks) {
    if (completed_chunks == 1) {
      server_->Crash();
    }
  });
  Status st = client_->WriteBatch(writes);
  EXPECT_FALSE(st.ok());
  client_->set_between_chunks_hook_for_test(nullptr);

  server_->Restart();  // rebuilds the allocation map from disk before serving

  auto results = client_->ReadMulti(bnos);
  ASSERT_TRUE(results.ok());
  // First chunk: 8 entries of 8+4000 bytes each fit the 32K request budget.
  constexpr size_t kFirstChunk = 8;
  for (size_t i = 0; i < bnos.size(); ++i) {
    ASSERT_TRUE((*results)[i].status.ok()) << i;
    if (i < kFirstChunk) {
      EXPECT_EQ((*results)[i].data, Payload(static_cast<uint8_t>(0xc0 + i))) << i;
    } else {
      EXPECT_EQ((*results)[i].data, Payload(static_cast<uint8_t>(i))) << i;
    }
  }
}

// ---------------------------------------------------------------------------
// Stable pair + batches
// ---------------------------------------------------------------------------

class BatchPairTest : public ::testing::Test {
 protected:
  BatchPairTest()
      : net_(22), disk_a_(kDefaultBlockSize, 256), disk_b_(kDefaultBlockSize, 256) {
    a_ = std::make_unique<BlockServer>(&net_, "A", &disk_a_, 77);
    b_ = std::make_unique<BlockServer>(&net_, "B", &disk_b_, 77);
    a_->Start();
    b_->Start();
    a_->SetCompanion(b_->port());
    b_->SetCompanion(a_->port());
    account_ = a_->CreateAccountDirect();
    store_ = std::make_unique<StableStore>(MakeClient(a_.get()), MakeClient(b_.get()), 5);
  }

  std::unique_ptr<BlockClient> MakeClient(BlockServer* server) {
    return std::make_unique<BlockClient>(&net_, server->port(), account_,
                                         server->payload_capacity());
  }

  std::vector<uint8_t> Payload(uint8_t fill, size_t n = 4000) {
    return std::vector<uint8_t>(n, fill);
  }

  Network net_;
  MemDisk disk_a_;
  MemDisk disk_b_;
  std::unique_ptr<BlockServer> a_;
  std::unique_ptr<BlockServer> b_;
  Capability account_;
  std::unique_ptr<StableStore> store_;
};

TEST_F(BatchPairTest, BatchedWritesLandOnBothDisks) {
  // A multi-chunk batch through the pipelined replication path must leave every block
  // readable from BOTH members — replication must not lag the ack.
  auto fresh = store_->AllocMulti(16);
  ASSERT_TRUE(fresh.ok());
  std::vector<BlockWrite> writes;
  for (size_t i = 0; i < fresh->size(); ++i) {
    writes.push_back({(*fresh)[i], Payload(static_cast<uint8_t>(i))});
  }
  ASSERT_TRUE(store_->WriteBatch(writes).ok());
  BlockClient direct_a(&net_, a_->port(), account_, a_->payload_capacity());
  BlockClient direct_b(&net_, b_->port(), account_, b_->payload_capacity());
  for (size_t i = 0; i < fresh->size(); ++i) {
    EXPECT_EQ(*direct_a.Read((*fresh)[i]), Payload(static_cast<uint8_t>(i))) << i;
    EXPECT_EQ(*direct_b.Read((*fresh)[i]), Payload(static_cast<uint8_t>(i))) << i;
  }
}

TEST_F(BatchPairTest, CompanionDownDegradesBatchAndRecordsIntentions) {
  auto fresh = store_->AllocMulti(12);
  ASSERT_TRUE(fresh.ok());
  b_->Crash();
  std::vector<BlockWrite> writes;
  for (size_t i = 0; i < fresh->size(); ++i) {
    writes.push_back({(*fresh)[i], Payload(static_cast<uint8_t>(0x50 + i))});
  }
  // The batch still succeeds, written locally at A with intentions recorded.
  ASSERT_TRUE(store_->WriteBatch(writes).ok());
  EXPECT_GT(a_->degraded_writes(), 0u);

  // When B returns it compares notes with A and replays the missed writes.
  b_->Restart();
  BlockClient direct_b(&net_, b_->port(), account_, b_->payload_capacity());
  for (size_t i = 0; i < fresh->size(); ++i) {
    EXPECT_EQ(*direct_b.Read((*fresh)[i]), Payload(static_cast<uint8_t>(0x50 + i))) << i;
  }
}

TEST_F(BatchPairTest, PartitionHealedMidBatchRepairedByCompareNotes) {
  // Partition the COMPANION between chunks of a kWriteMulti, heal it one chunk later, and
  // verify compare-notes recovery repairs exactly the chunk it missed. Chunks are [8, 8, 4]:
  // chunk 1 lands on both members, chunk 2 is written degraded at A (B partitioned, one
  // intention per block), chunk 3 lands on both again after the heal.
  auto fresh = store_->AllocMulti(20);
  ASSERT_TRUE(fresh.ok());
  std::vector<BlockWrite> writes;
  for (size_t i = 0; i < fresh->size(); ++i) {
    writes.push_back({(*fresh)[i], Payload(static_cast<uint8_t>(0x60 + i))});
  }
  const uint64_t degraded_before = a_->degraded_writes();
  auto direct_a = MakeClient(a_.get());
  direct_a->set_between_chunks_hook_for_test([this](size_t completed_chunks) {
    if (completed_chunks == 1) {
      net_.SetPartitioned(b_->port(), true);
    } else if (completed_chunks == 2) {
      net_.SetPartitioned(b_->port(), false);
    }
  });
  // The batch as a whole succeeds: A degrades to single-member operation for chunk 2.
  ASSERT_TRUE(direct_a->WriteBatch(writes).ok());
  direct_a->set_between_chunks_hook_for_test(nullptr);

  // Exactly the missed chunk (blocks 8..15) was written degraded.
  constexpr size_t kChunk = 8;
  EXPECT_EQ(a_->degraded_writes() - degraded_before, kChunk);

  // Before recovery, B is stale for precisely that chunk.
  BlockClient check_b(&net_, b_->port(), account_, b_->payload_capacity());
  for (size_t i = kChunk; i < 2 * kChunk; ++i) {
    EXPECT_NE(*check_b.Read((*fresh)[i]), Payload(static_cast<uint8_t>(0x60 + i))) << i;
  }

  // Heal is complete once B compares notes with A: the replayed intentions cover the
  // missed chunk and nothing else needs to change.
  b_->Crash();
  b_->Restart();
  for (size_t i = 0; i < fresh->size(); ++i) {
    EXPECT_EQ(*check_b.Read((*fresh)[i]), Payload(static_cast<uint8_t>(0x60 + i))) << i;
  }
}

TEST_F(BatchPairTest, PrimaryCrashMidBatchLeavesPairConsistent) {
  // Write the batch directly to member A (plain BlockClient, no fail-over) and crash A
  // between chunks. Companion-first order means every acked chunk is on BOTH disks; the
  // unacked chunks must be on NEITHER. After A compares notes on restart the pair must
  // agree block for block.
  auto fresh = store_->AllocMulti(20);
  ASSERT_TRUE(fresh.ok());
  std::vector<BlockWrite> writes;
  for (size_t i = 0; i < fresh->size(); ++i) {
    writes.push_back({(*fresh)[i], Payload(static_cast<uint8_t>(0xa0 + i))});
  }
  auto direct_a = MakeClient(a_.get());
  direct_a->set_between_chunks_hook_for_test([this](size_t completed_chunks) {
    if (completed_chunks == 1) {
      a_->Crash();
    }
  });
  Status st = direct_a->WriteBatch(writes);
  EXPECT_FALSE(st.ok());
  direct_a->set_between_chunks_hook_for_test(nullptr);

  a_->Restart();  // compare notes with B before serving

  BlockClient check_a(&net_, a_->port(), account_, a_->payload_capacity());
  BlockClient check_b(&net_, b_->port(), account_, b_->payload_capacity());
  constexpr size_t kFirstChunk = 8;
  for (size_t i = 0; i < fresh->size(); ++i) {
    auto from_a = check_a.Read((*fresh)[i]);
    auto from_b = check_b.Read((*fresh)[i]);
    ASSERT_TRUE(from_a.ok()) << i;
    ASSERT_TRUE(from_b.ok()) << i;
    EXPECT_EQ(*from_a, *from_b) << "pair diverged at block " << i;
    if (i < kFirstChunk) {
      EXPECT_EQ(*from_a, Payload(static_cast<uint8_t>(0xa0 + i))) << i;
    }
  }
}

// ---------------------------------------------------------------------------
// InMemoryBlockStore sharding
// ---------------------------------------------------------------------------

TEST(InMemoryBatchTest, ShardCountRoundsUpToPowerOfTwo) {
  InMemoryBlockStore store(4068, 1024, 3);
  EXPECT_EQ(store.num_shards(), 4u);
}

TEST(InMemoryBatchTest, BatchOpsRoundTrip) {
  InMemoryBlockStore store(4068, 1024, 8);
  auto fresh = store.AllocMulti(50);
  ASSERT_TRUE(fresh.ok());
  std::vector<BlockWrite> writes;
  for (size_t i = 0; i < fresh->size(); ++i) {
    writes.push_back({(*fresh)[i], std::vector<uint8_t>(32, static_cast<uint8_t>(i))});
  }
  ASSERT_TRUE(store.WriteBatch(writes).ok());
  auto results = store.ReadMulti(*fresh);
  ASSERT_TRUE(results.ok());
  for (size_t i = 0; i < fresh->size(); ++i) {
    ASSERT_TRUE((*results)[i].status.ok()) << i;
    EXPECT_EQ((*results)[i].data, std::vector<uint8_t>(32, static_cast<uint8_t>(i)));
  }
  ASSERT_TRUE(store.FreeMulti(*fresh).ok());
  EXPECT_EQ(store.allocated_blocks(), 0u);
}

}  // namespace
}  // namespace afs
