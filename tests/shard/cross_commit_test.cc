// Cross-shard transactions: the optimistic two-phase variant of the §5.2 commit
// (docs/SHARDING.md). Covers routing/placement, the single-participant fast path, atomic
// two-shard commit and abort, in-doubt invisibility, presumed-abort recovery after both
// coordinator and participant crashes, GC protection of staged tips, and the I8 fsck
// invariant on in-doubt markers.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/client/file_client.h"
#include "src/core/fsck.h"
#include "src/core/gc.h"
#include "src/shard/router.h"
#include "src/shard/shard_fsck.h"
#include "src/shard/txn_id.h"
#include "tests/testing/shard_cluster.h"

namespace afs {
namespace {

// Commits `text` to `file` through the ordinary single-shard path.
Status CommitText(ShardCluster& cluster, const Capability& file, const std::string& text) {
  auto client = cluster.router().ClientForFile(file);
  RETURN_IF_ERROR(client.status());
  ASSIGN_OR_RETURN(Capability v, (*client)->CreateVersion(file));
  RETURN_IF_ERROR((*client)->WriteString(v, PagePath::Root(), text));
  return (*client)->Commit(v).status();
}

Result<std::string> ReadText(ShardCluster& cluster, const Capability& file) {
  auto client = cluster.router().ClientForFile(file);
  RETURN_IF_ERROR(client.status());
  ASSIGN_OR_RETURN(Capability current, (*client)->GetCurrentVersion(file));
  return (*client)->ReadString(current, PagePath::Root());
}

uint64_t Count(FileServer& fs, const char* name) {
  return fs.metrics()->counter(name)->value();
}

TEST(ShardRouterTest, PlacementFollowsTheCongruence) {
  ShardCluster cluster(3);
  for (uint32_t k = 0; k < 3; ++k) {
    auto file = cluster.router().CreateFileOn(k);
    ASSERT_TRUE(file.ok()) << file.status();
    // The shard is computable from the capability alone — no lookup, no extra state.
    EXPECT_EQ(file->object % 3, k);
    EXPECT_EQ(cluster.router().ShardOf(*file), k);
  }
  // Round-robin placement touches every shard.
  std::vector<int> hits(3, 0);
  for (int i = 0; i < 6; ++i) {
    auto file = cluster.router().CreateFile();
    ASSERT_TRUE(file.ok());
    ++hits[cluster.router().ShardOf(*file)];
  }
  EXPECT_EQ(hits, (std::vector<int>{2, 2, 2}));
}

TEST(ShardRouterTest, ReloadDemandsAdvancingEpoch) {
  ShardCluster cluster(2);
  ShardMap stale = cluster.router().map();
  EXPECT_FALSE(cluster.router().Reload(stale).ok());  // same epoch → rejected
  ShardMap fresh = cluster.router().map();
  fresh.epoch += 1;
  EXPECT_TRUE(cluster.router().Reload(fresh).ok());
  EXPECT_EQ(cluster.router().map().epoch, stale.epoch + 1);
}

TEST(CrossCommitTest, SingleParticipantTakesTheFastPath) {
  ShardCluster cluster(2);
  auto file = cluster.router().CreateFileOn(1);
  ASSERT_TRUE(file.ok());

  CrossTransaction xt(&cluster.router());
  auto v = xt.CreateVersion(*file);
  ASSERT_TRUE(v.ok()) << v.status();
  auto client = xt.Client(*file);
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE((*client)->WriteString(*v, PagePath::Root(), "solo").ok());
  auto heads = xt.Commit();
  ASSERT_TRUE(heads.ok()) << heads.status();
  EXPECT_EQ(heads->size(), 1u);
  EXPECT_EQ(*ReadText(cluster, *file), "solo");

  // No coordination happened: the commit was the plain §5.2 path, byte for byte.
  EXPECT_EQ(Count(cluster.fs(0), "shard.prepare"), 0u);
  EXPECT_EQ(Count(cluster.fs(1), "shard.prepare"), 0u);
  EXPECT_EQ(Count(cluster.fs(0), "shard.cross_commit"), 0u);
}

TEST(CrossCommitTest, TwoShardsCommitAtomically) {
  ShardCluster cluster(2);
  auto a = cluster.router().CreateFileOn(0);
  auto b = cluster.router().CreateFileOn(1);
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_TRUE(CommitText(cluster, *a, "0").ok());
  ASSERT_TRUE(CommitText(cluster, *b, "0").ok());

  CrossTransaction xt(&cluster.router());
  auto va = xt.CreateVersion(*a);
  auto vb = xt.CreateVersion(*b);
  ASSERT_TRUE(va.ok() && vb.ok());
  ASSERT_TRUE((*xt.Client(*a))->WriteString(*va, PagePath::Root(), "1").ok());
  ASSERT_TRUE((*xt.Client(*b))->WriteString(*vb, PagePath::Root(), "1").ok());
  auto heads = xt.Commit();
  ASSERT_TRUE(heads.ok()) << heads.status();
  EXPECT_EQ(heads->size(), 2u);

  EXPECT_EQ(*ReadText(cluster, *a), "1");
  EXPECT_EQ(*ReadText(cluster, *b), "1");

  // Both participants prepared and committed; the decision went through the coordinator.
  EXPECT_EQ(Count(cluster.fs(0), "shard.prepare"), 1u);
  EXPECT_EQ(Count(cluster.fs(1), "shard.prepare"), 1u);
  EXPECT_EQ(Count(cluster.fs(0), "shard.decide_commit"), 1u);
  EXPECT_EQ(Count(cluster.fs(1), "shard.decide_commit"), 1u);
  EXPECT_EQ(Count(cluster.fs(0), "shard.cross_commit"), 1u);

  // Nothing left in doubt; every shard passes fsck with the strict in-doubt gate.
  for (FileServer* fs : cluster.Servers()) {
    EXPECT_TRUE(fs->ListInDoubt().empty());
    EXPECT_TRUE(RunFsck(fs, {.fail_on_in_doubt = true}).clean);
  }
}

TEST(CrossCommitTest, ConflictOnOneShardAbortsEveryShard) {
  ShardCluster cluster(2);
  auto a = cluster.router().CreateFileOn(0);
  auto b = cluster.router().CreateFileOn(1);
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_TRUE(CommitText(cluster, *a, "0").ok());
  ASSERT_TRUE(CommitText(cluster, *b, "0").ok());

  CrossTransaction xt(&cluster.router());
  auto va = xt.CreateVersion(*a);
  auto vb = xt.CreateVersion(*b);
  ASSERT_TRUE(va.ok() && vb.ok());
  // Read before writing: blind writes merge under §5.2 validation, a read-write conflict
  // does not — and the competing commit below must invalidate this read.
  ASSERT_TRUE((*xt.Client(*a))->ReadString(*va, PagePath::Root()).ok());
  ASSERT_TRUE((*xt.Client(*b))->ReadString(*vb, PagePath::Root()).ok());
  ASSERT_TRUE((*xt.Client(*a))->WriteString(*va, PagePath::Root(), "torn").ok());
  ASSERT_TRUE((*xt.Client(*b))->WriteString(*vb, PagePath::Root(), "torn").ok());

  // A competing single-shard commit lands on B first. The cross transaction prepares A
  // (participant order), then fails validation on B — and must abort A too.
  ASSERT_TRUE(CommitText(cluster, *b, "winner").ok());
  auto heads = xt.Commit();
  ASSERT_FALSE(heads.ok());
  EXPECT_EQ(heads.status().code(), ErrorCode::kConflict) << heads.status();

  // All-or-nothing: A is untouched even though its own validation had succeeded.
  EXPECT_EQ(*ReadText(cluster, *a), "0");
  EXPECT_EQ(*ReadText(cluster, *b), "winner");
  EXPECT_EQ(Count(cluster.fs(0), "shard.decide_abort"), 1u);
  EXPECT_EQ(Count(cluster.fs(0), "shard.cross_abort"), 1u);
  EXPECT_EQ(Count(cluster.fs(0), "shard.cross_prepare_fail"), 1u);

  // The abort released A's chain: a fresh single-shard commit goes straight through.
  ASSERT_TRUE(CommitText(cluster, *a, "after").ok());
  EXPECT_EQ(*ReadText(cluster, *a), "after");
  for (FileServer* fs : cluster.Servers()) {
    EXPECT_TRUE(fs->ListInDoubt().empty());
    // Both the conflicting prepare and the decided-abort prepare left nothing behind.
    EXPECT_TRUE(fs->ListUncommitted().empty());
    EXPECT_TRUE(RunFsck(fs, {.fail_on_in_doubt = true}).clean);
  }
}

TEST(CrossCommitTest, PrepareRevalidatesAfterLostFlip) {
  // A second FileServer on shard 0's store commits page 1 behind the first server's back,
  // so the first server's index still names the old tip and the prepare's first flip
  // loses. The prepare must validate against the foreign commit, merge it, and re-flip.
  const std::vector<uint8_t> zero{'0'};
  const std::vector<uint8_t> staged_byte{'s'};
  const std::vector<uint8_t> plain_byte{'p'};
  ShardCluster cluster(1);
  FileServer& fs = cluster.fs(0);
  FileServer other(&cluster.net(), "fs-shard0-peer", &cluster.store(0), fs.options());
  other.Start();
  ASSERT_TRUE(other.AttachStore().ok());

  auto file = fs.CreateFile();
  ASSERT_TRUE(file.ok());
  auto init = fs.CreateVersion(*file, kNullPort, false);
  ASSERT_TRUE(init.ok());
  for (uint32_t i = 0; i < 2; ++i) {
    ASSERT_TRUE(fs.InsertRef(*init, PagePath::Root(), i).ok());
    ASSERT_TRUE(fs.WritePage(*init, PagePath({i}), zero).ok());
  }
  ASSERT_TRUE(fs.Commit(*init).ok());

  auto staged = fs.CreateVersion(*file, kNullPort, false);
  ASSERT_TRUE(staged.ok());
  ASSERT_TRUE(fs.WritePage(*staged, PagePath({0}), staged_byte).ok());
  auto plain = other.CreateVersion(*file, kNullPort, false);
  ASSERT_TRUE(plain.ok());
  ASSERT_TRUE(other.WritePage(*plain, PagePath({1}), plain_byte).ok());
  ASSERT_TRUE(other.Commit(*plain).ok());

  ASSERT_TRUE(fs.Prepare(*staged, /*txn_id=*/61).ok());
  EXPECT_EQ(Count(fs, "commit.group_fallback"), 1u);
  EXPECT_EQ(Count(fs, "shard.prepare_conflict"), 0u);
  ASSERT_TRUE(fs.Decide(61, /*commit=*/true).ok());

  auto current = fs.GetCurrentVersion(*file);
  ASSERT_TRUE(current.ok());
  auto page0 = fs.ReadPage(*current, PagePath({0}), false);
  auto page1 = fs.ReadPage(*current, PagePath({1}), false);
  ASSERT_TRUE(page0.ok() && page1.ok());
  EXPECT_EQ(page0->data, staged_byte);
  EXPECT_EQ(page1->data, plain_byte);
  EXPECT_TRUE(RunFsck(&fs, {.fail_on_in_doubt = true}).clean);
}

TEST(CrossCommitTest, InDoubtTipIsInvisibleUntilDecided) {
  ShardCluster cluster(2);
  auto b = cluster.router().CreateFileOn(1);
  ASSERT_TRUE(b.ok());
  ASSERT_TRUE(CommitText(cluster, *b, "0").ok());
  auto client = cluster.router().ClientForFile(*b);
  ASSERT_TRUE(client.ok());

  auto v = (*client)->CreateVersion(*b);
  ASSERT_TRUE(v.ok());
  ASSERT_TRUE((*client)->WriteString(*v, PagePath::Root(), "staged").ok());
  ASSERT_TRUE(cluster.fs(1).Prepare(*v, /*txn_id=*/77).ok());

  // Readers see the base version; the staged tip never looks committed.
  EXPECT_EQ(*ReadText(cluster, *b), "0");

  // A concurrent commit on the same file hits the marked successor and conflicts.
  EXPECT_EQ(CommitText(cluster, *b, "intruder").code(), ErrorCode::kConflict);

  // fsck: one in-doubt tip, tolerated by default, an error under the strict gate.
  FsckReport relaxed = RunFsck(&cluster.fs(1));
  EXPECT_TRUE(relaxed.clean) << relaxed.ToString();
  EXPECT_EQ(relaxed.in_doubt, 1u);
  EXPECT_FALSE(RunFsck(&cluster.fs(1), {.fail_on_in_doubt = true}).clean);

  // Abort restores the chain; the previously conflicting commit now succeeds.
  ASSERT_TRUE(cluster.fs(1).Decide(77, /*commit=*/false).ok());
  EXPECT_EQ(*ReadText(cluster, *b), "0");
  ASSERT_TRUE(CommitText(cluster, *b, "intruder").ok());
  EXPECT_EQ(*ReadText(cluster, *b), "intruder");

  // And the commit arm: a decided-commit tip becomes the current version.
  auto v2 = (*client)->CreateVersion(*b);
  ASSERT_TRUE(v2.ok());
  ASSERT_TRUE((*client)->WriteString(*v2, PagePath::Root(), "flipped").ok());
  ASSERT_TRUE(cluster.fs(1).Prepare(*v2, /*txn_id=*/78).ok());
  ASSERT_TRUE(cluster.fs(1).Decide(78, /*commit=*/true).ok());
  EXPECT_EQ(*ReadText(cluster, *b), "flipped");
  EXPECT_TRUE(RunFsck(&cluster.fs(1), {.fail_on_in_doubt = true}).clean);
}

TEST(CrossCommitTest, ParticipantRestartRediscoversInDoubtTips) {
  ShardCluster cluster(2);
  auto b = cluster.router().CreateFileOn(1);
  ASSERT_TRUE(b.ok());
  ASSERT_TRUE(CommitText(cluster, *b, "0").ok());
  auto client = cluster.router().ClientForFile(*b);
  ASSERT_TRUE(client.ok());

  auto v = (*client)->CreateVersion(*b);
  ASSERT_TRUE(v.ok());
  ASSERT_TRUE((*client)->WriteString(*v, PagePath::Root(), "doomed").ok());
  ASSERT_TRUE(cluster.fs(1).Prepare(*v, /*txn_id=*/99).ok());

  // The participant dies between prepare and decide. Its in-memory prepared table is
  // gone; the on-disk marker is the only record — and recovery must find it.
  cluster.RestartShard(1);
  auto in_doubt = cluster.fs(1).ListInDoubt();
  ASSERT_EQ(in_doubt.size(), 1u);
  EXPECT_EQ(in_doubt[0].txn_id, 99u);

  // The sharded fsck classifies it against the decision log: unlogged → will abort.
  auto servers = cluster.Servers();
  ShardFsckReport report = RunShardFsck(servers, &cluster.log());
  EXPECT_TRUE(report.clean) << report.ToString();
  EXPECT_EQ(report.in_doubt, 1u);
  ASSERT_EQ(report.notes.size(), 1u);
  EXPECT_NE(report.notes[0].find("will abort"), std::string::npos) << report.notes[0];

  auto resolved = ResolveInDoubt(servers, cluster.log());
  ASSERT_TRUE(resolved.ok()) << resolved.status();
  EXPECT_EQ(resolved->aborted, 1u);
  EXPECT_EQ(resolved->committed, 0u);
  EXPECT_EQ(*ReadText(cluster, *b), "0");

  // Commit arm: the decision log holds a record, so the same crash resolves forward.
  auto v2 = (*client)->CreateVersion(*b);
  ASSERT_TRUE(v2.ok());
  ASSERT_TRUE((*client)->WriteString(*v2, PagePath::Root(), "durable").ok());
  ASSERT_TRUE(cluster.fs(1).Prepare(*v2, /*txn_id=*/100).ok());
  ASSERT_TRUE(cluster.log().LogCommit(100, {1}).ok());
  cluster.RestartShard(1);
  report = RunShardFsck(servers, &cluster.log());
  ASSERT_EQ(report.notes.size(), 1u);
  EXPECT_NE(report.notes[0].find("will commit"), std::string::npos) << report.notes[0];
  resolved = ResolveInDoubt(servers, cluster.log());
  ASSERT_TRUE(resolved.ok());
  EXPECT_EQ(resolved->committed, 1u);
  EXPECT_EQ(*ReadText(cluster, *b), "durable");
  EXPECT_TRUE(RunFsck(&cluster.fs(1), {.fail_on_in_doubt = true}).clean);
}

TEST(CrossCommitTest, CoordinatorDeathIsResolvedByPresumedAbort) {
  ShardCluster cluster(2);
  auto a = cluster.router().CreateFileOn(0);
  auto b = cluster.router().CreateFileOn(1);
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_TRUE(CommitText(cluster, *a, "0").ok());
  ASSERT_TRUE(CommitText(cluster, *b, "0").ok());
  auto ca = cluster.router().ClientForFile(*a);
  auto cb = cluster.router().ClientForFile(*b);
  ASSERT_TRUE(ca.ok() && cb.ok());

  // Phase 1 completed on both shards, then the coordinator died BEFORE logging: no
  // decision record exists, so recovery must abort both participants.
  auto va = (*ca)->CreateVersion(*a);
  auto vb = (*cb)->CreateVersion(*b);
  ASSERT_TRUE(va.ok() && vb.ok());
  ASSERT_TRUE((*ca)->WriteString(*va, PagePath::Root(), "7").ok());
  ASSERT_TRUE((*cb)->WriteString(*vb, PagePath::Root(), "7").ok());
  ASSERT_TRUE(cluster.fs(0).Prepare(*va, /*txn_id=*/55).ok());
  ASSERT_TRUE(cluster.fs(1).Prepare(*vb, /*txn_id=*/55).ok());

  auto stats = cluster.coord().RecoverInDoubt();
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_EQ(stats->resolved_abort, 2u);
  EXPECT_EQ(stats->resolved_commit, 0u);
  EXPECT_EQ(*ReadText(cluster, *a), "0");
  EXPECT_EQ(*ReadText(cluster, *b), "0");

  // Died AFTER logging: the record exists, recovery must finish the commit everywhere.
  va = (*ca)->CreateVersion(*a);
  vb = (*cb)->CreateVersion(*b);
  ASSERT_TRUE(va.ok() && vb.ok());
  ASSERT_TRUE((*ca)->WriteString(*va, PagePath::Root(), "8").ok());
  ASSERT_TRUE((*cb)->WriteString(*vb, PagePath::Root(), "8").ok());
  ASSERT_TRUE(cluster.fs(0).Prepare(*va, /*txn_id=*/56).ok());
  ASSERT_TRUE(cluster.fs(1).Prepare(*vb, /*txn_id=*/56).ok());
  ASSERT_TRUE(cluster.log().LogCommit(56, {0, 1}).ok());

  stats = cluster.coord().RecoverInDoubt();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->resolved_commit, 2u);
  EXPECT_EQ(*ReadText(cluster, *a), "8");
  EXPECT_EQ(*ReadText(cluster, *b), "8");
  for (FileServer* fs : cluster.Servers()) {
    EXPECT_TRUE(RunFsck(fs, {.fail_on_in_doubt = true}).clean);
  }
}

TEST(CrossCommitTest, RecoveryLeavesForeignTransactionsAlone) {
  // Every shard in a deployment runs its own recovery sweep against its own decision
  // log. A transaction coordinated by shard 1 must not be presumed aborted by shard 0's
  // coordinator: shard 0's log never saw it, so its silence means nothing.
  ShardCluster cluster(2);
  auto b = cluster.router().CreateFileOn(1);
  ASSERT_TRUE(b.ok());
  ASSERT_TRUE(CommitText(cluster, *b, "0").ok());
  auto client = cluster.router().ClientForFile(*b);
  ASSERT_TRUE(client.ok());

  // An in-doubt prepare whose txn id names shard 1 as its coordinator — as if shard 1's
  // coordinator durably logged a commit and died before phase 2.
  const uint64_t foreign = MakeTxnId(/*owner_shard=*/1, /*incarnation=*/1, /*sequence=*/9);
  auto v = (*client)->CreateVersion(*b);
  ASSERT_TRUE(v.ok());
  ASSERT_TRUE((*client)->WriteString(*v, PagePath::Root(), "theirs").ok());
  ASSERT_TRUE(cluster.fs(1).Prepare(*v, foreign).ok());

  // The cluster's coordinator serves shard 0: its sweep must skip the foreign prepare,
  // not abort it.
  auto stats = cluster.coord().RecoverInDoubt();
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_EQ(stats->resolved_abort, 0u);
  EXPECT_EQ(stats->resolved_commit, 0u);
  EXPECT_GE(stats->skipped_foreign, 1u);
  EXPECT_EQ(cluster.fs(1).ListInDoubt().size(), 1u);

  // The coordinator also refuses to answer kResolveTxn for it — only the owner's log
  // can distinguish "committed" from "presumed abort".
  EXPECT_FALSE(cluster.coord().Resolve(foreign).ok());

  // The owner's verdict (here delivered by hand) still lands normally.
  ASSERT_TRUE(cluster.fs(1).Decide(foreign, /*commit=*/false).ok());
  EXPECT_EQ(*ReadText(cluster, *b), "0");
}

TEST(CrossCommitTest, RecoverySkipsTransactionsStillInFlight) {
  // An operator-triggered sweep racing a live CommitCross must not presume-abort a
  // transaction that sits between its prepares and its commit point. The crash hook
  // fires exactly there ("prepared": all participants staged, decision not yet logged) —
  // run a recovery sweep from inside it and the commit must still succeed.
  ShardCluster cluster(2);
  auto a = cluster.router().CreateFileOn(0);
  auto b = cluster.router().CreateFileOn(1);
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_TRUE(CommitText(cluster, *a, "0").ok());
  ASSERT_TRUE(CommitText(cluster, *b, "0").ok());

  ShardCoordinator::RecoveryStats mid_flight;
  cluster.coord().set_crash_hook([&](const char* at) {
    if (std::string(at) == "prepared") {
      auto stats = cluster.coord().RecoverInDoubt();
      ASSERT_TRUE(stats.ok()) << stats.status();
      mid_flight = *stats;
    }
  });

  CrossTransaction xt(&cluster.router());
  auto va = xt.CreateVersion(*a);
  auto vb = xt.CreateVersion(*b);
  ASSERT_TRUE(va.ok() && vb.ok());
  ASSERT_TRUE((*xt.Client(*a))->WriteString(*va, PagePath::Root(), "fenced").ok());
  ASSERT_TRUE((*xt.Client(*b))->WriteString(*vb, PagePath::Root(), "fenced").ok());
  auto heads = xt.Commit();
  ASSERT_TRUE(heads.ok()) << heads.status();

  // The sweep saw the staged prepares on both shards and left them alone.
  EXPECT_EQ(mid_flight.resolved_abort, 0u);
  EXPECT_EQ(mid_flight.skipped_live, 2u);
  EXPECT_EQ(*ReadText(cluster, *a), "fenced");
  EXPECT_EQ(*ReadText(cluster, *b), "fenced");
}

TEST(CrossCommitTest, GcDoesNotSweepPreparedTips) {
  ShardCluster cluster(1);
  auto file = cluster.router().CreateFileOn(0);
  ASSERT_TRUE(file.ok());
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(CommitText(cluster, *file, "gen" + std::to_string(i)).ok());
  }
  auto client = cluster.router().ClientForFile(*file);
  ASSERT_TRUE(client.ok());
  auto v = (*client)->CreateVersion(*file);
  ASSERT_TRUE(v.ok());
  ASSERT_TRUE((*client)->WriteString(*v, PagePath::Root(), "staged-survivor").ok());
  ASSERT_TRUE(cluster.fs(0).Prepare(*v, /*txn_id=*/60).ok());

  // An aggressive pruning cycle runs while the tip is in doubt: the staged version's
  // pages are part of the GC root set and must survive.
  GarbageCollector gc({&cluster.fs(0)}, GcOptions{.keep_versions = 1});
  ASSERT_TRUE(gc.RunCycle().ok());

  ASSERT_TRUE(cluster.fs(0).Decide(60, /*commit=*/true).ok());
  EXPECT_EQ(*ReadText(cluster, *file), "staged-survivor");
  EXPECT_TRUE(RunFsck(&cluster.fs(0), {.fail_on_in_doubt = true}).clean);
}

}  // namespace
}  // namespace afs
