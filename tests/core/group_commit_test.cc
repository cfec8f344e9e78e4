// Deterministic serialiser-equivalence tests for the commit combiner and its one §5.2
// segment loop (docs/PERF.md §5): grouping commits, the in-memory version index and the
// signature fast path must be pure performance — never visible in outcomes.
//
// The core scheme: K overlapping transactions (each reads page 0 and then writes it, so
// any two of them violate Kung–Robinson condition (2)) and M disjoint transactions (each
// writes its own page) all branch from the same committed base. Submitted concurrently
// through the combiner, EXACTLY K-1 must abort with kConflict and every disjoint one must
// commit, and the resulting store must be byte-identical to committing the same
// transactions one at a time (each a segment of one). A seeded shuffle varies the arrival
// order across rounds, so a scheduling-order dependence would show up as a flaky diff,
// not a lucky pass. A second FileServer on the same store supplies the commits one
// server's index never sees, which drives the lost-flip path of the loop.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "src/core/fsck.h"
#include "tests/testing/cluster.h"

namespace afs {
namespace {

std::vector<uint8_t> Bytes(const std::string& s) {
  return std::vector<uint8_t>(s.begin(), s.end());
}

uint64_t Count(FileServer& fs, const char* name) {
  return fs.metrics()->counter(name)->value();
}

constexpr int kOverlapping = 4;  // read-then-write page 0: mutually conflicting
constexpr int kDisjoint = 6;     // transaction j writes page 1+j: conflict-free
constexpr int kPages = 1 + kDisjoint;

Capability MakeFile(FileServer& fs) {
  auto file = fs.CreateFile();
  EXPECT_TRUE(file.ok());
  auto v = fs.CreateVersion(*file, kNullPort, false);
  EXPECT_TRUE(v.ok());
  for (int i = 0; i < kPages; ++i) {
    EXPECT_TRUE(fs.InsertRef(*v, PagePath::Root(), i).ok());
    EXPECT_TRUE(fs.WritePage(*v, PagePath({static_cast<uint32_t>(i)}),
                             Bytes("init" + std::to_string(i)))
                    .ok());
  }
  EXPECT_TRUE(fs.Commit(*v).ok());
  return *file;
}

// One transaction: the server that manages its version, and the version.
struct Txn {
  FileServer* fs;
  Capability version;
};

// Build the K+M transactions off the SAME committed base (all versions are created before
// any of them commits), transaction i on servers[i % n], and return them in a
// seed-shuffled submission order. All overlapping transactions write identical bytes, so
// the final state does not depend on WHICH of them wins — only on exactly one winning.
std::vector<Txn> PrepareTxns(const std::vector<FileServer*>& servers, const Capability& file,
                             uint32_t seed) {
  std::vector<Txn> txns;
  for (int i = 0; i < kOverlapping + kDisjoint; ++i) {
    FileServer& fs = *servers[i % servers.size()];
    auto v = fs.CreateVersion(file, kNullPort, false);
    EXPECT_TRUE(v.ok());
    if (i < kOverlapping) {
      EXPECT_TRUE(fs.ReadPage(*v, PagePath({0}), false).ok());
      EXPECT_TRUE(fs.WritePage(*v, PagePath({0}), Bytes("contended")).ok());
    } else {
      const int j = i - kOverlapping;
      EXPECT_TRUE(fs.WritePage(*v, PagePath({static_cast<uint32_t>(1 + j)}),
                               Bytes("disjoint" + std::to_string(j)))
                      .ok());
    }
    txns.push_back(Txn{&fs, *v});
  }
  std::mt19937 rng(seed);
  std::shuffle(txns.begin(), txns.end(), rng);
  return txns;
}

std::string ReadCurrent(FileServer& fs, const Capability& file, uint32_t page) {
  auto current = fs.GetCurrentVersion(file);
  EXPECT_TRUE(current.ok());
  auto read = fs.ReadPage(*current, PagePath({page}), false);
  if (!read.ok()) {
    return "<error: " + read.status().ToString() + ">";
  }
  return std::string(read->data.begin(), read->data.end());
}

struct RunOutcome {
  int committed = 0;
  int conflicts = 0;
  std::vector<std::string> pages;  // final content of every page, in index order
  size_t chain_length = 0;
};

// The initial empty version, MakeFile's commit, the one overlapping winner and every
// disjoint transaction.
constexpr size_t kChainLength = 3 + kDisjoint;

RunOutcome FinalState(FileServer& fs, const Capability& file, int committed, int conflicts) {
  RunOutcome out;
  out.committed = committed;
  out.conflicts = conflicts;
  for (uint32_t p = 0; p < kPages; ++p) {
    out.pages.push_back(ReadCurrent(fs, file, p));
  }
  auto chain = fs.CommittedChain(file.object);
  EXPECT_TRUE(chain.ok());
  out.chain_length = chain.ok() ? chain->size() : 0;
  return out;
}

// Submit every transaction's Commit from its own thread, released together.
RunOutcome RunConcurrent(const std::vector<FileServer*>& servers, const Capability& file,
                         uint32_t seed) {
  std::vector<Txn> txns = PrepareTxns(servers, file, seed);
  std::atomic<int> committed{0};
  std::atomic<int> conflicts{0};
  std::atomic<bool> go{false};
  std::vector<std::thread> workers;
  for (const Txn& txn : txns) {
    workers.emplace_back([&, txn] {
      while (!go.load()) {
        std::this_thread::yield();
      }
      auto result = txn.fs->Commit(txn.version);
      if (result.ok()) {
        committed.fetch_add(1);
      } else {
        EXPECT_EQ(result.status().code(), ErrorCode::kConflict) << result.status().ToString();
        conflicts.fetch_add(1);
      }
    });
  }
  go.store(true);
  for (auto& w : workers) {
    w.join();
  }
  return FinalState(*servers[0], file, committed.load(), conflicts.load());
}

// The reference execution: the same transaction set, committed one at a time in the same
// shuffled order, so every commit is a segment of one.
RunOutcome RunSerial(FileServer& fs, const Capability& file, uint32_t seed) {
  std::vector<Txn> txns = PrepareTxns({&fs}, file, seed);
  int committed = 0;
  int conflicts = 0;
  for (const Txn& txn : txns) {
    auto result = fs.Commit(txn.version);
    if (result.ok()) {
      ++committed;
    } else {
      EXPECT_EQ(result.status().code(), ErrorCode::kConflict) << result.status().ToString();
      ++conflicts;
    }
  }
  return FinalState(fs, file, committed, conflicts);
}

// Exactly K-1 of the overlapping transactions abort, everything else commits, and the
// final state is byte-identical to the reference, version for version.
void ExpectMatchesReference(const RunOutcome& outcome, const RunOutcome& reference) {
  EXPECT_EQ(outcome.conflicts, kOverlapping - 1);
  EXPECT_EQ(outcome.committed, 1 + kDisjoint);
  EXPECT_EQ(outcome.pages, reference.pages);
  EXPECT_EQ(outcome.chain_length, reference.chain_length);
  EXPECT_EQ(outcome.chain_length, kChainLength);
  EXPECT_EQ(outcome.pages[0], "contended");
  for (int j = 0; j < kDisjoint; ++j) {
    EXPECT_EQ(outcome.pages[1 + j], "disjoint" + std::to_string(j));
  }
}

TEST(GroupCommitTest, ConcurrentOutcomeIsByteIdenticalToSerialExecution) {
  for (uint32_t seed : {1u, 7u, 42u, 1985u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));

    FastCluster grouped;
    Capability grouped_file = MakeFile(grouped.fs());
    RunOutcome concurrent = RunConcurrent({&grouped.fs()}, grouped_file, seed);

    FastCluster serial;
    Capability serial_file = MakeFile(serial.fs());
    RunOutcome reference = RunSerial(serial.fs(), serial_file, seed);

    EXPECT_EQ(reference.conflicts, kOverlapping - 1);
    EXPECT_EQ(reference.committed, 1 + kDisjoint);
    ExpectMatchesReference(concurrent, reference);

    // Every loser was aborted, starved or not: nothing stays behind in the GC root set.
    EXPECT_TRUE(grouped.fs().ListUncommitted().empty());

    // The grouped run's store and version index come out of the storm consistent (fsck
    // I1-I7; the aborted losers' pages are tolerated garbage awaiting GC).
    FsckReport report = RunFsck(&grouped.fs());
    EXPECT_TRUE(report.clean) << report.ToString();
    EXPECT_GT(report.index_records, 0u);
  }
}

TEST(GroupCommitTest, TwoServersConcurrentOutcomeMatchesSerial) {
  // The same storm split across two FileServers on one store. Each server's index misses
  // the other's commits, so segments lose flips and validate against foreign successors
  // walked from disk — and the outcome must still equal the one-at-a-time reference.
  const uint32_t seed = 7;
  FastCluster serial;
  Capability serial_file = MakeFile(serial.fs());
  RunOutcome reference = RunSerial(serial.fs(), serial_file, seed);

  FullCluster cluster(2);
  Capability file = MakeFile(cluster.fs(0));
  RunOutcome outcome = RunConcurrent({&cluster.fs(0), &cluster.fs(1)}, file, seed);
  ExpectMatchesReference(outcome, reference);
  EXPECT_GT(Count(cluster.fs(0), "commit.index_miss") + Count(cluster.fs(1), "commit.index_miss"),
            0u);
  for (int i = 0; i < 2; ++i) {
    EXPECT_TRUE(cluster.fs(i).ListUncommitted().empty());
    FsckReport report = RunFsck(&cluster.fs(i));
    EXPECT_TRUE(report.clean) << report.ToString();
  }
}

TEST(GroupCommitTest, StaleIndexTipDoesNotAbortValidCommit) {
  // Regression: a second server commits, so the first server's index — and its
  // current-tip hint — lags the real chain tip. An update based on the REAL tip must
  // validate only against successors of its own base, never against its own history
  // (which used to abort it as a spurious conflict).
  FullCluster cluster(2);
  FileServer& fs = cluster.fs(0);
  Capability file = MakeFile(fs);

  // The foreign commit fs(0)'s index misses.
  auto v2 = cluster.fs(1).CreateVersion(file, kNullPort, false);
  ASSERT_TRUE(v2.ok());
  ASSERT_TRUE(cluster.fs(1).ReadPage(*v2, PagePath({0}), false).ok());
  ASSERT_TRUE(cluster.fs(1).WritePage(*v2, PagePath({0}), Bytes("second")).ok());
  ASSERT_TRUE(cluster.fs(1).Commit(*v2).ok());

  // Based on the true current version, and touching exactly the page v2 wrote: testing it
  // against v2 (its own base) would report a conflict that does not exist.
  auto v3 = fs.CreateVersion(file, kNullPort, false);
  ASSERT_TRUE(v3.ok());
  ASSERT_TRUE(fs.ReadPage(*v3, PagePath({0}), false).ok());
  ASSERT_TRUE(fs.WritePage(*v3, PagePath({0}), Bytes("third")).ok());
  auto committed = fs.Commit(*v3);
  EXPECT_TRUE(committed.ok()) << committed.status();
  EXPECT_EQ(ReadCurrent(fs, file, 0), "third");

  FsckReport report = RunFsck(&fs);
  EXPECT_TRUE(report.clean) << report.ToString();
}

TEST(GroupCommitTest, LostFlipRevalidatesAgainstForeignCommit) {
  // A version staged on fs(0) before fs(1) commits: fs(0)'s index says its base is still
  // the tip, so the first flip loses. The loop must validate against the foreign
  // successor, merge, and win the second flip — and a real conflict must still abort.
  FullCluster cluster(2);
  FileServer& fs = cluster.fs(0);
  Capability file = MakeFile(fs);

  auto mine = fs.CreateVersion(file, kNullPort, false);
  auto clash = fs.CreateVersion(file, kNullPort, false);
  ASSERT_TRUE(mine.ok() && clash.ok());
  ASSERT_TRUE(fs.ReadPage(*mine, PagePath({0}), false).ok());
  ASSERT_TRUE(fs.WritePage(*mine, PagePath({0}), Bytes("mine")).ok());
  ASSERT_TRUE(fs.ReadPage(*clash, PagePath({1}), false).ok());
  ASSERT_TRUE(fs.WritePage(*clash, PagePath({2}), Bytes("clash")).ok());

  auto foreign = cluster.fs(1).CreateVersion(file, kNullPort, false);
  ASSERT_TRUE(foreign.ok());
  ASSERT_TRUE(cluster.fs(1).WritePage(*foreign, PagePath({1}), Bytes("foreign")).ok());
  ASSERT_TRUE(cluster.fs(1).Commit(*foreign).ok());

  auto committed = fs.Commit(*mine);
  ASSERT_TRUE(committed.ok()) << committed.status();
  EXPECT_EQ(Count(fs, "commit.group_fallback"), 1u);
  EXPECT_EQ(ReadCurrent(fs, file, 0), "mine");
  EXPECT_EQ(ReadCurrent(fs, file, 1), "foreign");

  // `clash` read page 1, which the foreign commit wrote: not serialisable, so aborted.
  auto aborted = fs.Commit(*clash);
  ASSERT_FALSE(aborted.ok());
  EXPECT_EQ(aborted.status().code(), ErrorCode::kConflict);
  EXPECT_TRUE(fs.ListUncommitted().empty());

  for (int i = 0; i < 2; ++i) {
    FsckReport report = RunFsck(&cluster.fs(i));
    EXPECT_TRUE(report.clean) << report.ToString();
  }
}

TEST(GroupCommitTest, SuperFileSubCommitKeepsIndexTipFresh) {
  // Regression: FinishSuperCommit advances a sub-file's chain outside the sub-file's own
  // commit segments. The version index must record that commit too, and fsck I7 must stay
  // clean.
  FastCluster cluster;
  FileServer& fs = cluster.fs();

  auto super = fs.CreateFile();
  ASSERT_TRUE(super.ok());
  auto v = fs.CreateVersion(*super, kNullPort, false);
  ASSERT_TRUE(v.ok());
  auto sub = fs.CreateSubFile(*v, PagePath::Root(), 0);
  ASSERT_TRUE(sub.ok());
  ASSERT_TRUE(fs.Commit(*v).ok());
  auto sv = fs.CreateVersion(*sub, kNullPort, false);
  ASSERT_TRUE(sv.ok());
  ASSERT_TRUE(fs.WritePage(*sv, PagePath::Root(), Bytes("own")).ok());
  ASSERT_TRUE(fs.Commit(*sv).ok());

  // A super-file update writes through the sub-file; FinishSuperCommit commits the copy.
  auto sup2 = fs.CreateVersion(*super, kNullPort, false);
  ASSERT_TRUE(sup2.ok());
  ASSERT_TRUE(fs.WritePage(*sup2, PagePath({0}), Bytes("via super")).ok());
  ASSERT_TRUE(fs.Commit(*sup2).ok());

  // The index's tip hint for the sub-file tracks the FinishSuperCommit-advanced chain.
  auto stat = fs.FileStat(*sub);
  ASSERT_TRUE(stat.ok());
  auto hint = fs.version_index().CurrentHint(sub->object);
  ASSERT_TRUE(hint.has_value());
  EXPECT_EQ(*hint, stat->current_head);

  // And a grouped read-modify-write of the sub-file commits cleanly on top of it.
  auto sv2 = fs.CreateVersion(*sub, kNullPort, false);
  ASSERT_TRUE(sv2.ok());
  ASSERT_TRUE(fs.ReadPage(*sv2, PagePath::Root(), false).ok());
  ASSERT_TRUE(fs.WritePage(*sv2, PagePath::Root(), Bytes("after")).ok());
  auto committed = fs.Commit(*sv2);
  EXPECT_TRUE(committed.ok()) << committed.status();

  FsckReport report = RunFsck(&fs);
  EXPECT_TRUE(report.clean) << report.ToString();
}

TEST(GroupCommitTest, GroupedCommitsAreObservable) {
  // Sanity that the concurrent storm actually exercises the new machinery: the version
  // index serves hits, and the signature fast path or serialiser tests ran.
  FastCluster cluster;
  Capability file = MakeFile(cluster.fs());
  (void)RunConcurrent({&cluster.fs()}, file, 3);
  EXPECT_GT(cluster.fs().index_hits(), 0u);
}

}  // namespace
}  // namespace afs
