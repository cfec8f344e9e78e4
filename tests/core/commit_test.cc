// Optimistic commit tests (paper §5.2, Figures 5 and 6): serial commits always succeed;
// concurrent disjoint updates merge; overlapping read/write updates conflict; the loser is
// removed and the update can be redone.

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <thread>

#include "tests/testing/cluster.h"

namespace afs {
namespace {

std::vector<uint8_t> Bytes(std::string_view s) {
  return std::vector<uint8_t>(s.begin(), s.end());
}

class CommitTest : public ::testing::Test {
 protected:
  // Build a file with `n` child pages under the root.
  Capability MakeFile(int n) {
    auto file = cluster_.fs().CreateFile();
    auto v = cluster_.fs().CreateVersion(*file, kNullPort, false);
    for (int i = 0; i < n; ++i) {
      (void)cluster_.fs().InsertRef(*v, PagePath::Root(), i);
      (void)cluster_.fs().WritePage(*v, PagePath({static_cast<uint32_t>(i)}),
                                    Bytes("init" + std::to_string(i)));
    }
    (void)cluster_.fs().Commit(*v);
    return *file;
  }

  std::string ReadCurrent(const Capability& file, const PagePath& path) {
    auto current = cluster_.fs().GetCurrentVersion(file);
    auto read = cluster_.fs().ReadPage(*current, path, false);
    if (!read.ok()) {
      return "<error: " + read.status().ToString() + ">";
    }
    return std::string(read->data.begin(), read->data.end());
  }

  FastCluster cluster_;
};

TEST_F(CommitTest, Figure5_CommitOfVersionBasedOnCurrentSucceeds) {
  // "When a client requests to commit a version that is based on the current version,
  // condition (1) obviously holds ... Therefore, Amoeba File Service allows all commits of
  // versions based on the current version."
  Capability file = MakeFile(2);
  auto v = cluster_.fs().CreateVersion(file, kNullPort, false);
  ASSERT_TRUE(cluster_.fs().WritePage(*v, PagePath({0}), Bytes("updated")).ok());
  uint64_t tests_before = cluster_.fs().serialise_tests_run();
  ASSERT_TRUE(cluster_.fs().Commit(*v).ok());
  // No serialisability test was needed (fast path).
  EXPECT_EQ(cluster_.fs().serialise_tests_run(), tests_before);
  EXPECT_EQ(ReadCurrent(file, PagePath({0})), "updated");
}

TEST_F(CommitTest, Figure6_ConcurrentDisjointUpdatesBothCommit) {
  // The airline example (§6): updates to different pages of the same file do not conflict.
  Capability file = MakeFile(4);
  auto vb = cluster_.fs().CreateVersion(file, kNullPort, false);
  auto vc = cluster_.fs().CreateVersion(file, kNullPort, false);
  ASSERT_TRUE(cluster_.fs().WritePage(*vc, PagePath({2}), Bytes("SF-LA")).ok());
  ASSERT_TRUE(cluster_.fs().WritePage(*vb, PagePath({1}), Bytes("AMS-LON")).ok());
  // V.c commits first and becomes current; V.b's base is then superseded.
  ASSERT_TRUE(cluster_.fs().Commit(*vc).ok());
  uint64_t tests_before = cluster_.fs().serialise_tests_run();
  ASSERT_TRUE(cluster_.fs().Commit(*vb).ok());
  EXPECT_GT(cluster_.fs().serialise_tests_run(), tests_before);  // condition (2) was tested
  // The merged current version carries BOTH updates.
  EXPECT_EQ(ReadCurrent(file, PagePath({1})), "AMS-LON");
  EXPECT_EQ(ReadCurrent(file, PagePath({2})), "SF-LA");
  EXPECT_EQ(ReadCurrent(file, PagePath({0})), "init0");
}

TEST_F(CommitTest, ReadWriteOverlapConflicts) {
  // V.b read page 1; V.c wrote page 1 and committed first: condition (2) fails.
  Capability file = MakeFile(3);
  auto vb = cluster_.fs().CreateVersion(file, kNullPort, false);
  auto vc = cluster_.fs().CreateVersion(file, kNullPort, false);
  ASSERT_TRUE(cluster_.fs().ReadPage(*vb, PagePath({1}), false).ok());
  ASSERT_TRUE(cluster_.fs().WritePage(*vb, PagePath({0}), Bytes("derived")).ok());
  ASSERT_TRUE(cluster_.fs().WritePage(*vc, PagePath({1}), Bytes("changed")).ok());
  ASSERT_TRUE(cluster_.fs().Commit(*vc).ok());
  auto result = cluster_.fs().Commit(*vb);
  EXPECT_EQ(result.status().code(), ErrorCode::kConflict);
  // "V.b is removed": further operations on it fail.
  EXPECT_EQ(cluster_.fs().WritePage(*vb, PagePath({0}), Bytes("x")).code(),
            ErrorCode::kReadOnly);
  // The current version holds V.c's update only.
  EXPECT_EQ(ReadCurrent(file, PagePath({1})), "changed");
  EXPECT_EQ(ReadCurrent(file, PagePath({0})), "init0");
}

TEST_F(CommitTest, BlindWriteWriteOverlapMerges) {
  // Write/write without reads is serialisable: the later committer's data wins.
  Capability file = MakeFile(2);
  auto vb = cluster_.fs().CreateVersion(file, kNullPort, false);
  auto vc = cluster_.fs().CreateVersion(file, kNullPort, false);
  ASSERT_TRUE(cluster_.fs().WritePage(*vc, PagePath({0}), Bytes("first")).ok());
  ASSERT_TRUE(cluster_.fs().WritePage(*vb, PagePath({0}), Bytes("second")).ok());
  ASSERT_TRUE(cluster_.fs().Commit(*vc).ok());
  ASSERT_TRUE(cluster_.fs().Commit(*vb).ok());
  EXPECT_EQ(ReadCurrent(file, PagePath({0})), "second");  // serial order: vc then vb
}

TEST_F(CommitTest, ChainOfConcurrentCommitsRepeatsTest) {
  // "the serialisability test is repeated for V.c's successor. This repeats until either
  // the set commit reference command succeeds or serialise returns FALSE."
  Capability file = MakeFile(6);
  auto vb = cluster_.fs().CreateVersion(file, kNullPort, false);
  ASSERT_TRUE(cluster_.fs().WritePage(*vb, PagePath({5}), Bytes("slow update")).ok());
  // Three other updates commit while vb is in progress.
  for (int i = 0; i < 3; ++i) {
    auto v = cluster_.fs().CreateVersion(file, kNullPort, false);
    ASSERT_TRUE(cluster_.fs()
                    .WritePage(*v, PagePath({static_cast<uint32_t>(i)}),
                               Bytes("fast" + std::to_string(i)))
                    .ok());
    ASSERT_TRUE(cluster_.fs().Commit(*v).ok());
  }
  ASSERT_TRUE(cluster_.fs().Commit(*vb).ok());
  // All four updates are visible in the final current version.
  EXPECT_EQ(ReadCurrent(file, PagePath({5})), "slow update");
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(ReadCurrent(file, PagePath({static_cast<uint32_t>(i)})),
              "fast" + std::to_string(i));
  }
}

TEST_F(CommitTest, StructureVsStructureConflicts) {
  // Both updates restructure the same page's reference table: not mergeable.
  Capability file = MakeFile(3);
  auto vb = cluster_.fs().CreateVersion(file, kNullPort, false);
  auto vc = cluster_.fs().CreateVersion(file, kNullPort, false);
  ASSERT_TRUE(cluster_.fs().RemoveRef(*vc, PagePath::Root(), 0).ok());
  ASSERT_TRUE(cluster_.fs().InsertRef(*vb, PagePath::Root(), 1).ok());
  ASSERT_TRUE(cluster_.fs().Commit(*vc).ok());
  EXPECT_EQ(cluster_.fs().Commit(*vb).status().code(), ErrorCode::kConflict);
}

TEST_F(CommitTest, StructureChangeVsDataWriteMerges) {
  // V.c rewrote the root's data; V.b restructured the root's references. Data and
  // structure are independent: both survive.
  Capability file = MakeFile(3);
  auto vb = cluster_.fs().CreateVersion(file, kNullPort, false);
  auto vc = cluster_.fs().CreateVersion(file, kNullPort, false);
  ASSERT_TRUE(cluster_.fs().WritePage(*vc, PagePath::Root(), Bytes("root data")).ok());
  ASSERT_TRUE(cluster_.fs().InsertRef(*vb, PagePath::Root(), 3).ok());
  ASSERT_TRUE(cluster_.fs().WritePage(*vb, PagePath({3}), Bytes("new child")).ok());
  ASSERT_TRUE(cluster_.fs().Commit(*vc).ok());
  ASSERT_TRUE(cluster_.fs().Commit(*vb).ok());
  EXPECT_EQ(ReadCurrent(file, PagePath::Root()), "root data");
  EXPECT_EQ(ReadCurrent(file, PagePath({3})), "new child");
}

TEST_F(CommitTest, DeepDisjointSubtreesMerge) {
  // Concurrent updates to different subtrees of a deep tree.
  auto file = cluster_.fs().CreateFile();
  {
    auto v = cluster_.fs().CreateVersion(*file, kNullPort, false);
    for (uint32_t i = 0; i < 2; ++i) {
      ASSERT_TRUE(cluster_.fs().InsertRef(*v, PagePath::Root(), i).ok());
      ASSERT_TRUE(cluster_.fs().WritePage(*v, PagePath({i}), Bytes("mid")).ok());
      for (uint32_t j = 0; j < 2; ++j) {
        ASSERT_TRUE(cluster_.fs().InsertRef(*v, PagePath({i}), j).ok());
        ASSERT_TRUE(cluster_.fs().WritePage(*v, PagePath({i, j}), Bytes("leaf")).ok());
      }
    }
    ASSERT_TRUE(cluster_.fs().Commit(*v).ok());
  }
  auto vb = cluster_.fs().CreateVersion(*file, kNullPort, false);
  auto vc = cluster_.fs().CreateVersion(*file, kNullPort, false);
  ASSERT_TRUE(cluster_.fs().WritePage(*vc, PagePath({0, 1}), Bytes("c-leaf")).ok());
  ASSERT_TRUE(cluster_.fs().WritePage(*vb, PagePath({1, 0}), Bytes("b-leaf")).ok());
  ASSERT_TRUE(cluster_.fs().Commit(*vc).ok());
  ASSERT_TRUE(cluster_.fs().Commit(*vb).ok());
  auto current = cluster_.fs().GetCurrentVersion(*file);
  EXPECT_EQ(cluster_.fs().ReadPage(*current, PagePath({0, 1}), false)->data, Bytes("c-leaf"));
  EXPECT_EQ(cluster_.fs().ReadPage(*current, PagePath({1, 0}), false)->data, Bytes("b-leaf"));
  EXPECT_EQ(cluster_.fs().ReadPage(*current, PagePath({0, 0}), false)->data, Bytes("leaf"));
}

TEST_F(CommitTest, SameSubtreeDeepConflict) {
  auto file = cluster_.fs().CreateFile();
  {
    auto v = cluster_.fs().CreateVersion(*file, kNullPort, false);
    ASSERT_TRUE(cluster_.fs().InsertRef(*v, PagePath::Root(), 0).ok());
    ASSERT_TRUE(cluster_.fs().WritePage(*v, PagePath({0}), Bytes("mid")).ok());
    ASSERT_TRUE(cluster_.fs().InsertRef(*v, PagePath({0}), 0).ok());
    ASSERT_TRUE(cluster_.fs().WritePage(*v, PagePath({0, 0}), Bytes("leaf")).ok());
    ASSERT_TRUE(cluster_.fs().Commit(*v).ok());
  }
  auto vb = cluster_.fs().CreateVersion(*file, kNullPort, false);
  auto vc = cluster_.fs().CreateVersion(*file, kNullPort, false);
  ASSERT_TRUE(cluster_.fs().ReadPage(*vb, PagePath({0, 0}), false).ok());
  ASSERT_TRUE(cluster_.fs().WritePage(*vb, PagePath::Root(), Bytes("b")).ok());
  ASSERT_TRUE(cluster_.fs().WritePage(*vc, PagePath({0, 0}), Bytes("c")).ok());
  ASSERT_TRUE(cluster_.fs().Commit(*vc).ok());
  EXPECT_EQ(cluster_.fs().Commit(*vb).status().code(), ErrorCode::kConflict);
}

TEST_F(CommitTest, ManyThreadsDisjointPagesAllCommitEventually) {
  constexpr int kThreads = 8;
  constexpr int kRounds = 10;
  Capability file = MakeFile(kThreads);
  std::atomic<int> committed{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        for (int attempt = 0; attempt < 100; ++attempt) {
          auto v = cluster_.fs().CreateVersion(file, kNullPort, false);
          if (!v.ok()) {
            continue;
          }
          std::string value = "t" + std::to_string(t) + "r" + std::to_string(round);
          if (!cluster_.fs()
                   .WritePage(*v, PagePath({static_cast<uint32_t>(t)}), Bytes(value))
                   .ok()) {
            (void)cluster_.fs().Abort(*v);
            continue;
          }
          auto result = cluster_.fs().Commit(*v);
          if (result.ok()) {
            ++committed;
            break;
          }
        }
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(committed.load(), kThreads * kRounds);
  // Every thread's final value must be present: no lost updates.
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(ReadCurrent(file, PagePath({static_cast<uint32_t>(t)})),
              "t" + std::to_string(t) + "r" + std::to_string(kRounds - 1));
  }
}

TEST_F(CommitTest, LostUpdateAnomalyPrevented) {
  // Classic counter race: both read, both increment, both try to commit. One must lose.
  Capability file = MakeFile(1);
  auto v1 = cluster_.fs().CreateVersion(file, kNullPort, false);
  auto v2 = cluster_.fs().CreateVersion(file, kNullPort, false);
  ASSERT_TRUE(cluster_.fs().ReadPage(*v1, PagePath({0}), false).ok());
  ASSERT_TRUE(cluster_.fs().ReadPage(*v2, PagePath({0}), false).ok());
  ASSERT_TRUE(cluster_.fs().WritePage(*v1, PagePath({0}), Bytes("count=1a")).ok());
  ASSERT_TRUE(cluster_.fs().WritePage(*v2, PagePath({0}), Bytes("count=1b")).ok());
  ASSERT_TRUE(cluster_.fs().Commit(*v1).ok());
  EXPECT_EQ(cluster_.fs().Commit(*v2).status().code(), ErrorCode::kConflict);
}

TEST_F(CommitTest, MergedVersionConflictsWithLaterReaders) {
  // After a merge, V.c's writes must remain visible to later serialisability tests
  // (the W-flag union in the merged tree).
  Capability file = MakeFile(3);
  // vd reads page 0 under the ORIGINAL base.
  auto vd = cluster_.fs().CreateVersion(file, kNullPort, false);
  ASSERT_TRUE(cluster_.fs().ReadPage(*vd, PagePath({0}), false).ok());
  ASSERT_TRUE(cluster_.fs().WritePage(*vd, PagePath({2}), Bytes("d")).ok());
  // vc writes page 0 and commits.
  auto vc = cluster_.fs().CreateVersion(file, kNullPort, false);
  ASSERT_TRUE(cluster_.fs().WritePage(*vc, PagePath({0}), Bytes("c")).ok());
  ASSERT_TRUE(cluster_.fs().Commit(*vc).ok());
  // vb writes page 1 (disjoint) and merges past vc: merged tree carries vc's W on page 0.
  auto vb = cluster_.fs().CreateVersion(file, kNullPort, false);
  // NOTE: vb was created after vc committed, so its base is vc's merged... create order
  // matters: recreate vb against the post-vc current; the point is vd's test runs against
  // the chain containing vc's write either way.
  ASSERT_TRUE(cluster_.fs().WritePage(*vb, PagePath({1}), Bytes("b")).ok());
  ASSERT_TRUE(cluster_.fs().Commit(*vb).ok());
  // vd read page 0, which vc (now in vd's successor chain) wrote: must conflict.
  EXPECT_EQ(cluster_.fs().Commit(*vd).status().code(), ErrorCode::kConflict);
}

// The update path's block-server calls, pinned exactly. Uncommitted versions live in
// memory until commit ("uncommitted versions need not be salvaged in a server crash"):
// after CreateVersion writes the head, no page access touches a block until Commit's one
// flush and flip. A block read or write added to the WritePage or ReadPage path fails here.
TEST(UpdatePathCostTest, EightPageUpdateTouchesNoBlockBeforeCommit) {
  FullCluster cluster(1);
  FileServer& fs = cluster.fs();
  // The calls the file server's stable store makes on its preferred member, by op.
  const std::map<std::string, uint32_t> ops = {
      {"alloc_write", 3}, {"write", 4},        {"read", 5},         {"free", 6},
      {"lock", 7},        {"unlock", 8},       {"read_multi", 11},  {"write_multi", 12},
      {"free_multi", 13}, {"alloc_multi", 14},
  };
  const auto calls = [&] {
    std::map<std::string, uint64_t> out;
    for (const auto& [name, opcode] : ops) {
      out[name] =
          cluster.block_a().metrics()->counter("rpc.op." + std::to_string(opcode) + ".count")
              ->value();
    }
    return out;
  };
  const auto delta = [](const std::map<std::string, uint64_t>& before,
                        const std::map<std::string, uint64_t>& after) {
    std::map<std::string, uint64_t> out;
    for (const auto& [name, count] : after) {
      if (count != before.at(name)) {
        out[name] = count - before.at(name);
      }
    }
    return out;
  };

  // A file of 16 2 KB pages, as perfbench's update-8p uses.
  auto file = fs.CreateFile();
  ASSERT_TRUE(file.ok());
  {
    auto v = fs.CreateVersion(*file, kNullPort, false);
    ASSERT_TRUE(v.ok());
    for (uint32_t p = 0; p < 16; ++p) {
      ASSERT_TRUE(fs.InsertRef(*v, PagePath::Root(), p).ok());
      ASSERT_TRUE(fs.WritePage(*v, PagePath({p}), std::vector<uint8_t>(2048, 0)).ok());
    }
    ASSERT_TRUE(fs.Commit(*v).ok());
  }

  auto start = calls();
  auto v = fs.CreateVersion(*file, kNullPort, false);
  ASSERT_TRUE(v.ok());
  auto created = calls();
  // Find the current version (one read), reserve the head, then under the base's block
  // lock: read it, and write its top lock and the head in one batch.
  EXPECT_EQ(delta(start, created),
            (std::map<std::string, uint64_t>{
                {"alloc_multi", 1}, {"lock", 1}, {"read", 2}, {"unlock", 1}, {"write_multi", 1}}));

  for (uint32_t p = 0; p < 16; p += 2) {
    ASSERT_TRUE(fs.WritePage(*v, PagePath({p}), std::vector<uint8_t>(2048, 1)).ok());
  }
  auto read = fs.ReadPage(*v, PagePath({1}), false);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read->data, std::vector<uint8_t>(2048, 0));
  auto accessed = calls();
  EXPECT_EQ(delta(created, accessed), (std::map<std::string, uint64_t>{}));

  ASSERT_TRUE(fs.Commit(*v).ok());
  auto committed = calls();
  // One flush — blocks for the 8 written pages, then those pages and the root in one
  // batch (the page only read is reshared, never written) — and the flip: lock, read,
  // write, unlock of the base's commit reference.
  EXPECT_EQ(delta(accessed, committed),
            (std::map<std::string, uint64_t>{{"alloc_multi", 1},
                                             {"lock", 1},
                                             {"read", 1},
                                             {"unlock", 1},
                                             {"write", 1},
                                             {"write_multi", 1}}));

  auto current = fs.GetCurrentVersion(*file);
  for (uint32_t p = 0; p < 16; ++p) {
    EXPECT_EQ(fs.ReadPage(*current, PagePath({p}), false)->data,
              std::vector<uint8_t>(2048, p % 2 == 0 ? 1 : 0));
  }
}

}  // namespace
}  // namespace afs
