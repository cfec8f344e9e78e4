// Cache validation tests (paper §5.4, claim C4): the serialisability test between a cache
// entry and the current version returns exactly the invalid paths; a null operation for
// unshared files; no unsolicited messages anywhere.

#include <gtest/gtest.h>

#include "tests/testing/cluster.h"

namespace afs {
namespace {

std::vector<uint8_t> Bytes(std::string_view s) {
  return std::vector<uint8_t>(s.begin(), s.end());
}

class CacheValidationTest : public ::testing::Test {
 protected:
  Capability MakeFile(int n) {
    auto file = cluster_.fs().CreateFile();
    auto v = cluster_.fs().CreateVersion(*file, kNullPort, false);
    for (int i = 0; i < n; ++i) {
      (void)cluster_.fs().InsertRef(*v, PagePath::Root(), i);
      (void)cluster_.fs().WritePage(*v, PagePath({static_cast<uint32_t>(i)}),
                                    Bytes("page" + std::to_string(i)));
    }
    (void)cluster_.fs().Commit(*v);
    return *file;
  }

  BlockNo CurrentHead(const Capability& file) {
    return static_cast<BlockNo>(cluster_.fs().GetCurrentVersion(file)->object);
  }

  void CommitWrite(const Capability& file, const PagePath& path, std::string_view value) {
    auto v = cluster_.fs().CreateVersion(file, kNullPort, false);
    ASSERT_TRUE(cluster_.fs().WritePage(*v, path, Bytes(value)).ok());
    ASSERT_TRUE(cluster_.fs().Commit(*v).ok());
  }

  FastCluster cluster_;
};

TEST_F(CacheValidationTest, CacheTooFarBehindIsInvalidated) {
  // The validation walk follows at most 4096 commit references. A cache further behind
  // must not be judged by the first 4096 successors only: the write that invalidates it
  // may come later.
  Capability file = MakeFile(2);
  BlockNo cached = CurrentHead(file);
  for (int i = 0; i < 4099; ++i) {
    CommitWrite(file, PagePath({1}), "filler");
  }
  CommitWrite(file, PagePath({0}), "late write");
  auto check = cluster_.fs().ValidateCache(file, cached, {PagePath({0})});
  ASSERT_TRUE(check.ok());
  ASSERT_EQ(check->invalid.size(), 1u);
  EXPECT_EQ(check->invalid[0], PagePath({0}));
  EXPECT_EQ(static_cast<BlockNo>(check->current_version.object), CurrentHead(file));
}

TEST_F(CacheValidationTest, NullOperationForUnsharedFile) {
  // "the cache entry will always be the most recent version of a file, so the
  // serialisability test is a null operation, and all pages in the cache will always be
  // valid."
  Capability file = MakeFile(3);
  BlockNo cached = CurrentHead(file);
  auto check = cluster_.fs().ValidateCache(file, cached, {PagePath({0}), PagePath({1})});
  ASSERT_TRUE(check.ok());
  EXPECT_TRUE(check->invalid.empty());
  EXPECT_EQ(static_cast<BlockNo>(check->current_version.object), cached);
}

TEST_F(CacheValidationTest, OnlyWrittenPathsInvalidated) {
  Capability file = MakeFile(4);
  BlockNo cached = CurrentHead(file);
  CommitWrite(file, PagePath({2}), "modified");
  std::vector<PagePath> paths = {PagePath({0}), PagePath({1}), PagePath({2}), PagePath({3})};
  auto check = cluster_.fs().ValidateCache(file, cached, paths);
  ASSERT_TRUE(check.ok());
  ASSERT_EQ(check->invalid.size(), 1u);
  EXPECT_EQ(check->invalid[0], PagePath({2}));
}

TEST_F(CacheValidationTest, MultipleInterveningVersionsUnioned) {
  // Invalidation is against the union of the write sets of every version since the cached
  // one.
  Capability file = MakeFile(4);
  BlockNo cached = CurrentHead(file);
  CommitWrite(file, PagePath({0}), "a");
  CommitWrite(file, PagePath({3}), "b");
  auto check = cluster_.fs().ValidateCache(
      file, cached, {PagePath({0}), PagePath({1}), PagePath({2}), PagePath({3})});
  ASSERT_TRUE(check.ok());
  EXPECT_EQ(check->invalid.size(), 2u);
}

TEST_F(CacheValidationTest, RootWriteInvalidatesRootOnly) {
  Capability file = MakeFile(2);
  BlockNo cached = CurrentHead(file);
  CommitWrite(file, PagePath::Root(), "root data");
  auto check = cluster_.fs().ValidateCache(file, cached,
                                           {PagePath::Root(), PagePath({0}), PagePath({1})});
  ASSERT_TRUE(check.ok());
  ASSERT_EQ(check->invalid.size(), 1u);
  EXPECT_EQ(check->invalid[0], PagePath::Root());
}

TEST_F(CacheValidationTest, StructuralChangeInvalidatesDescendants) {
  // An ancestor whose references were modified may have moved the page: conservative
  // invalidation.
  Capability file = MakeFile(3);
  BlockNo cached = CurrentHead(file);
  auto v = cluster_.fs().CreateVersion(file, kNullPort, false);
  ASSERT_TRUE(cluster_.fs().RemoveRef(*v, PagePath::Root(), 0).ok());
  ASSERT_TRUE(cluster_.fs().Commit(*v).ok());
  auto check =
      cluster_.fs().ValidateCache(file, cached, {PagePath({0}), PagePath({1}), PagePath({2})});
  ASSERT_TRUE(check.ok());
  EXPECT_EQ(check->invalid.size(), 3u);  // all paths under the modified root
}

TEST_F(CacheValidationTest, DeepPathsValidatedPrecisely) {
  auto file = cluster_.fs().CreateFile();
  {
    auto v = cluster_.fs().CreateVersion(*file, kNullPort, false);
    for (uint32_t i = 0; i < 2; ++i) {
      ASSERT_TRUE(cluster_.fs().InsertRef(*v, PagePath::Root(), i).ok());
      ASSERT_TRUE(cluster_.fs().WritePage(*v, PagePath({i}), Bytes("mid")).ok());
      ASSERT_TRUE(cluster_.fs().InsertRef(*v, PagePath({i}), 0).ok());
      ASSERT_TRUE(cluster_.fs().WritePage(*v, PagePath({i, 0}), Bytes("leaf")).ok());
    }
    ASSERT_TRUE(cluster_.fs().Commit(*v).ok());
  }
  BlockNo cached = CurrentHead(*file);
  CommitWrite(*file, PagePath({0, 0}), "deep write");
  auto check = cluster_.fs().ValidateCache(
      *file, cached, {PagePath({0, 0}), PagePath({1, 0}), PagePath({0}), PagePath({1})});
  ASSERT_TRUE(check.ok());
  ASSERT_EQ(check->invalid.size(), 1u);
  EXPECT_EQ(check->invalid[0], PagePath({0, 0}));
}

TEST_F(CacheValidationTest, UnknownCachedVersionDiscardsEverything) {
  Capability file = MakeFile(2);
  std::vector<PagePath> paths = {PagePath({0}), PagePath({1})};
  auto check = cluster_.fs().ValidateCache(file, /*cached_head=*/0x0ffffff, paths);
  ASSERT_TRUE(check.ok());
  EXPECT_EQ(check->invalid.size(), paths.size());
}

TEST_F(CacheValidationTest, WrongFilesVersionDiscardsEverything) {
  Capability file_a = MakeFile(1);
  Capability file_b = MakeFile(1);
  BlockNo cached_b = CurrentHead(file_b);
  auto check = cluster_.fs().ValidateCache(file_a, cached_b, {PagePath({0})});
  ASSERT_TRUE(check.ok());
  EXPECT_EQ(check->invalid.size(), 1u);
}

}  // namespace
}  // namespace afs
