// White-box tests of the Serialiser (§5.2): hand-built page trees exercising each rule of
// the test-and-merge matrix — grafts, keeps, data adoption, reference-table adoption,
// conflicts, flag unions, and recursion depth.

#include <gtest/gtest.h>

#include <unordered_map>

#include "src/block/block_store.h"
#include "src/core/page_store.h"
#include "src/core/serialise.h"

namespace afs {
namespace {

std::vector<uint8_t> Bytes(std::string_view s) {
  return std::vector<uint8_t>(s.begin(), s.end());
}

class SerialiserTest : public ::testing::Test {
 protected:
  SerialiserTest() : blocks_(4068, 1 << 16), pages_(&blocks_) {}

  BlockNo Put(const Page& page) {
    auto head = pages_.WritePage(page);
    EXPECT_TRUE(head.ok());
    return *head;
  }

  Page Leaf(std::string_view data, BlockNo base = kNilRef) {
    Page page;
    page.kind = PageKind::kPlain;
    page.base_ref = base;
    page.data = Bytes(data);
    return page;
  }

  // A version page (root) whose refs are given.
  Page Root(std::vector<PageRef> refs, uint8_t root_flags, std::string_view data = "") {
    Page page;
    page.kind = PageKind::kVersion;
    page.root_flags = NormalizeFlags(root_flags);
    page.refs = std::move(refs);
    page.data = Bytes(data);
    return page;
  }

  // V.b's private pages live in memory (the file server's private page table); this
  // fixture loads each from the store on first use and merges it in `private_`.
  Serialiser MakeSerialiser() {
    return Serialiser(
        [this](BlockNo bno) -> Result<Page*> {
          auto it = private_.find(bno);
          if (it == private_.end()) {
            ASSIGN_OR_RETURN(Page page, pages_.ReadPage(bno));
            it = private_.emplace(bno, std::move(page)).first;
          }
          return &it->second;
        },
        [this](BlockNo bno) { return pages_.ReadPage(bno); });
  }

  // V.b's page at `bno` after the merge.
  const Page& Private(BlockNo bno) { return private_.at(bno); }

  // Runs TestAndMerge with persisted b root; returns (ok, merged root).
  std::pair<Result<bool>, Page> Run(Page b_root, const Page& c_root) {
    BlockNo b_head = Put(b_root);
    BlockNo c_head = Put(c_root);
    Serialiser serialiser = MakeSerialiser();
    auto verdict = serialiser.TestAndMerge(b_head, &b_root, c_head);
    return {std::move(verdict), b_root};
  }

  InMemoryBlockStore blocks_;
  PageStore pages_;
  std::unordered_map<BlockNo, Page> private_;
};

constexpr uint8_t kC = RefFlag::kCopied;
constexpr uint8_t kR = RefFlag::kCopied | RefFlag::kRead;
constexpr uint8_t kW = RefFlag::kCopied | RefFlag::kWritten;
constexpr uint8_t kS = RefFlag::kCopied | RefFlag::kSearched;
constexpr uint8_t kM = RefFlag::kCopied | RefFlag::kSearched | RefFlag::kModified;

TEST_F(SerialiserTest, DisjointWritesGraftCommittedSide) {
  BlockNo shared0 = Put(Leaf("old0"));
  BlockNo shared1 = Put(Leaf("old1"));
  // V.b wrote a copy of leaf 1; V.c wrote a copy of leaf 0.
  BlockNo b1 = Put(Leaf("b-new1", shared1));
  BlockNo c0 = Put(Leaf("c-new0", shared0));
  Page b = Root({{shared0, 0}, {b1, kW}}, kC | RefFlag::kSearched);
  Page c = Root({{c0, kW}, {shared1, 0}}, kC | RefFlag::kSearched);
  auto [ok, merged] = Run(b, c);
  ASSERT_TRUE(ok.ok());
  EXPECT_TRUE(*ok);
  // Merged tree: c's written leaf grafted at 0 (as shared content — the graft's flags are
  // cleared because those writes are V.c's, recorded in V.c's own tree), b's kept at 1.
  EXPECT_EQ(merged.refs[0].block, c0);
  EXPECT_EQ(merged.refs[0].flags, 0);
  EXPECT_EQ(merged.refs[1].block, b1);
  EXPECT_TRUE(merged.refs[1].written());
}

TEST_F(SerialiserTest, ReadVsWriteConflictDetected) {
  BlockNo shared = Put(Leaf("v"));
  BlockNo b_copy = Put(Leaf("v", shared));  // b only read it (copy for flag init)
  BlockNo c_copy = Put(Leaf("c!", shared));
  Page b = Root({{b_copy, kR}}, kS);
  Page c = Root({{c_copy, kW}}, kS);
  auto [ok, merged] = Run(b, c);
  (void)merged;
  ASSERT_TRUE(ok.ok());
  EXPECT_FALSE(*ok);
}

TEST_F(SerialiserTest, BlindWriteWriteMergesToCommitterData) {
  BlockNo shared = Put(Leaf("orig"));
  BlockNo b_copy = Put(Leaf("b-data", shared));
  BlockNo c_copy = Put(Leaf("c-data", shared));
  Page b = Root({{b_copy, kW}}, kS);
  Page c = Root({{c_copy, kW}}, kS);
  auto [ok, merged] = Run(b, c);
  ASSERT_TRUE(ok.ok());
  EXPECT_TRUE(*ok);
  // V.b serialises after V.c: b's blind write wins, b's page stays.
  EXPECT_EQ(merged.refs[0].block, b_copy);
  EXPECT_EQ(pages_.ReadPage(b_copy)->data, Bytes("b-data"));
}

TEST_F(SerialiserTest, RootDataAdoptedWhenOnlyCommittedWroteIt) {
  Page b = Root({}, kC, "b-did-not-touch");
  b.data = Bytes("base data");
  Page c = Root({}, kC | RefFlag::kWritten, "c wrote this");
  auto [ok, merged] = Run(b, c);
  ASSERT_TRUE(ok.ok());
  EXPECT_TRUE(*ok);
  EXPECT_EQ(merged.data, Bytes("c wrote this"));
}

TEST_F(SerialiserTest, RootReadVsRootWriteConflicts) {
  Page b = Root({}, kC | RefFlag::kRead);
  Page c = Root({}, kC | RefFlag::kWritten, "new");
  auto [ok, merged] = Run(b, c);
  (void)merged;
  ASSERT_TRUE(ok.ok());
  EXPECT_FALSE(*ok);
}

TEST_F(SerialiserTest, CommittedRestructureAdoptedWhenUncommittedNeverSearched) {
  BlockNo c_child = Put(Leaf("inserted"));
  Page b = Root({}, kC | RefFlag::kWritten, "b data");  // b only wrote root data
  Page c = Root({{c_child, kW}}, kC | RefFlag::kSearched | RefFlag::kModified);
  auto [ok, merged] = Run(b, c);
  ASSERT_TRUE(ok.ok());
  EXPECT_TRUE(*ok);
  // c's new reference table adopted wholesale; b's data kept.
  ASSERT_EQ(merged.refs.size(), 1u);
  EXPECT_EQ(merged.refs[0].block, c_child);
  EXPECT_EQ(merged.data, Bytes("b data"));
}

TEST_F(SerialiserTest, SearchVsModifyConflicts) {
  BlockNo b_child = Put(Leaf("x"));
  BlockNo c_child = Put(Leaf("y"));
  Page b = Root({{b_child, kR}}, kS);                       // b searched the root's refs
  Page c = Root({{c_child, kW}, {c_child, 0}}, kM);         // c restructured them
  auto [ok, merged] = Run(b, c);
  (void)merged;
  ASSERT_TRUE(ok.ok());
  EXPECT_FALSE(*ok);
}

TEST_F(SerialiserTest, BothModifyConflicts) {
  Page b = Root({}, kM);
  Page c = Root({}, kM);
  auto [ok, merged] = Run(b, c);
  (void)merged;
  ASSERT_TRUE(ok.ok());
  EXPECT_FALSE(*ok);
}

TEST_F(SerialiserTest, UncommittedRestructureKeptWhenCommittedOnlyWroteData) {
  BlockNo b_child = Put(Leaf("b inserted"));
  Page b = Root({{b_child, kW}}, kM);
  Page c = Root({}, kC | RefFlag::kWritten, "c data");
  auto [ok, merged] = Run(b, c);
  ASSERT_TRUE(ok.ok());
  EXPECT_TRUE(*ok);
  ASSERT_EQ(merged.refs.size(), 1u);
  EXPECT_EQ(merged.refs[0].block, b_child);
  EXPECT_EQ(merged.data, Bytes("c data"));  // adopted: b never touched root data
}

TEST_F(SerialiserTest, DeepConflictFoundThroughSharedInterior) {
  // Both sides copied the same interior page; the conflict is one level down.
  BlockNo leaf = Put(Leaf("deep"));
  BlockNo b_leaf_copy = Put(Leaf("deep", leaf));
  BlockNo c_leaf_copy = Put(Leaf("changed", leaf));
  Page b_mid;
  b_mid.refs = {{b_leaf_copy, kR}};
  Page c_mid;
  c_mid.refs = {{c_leaf_copy, kW}};
  BlockNo b_mid_head = Put(b_mid);
  BlockNo c_mid_head = Put(c_mid);
  Page b = Root({{b_mid_head, kS}}, kS);
  Page c = Root({{c_mid_head, kS}}, kS);
  auto [ok, merged] = Run(b, c);
  (void)merged;
  ASSERT_TRUE(ok.ok());
  EXPECT_FALSE(*ok);
}

TEST_F(SerialiserTest, DeepDisjointMergeRewritesInteriorInPlace) {
  BlockNo b_leaf = Put(Leaf("b-wrote"));
  BlockNo c_leaf = Put(Leaf("c-wrote"));
  Page b_mid;
  b_mid.refs = {{b_leaf, kW}, {kNilRef, 0}};
  Page c_mid;
  c_mid.refs = {{kNilRef, 0}, {c_leaf, kW}};
  // Align the two mid pages: both are copies of the same base mid page.
  BlockNo b_mid_head = Put(b_mid);
  BlockNo c_mid_head = Put(c_mid);
  Page b = Root({{b_mid_head, kS}}, kS);
  Page c = Root({{c_mid_head, kS}}, kS);
  auto [ok, merged] = Run(b, c);
  ASSERT_TRUE(ok.ok());
  ASSERT_TRUE(*ok);
  // b's interior page was merged in place: slot 1 now grafts c's leaf.
  const Page& merged_mid = Private(merged.refs[0].block);
  EXPECT_EQ(merged_mid.refs[0].block, b_leaf);
  EXPECT_EQ(merged_mid.refs[1].block, c_leaf);
}

TEST_F(SerialiserTest, MergedTreeKeepsOnlyOwnFlags) {
  BlockNo b_leaf = Put(Leaf("b"));
  BlockNo c_leaf = Put(Leaf("c"));
  Page b_mid;
  b_mid.refs = {{b_leaf, kW}};
  Page c_mid;
  c_mid.refs = {{c_leaf, 0}};
  c_mid.data = Bytes("c mid data");
  BlockNo b_mid_head = Put(b_mid);
  BlockNo c_mid_head = Put(c_mid);
  Page b = Root({{b_mid_head, kS}}, kS);
  Page c = Root({{c_mid_head, static_cast<uint8_t>(kS | RefFlag::kWritten)}}, kS);
  auto [ok, merged] = Run(b, c);
  ASSERT_TRUE(ok.ok());
  ASSERT_TRUE(*ok);
  // The merged reference keeps V.b's own flags (S, from its descent); V.c's W is NOT
  // inherited — later committers test against V.c's own tree on their chain walk.
  EXPECT_TRUE(merged.refs[0].searched());
  EXPECT_FALSE(merged.refs[0].written());
  EXPECT_TRUE(FlagsValid(merged.refs[0].flags));
  // And c's mid-page data was adopted (b never wrote that page's data).
  EXPECT_EQ(Private(merged.refs[0].block).data, Bytes("c mid data"));
}

TEST_F(SerialiserTest, UntouchedSidesNeverVisited) {
  // A wide root where only one slot was accessed on each side: visits must stay small.
  std::vector<PageRef> b_refs(100), c_refs(100);
  for (int i = 0; i < 100; ++i) {
    BlockNo shared = Put(Leaf("s" + std::to_string(i)));
    b_refs[i] = {shared, 0};
    c_refs[i] = {shared, 0};
  }
  b_refs[7] = {Put(Leaf("b")), kW};
  c_refs[63] = {Put(Leaf("c")), kW};
  Page b = Root(b_refs, kS);
  Page c = Root(c_refs, kS);
  BlockNo b_head = Put(b);
  BlockNo c_head = Put(c);
  Serialiser serialiser = MakeSerialiser();
  auto ok = serialiser.TestAndMerge(b_head, &b, c_head);
  ASSERT_TRUE(ok.ok());
  EXPECT_TRUE(*ok);
  // Only the two roots were visited; no leaf was loaded.
  EXPECT_EQ(serialiser.pages_visited(), 1u);
}

TEST_F(SerialiserTest, MismatchedTablesWithoutModifyFlagIsCorruption) {
  Page b = Root({{Put(Leaf("x")), kW}}, kS);
  Page c = Root({}, kS);
  auto [ok, merged] = Run(b, c);
  (void)merged;
  EXPECT_FALSE(ok.ok());
  EXPECT_EQ(ok.status().code(), ErrorCode::kCorrupt);
}

}  // namespace
}  // namespace afs
