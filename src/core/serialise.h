// The serialisability test and one-pass merge (paper §5.2, Figure 6).
//
// When version V.b (based on V.a) tries to commit but V.a has already been succeeded by a
// committed V.c, the Kung–Robinson condition (2) must hold: the write set of V.c must not
// intersect the read set of V.b. "M.b ... can descend V.c's and V.b's page trees in
// parallel to examine if there is a serialisability conflict. This is tested using the R,
// W, S, M, and C flags in the page references. Note that uncopied parts of the tree in
// either V.b or V.c need not be visited since they can neither have been read nor written."
//
// "While descending the two page trees, checking the serialisability constraint, M.b also
// prepares the new current version, which must contain the updates made in V.c and those
// made in V.b. This is done by replacing unaccessed parts in V.b's page tree by
// corresponding written parts in V.c's page tree." The merge mutates V.b's private pages in
// place — in memory: an uncommitted tree reaches the disk only in the commit flush — while
// committed pages of V.c are only read (and possibly shared into V.b's tree).
//
// Conflict rule at an aligned reference pair (b = to-commit, c = committed successor):
//   * data conflict       b.R ∧ c.W   — V.b read data V.c wrote
//   * structure conflict  b.S ∧ c.M   — V.b searched references V.c modified
//   * structure conflict  b.M ∧ c.S   — V.b modified references V.c's update depended on
//                                        (index alignment below this page is lost, so the
//                                        trees cannot be merged)
// Write/write on the same page is NOT a conflict: blind writes serialise, V.b's data wins
// (it is serialised after V.c).
//
// Flags after the merge: V.b's tree keeps only V.b's OWN access flags; grafted or adopted
// content from V.c enters with cleared flags (shared). This is sufficient for correctness
// because a later committer V.d tests against EVERY committed version after its base while
// walking the chain — V.c's writes are judged against V.c's own tree, not V.b's. Carrying
// V.c's flags forward would make pipelined disjoint updates conflict spuriously with
// writes their own base already included. One consequence: a version that merged contains
// content its flags do not mark as written, so the §5.1 reshare rule must be skipped for
// merged commits (FileServer::CommitSegment does).

#ifndef SRC_CORE_SERIALISE_H_
#define SRC_CORE_SERIALISE_H_

#include <functional>
#include <span>
#include <vector>

#include "src/core/page.h"

namespace afs {

class Serialiser {
 public:
  // V.b's private pages — every page its tree reaches through a copied reference — looked
  // up by (possibly provisional) number. The merge rewrites them in place.
  using PrivateLoader = std::function<Result<Page*>(BlockNo)>;
  // Vectored form of `load_committed`: result[i] corresponds to blocks[i], all-or-nothing.
  using MultiLoader = std::function<Result<std::vector<Page>>(std::span<const BlockNo>)>;

  // `load_committed` reads committed (immutable) pages, possibly through the server's
  // committed-page cache. `load_committed_multi`, when provided, lets the merge prefetch
  // all of a ref table's both-copied committed children in one vectored read instead of
  // one RPC per child.
  Serialiser(PrivateLoader load_private, std::function<Result<Page>(BlockNo)> load_committed,
             MultiLoader load_committed_multi = nullptr);

  // Test V.b (root page *b_root, whose head is b_head) against committed successor V.c (at
  // block c_head). On success (returns true) V.b's tree — *b_root and its private pages —
  // has been merged in place, for the caller to write out. Returns false on a
  // serialisability conflict; V.b's pages may then be partly merged, and the caller
  // removes the version. Errors are I/O or corruption.
  //
  // `c_root_hint`, when non-null, is V.c's root page as persisted at its commit; the walk
  // uses it instead of reading c_head, saving the root RPC. Only the flags, references and
  // data of the hint are consulted (mutable header fields — commit reference, locks — play
  // no role in the test), so a snapshot taken at commit time stays valid.
  Result<bool> TestAndMerge(BlockNo b_head, Page* b_root, BlockNo c_head,
                            const Page* c_root_hint = nullptr);

  // Pages visited on both sides during the last TestAndMerge — the paper's claim C3 is
  // that this tracks accessed-set size, not file size.
  uint64_t pages_visited() const { return pages_visited_; }

 private:
  Result<bool> MergePages(uint8_t fb, Page* b_page, uint8_t fc, const Page& c_page,
                          bool is_root);
  Result<bool> MergeRefTables(Page* b_page, const Page& c_page);

  PrivateLoader load_private_;
  std::function<Result<Page>(BlockNo)> load_committed_;
  MultiLoader load_committed_multi_;
  uint64_t pages_visited_ = 0;
};

// True iff the flag pair conflicts under the rule above.
bool FlagsConflict(uint8_t fb, uint8_t fc);

}  // namespace afs

#endif  // SRC_CORE_SERIALISE_H_
