#include "src/core/serialise.h"

#include "src/obs/span.h"

namespace afs {

bool FlagsConflict(uint8_t fb, uint8_t fc) {
  const bool b_read = (fb & RefFlag::kRead) != 0;
  const bool b_searched = (fb & RefFlag::kSearched) != 0;
  const bool b_modified = (fb & RefFlag::kModified) != 0;
  const bool c_written = (fc & RefFlag::kWritten) != 0;
  const bool c_searched = (fc & RefFlag::kSearched) != 0;
  const bool c_modified = (fc & RefFlag::kModified) != 0;
  if (b_read && c_written) {
    return true;  // V.b read data V.c wrote
  }
  if (b_searched && c_modified) {
    return true;  // V.b depended on references V.c changed
  }
  if (b_modified && c_searched) {
    return true;  // V.b restructured below; V.c's deeper accesses cannot be aligned
  }
  return false;
}

Serialiser::Serialiser(PrivateLoader load_private,
                       std::function<Result<Page>(BlockNo)> load_committed,
                       MultiLoader load_committed_multi)
    : load_private_(std::move(load_private)),
      load_committed_(std::move(load_committed)),
      load_committed_multi_(std::move(load_committed_multi)) {}

Result<bool> Serialiser::TestAndMerge(BlockNo b_head, Page* b_root, BlockNo c_head,
                                      const Page* c_root_hint) {
  pages_visited_ = 0;
  // commit.validate covers the walk: the test, the merge into V.b's in-memory pages, and
  // the committed pages it reads. Its status is kConflict when the two do not serialise.
  obs::ScopedSpan validate_span("commit.validate", obs::SpanKind::kPhase, b_head, c_head);
  Page c_root;
  if (c_root_hint != nullptr) {
    c_root = *c_root_hint;
  } else {
    ASSIGN_OR_RETURN(c_root, load_committed_(c_head));
  }
  // The root page is always copied in both versions; its access flags are the manager-kept
  // root_flags.
  ASSIGN_OR_RETURN(bool ok, MergePages(b_root->root_flags, b_root, c_root.root_flags, c_root,
                                       /*is_root=*/true));
  if (!ok) {
    validate_span.set_status(static_cast<uint8_t>(ErrorCode::kConflict));
  }
  return ok;
}

Result<bool> Serialiser::MergePages(uint8_t fb, Page* b_page, uint8_t fc, const Page& c_page,
                                    bool is_root) {
  ++pages_visited_;
  if (FlagsConflict(fb, fc)) {
    return false;
  }
  if (!is_root && (b_page->IsVersionPage() || c_page.IsVersionPage())) {
    // A sub-file version page diverged on both sides. The §5.3 locks make this impossible
    // in normal operation; under relaxed super-file locking we refuse conservatively.
    return false;
  }

  // Data: V.b serialises after V.c, so V.b's write wins; V.c's write is adopted only where
  // V.b neither read (checked above) nor wrote.
  const bool b_wrote = (fb & RefFlag::kWritten) != 0;
  const bool c_wrote = (fc & RefFlag::kWritten) != 0;
  if (c_wrote && !b_wrote) {
    b_page->data = c_page.data;
  }

  const bool b_modified = (fb & RefFlag::kModified) != 0;
  const bool c_modified = (fc & RefFlag::kModified) != 0;
  if (c_modified) {
    // V.b never searched this page's references (conflict rule), so V.b has no private
    // copies below it; adopt V.c's reference table wholesale — as shared content, flags
    // cleared (see MergeRefTables on why inherited flags must not survive).
    b_page->refs.clear();
    b_page->refs.reserve(c_page.refs.size());
    for (const PageRef& ref : c_page.refs) {
      b_page->refs.push_back(PageRef{ref.block, 0});
    }
    return true;
  }
  if (b_modified) {
    // Symmetric: V.c never searched here, so its only possible change was the data above.
    return true;
  }
  return MergeRefTables(b_page, c_page);
}

Result<bool> Serialiser::MergeRefTables(Page* b_page, const Page& c_page) {
  if (b_page->refs.size() != c_page.refs.size()) {
    // Neither side has M, so both tables must still have the base version's shape.
    return CorruptError("reference tables differ without modification flags");
  }
  std::vector<size_t> recurse;
  for (size_t i = 0; i < b_page->refs.size(); ++i) {
    const PageRef b_ref = b_page->refs[i];
    const PageRef c_ref = c_page.refs[i];
    if (!c_ref.copied()) {
      continue;  // V.c never touched this subtree; keep V.b's side
    }
    if (!b_ref.copied()) {
      // "replacing unaccessed parts in V.b's page tree by corresponding written parts in
      // V.c's page tree" — graft the committed subtree. The graft is SHARED content that
      // V.b's update never touched, so its flags are cleared: V.c's writes are V.c's, and
      // every later committer tests against V.c itself while walking the chain. Carrying
      // V.c's W flags here would make them look like V.b's writes and re-conflict with
      // updates that were in fact based on top of V.c's commit.
      b_page->refs[i] = PageRef{c_ref.block, 0};
      continue;
    }
    // Both sides copied the child: recurse below, after prefetching every such pair.
    recurse.push_back(i);
  }
  if (recurse.empty()) {
    return true;
  }

  // Prefetch all both-copied committed children of this ref table with one vectored read
  // instead of one RPC per child. (A conflict found at child k means children k+1.. were
  // read needlessly, but reads are side-effect free and the version is discarded on
  // conflict anyway.) V.b's side is in memory.
  std::vector<BlockNo> c_blocks;
  c_blocks.reserve(recurse.size());
  for (size_t i : recurse) {
    c_blocks.push_back(c_page.refs[i].block);
  }
  std::vector<Page> c_children;
  if (load_committed_multi_ != nullptr) {
    ASSIGN_OR_RETURN(c_children, load_committed_multi_(c_blocks));
    if (c_children.size() != c_blocks.size()) {
      return InternalError("committed multi-loader returned wrong page count");
    }
  } else {
    c_children.reserve(c_blocks.size());
    for (BlockNo bno : c_blocks) {
      ASSIGN_OR_RETURN(Page c_child, load_committed_(bno));
      c_children.push_back(std::move(c_child));
    }
  }

  for (size_t j = 0; j < recurse.size(); ++j) {
    const size_t i = recurse[j];
    const PageRef b_ref = b_page->refs[i];
    const PageRef c_ref = c_page.refs[i];
    ASSIGN_OR_RETURN(Page* b_child, load_private_(b_ref.block));
    ASSIGN_OR_RETURN(bool ok, MergePages(b_ref.flags, b_child, c_ref.flags, c_children[j],
                                         /*is_root=*/false));
    if (!ok) {
      return false;
    }
    // The reference keeps V.b's own flags only: V.c's accesses are recorded in V.c's tree,
    // which every later committer tests against while walking the chain.
  }
  return true;
}

}  // namespace afs
