// FileServer operations: file/version lifecycle, page access, the optimistic commit of
// §5.2, super-file commit completion (§5.3), the §5.1 reshare rule, and the §5.4 cache
// validation test.

#include <algorithm>
#include <mutex>

#include "src/base/wire.h"
#include "src/core/file_server.h"
#include "src/core/serialise.h"

namespace afs {

// Looks up the uncommitted version `head` and locks its op mutex. Returns nullptr info if
// the version is not managed here (committed snapshot or lost in a crash) — callers decide
// whether that is a read-only path or an error.
Result<FileServer::VersionOpGuard> FileServer::AcquireVersionOp(BlockNo head) {
  std::shared_ptr<std::mutex> op_mu;
  {
    std::lock_guard<std::mutex> lock(versions_mu_);
    auto it = uncommitted_.find(head);
    if (it == uncommitted_.end()) {
      return VersionOpGuard{};
    }
    op_mu = it->second.op_mu;
  }
  VersionOpGuard op;
  op.mu = op_mu;
  op.lock = std::unique_lock<std::mutex>(*op_mu);
  {
    // Re-validate under the op lock: an abort may have raced us.
    std::lock_guard<std::mutex> lock(versions_mu_);
    auto it = uncommitted_.find(head);
    if (it == uncommitted_.end()) {
      op.lock.unlock();
      return VersionOpGuard{};
    }
    op.info = &it->second;
  }
  return op;
}

// ---------------------------------------------------------------------------
// File lifecycle
// ---------------------------------------------------------------------------

Result<Capability> FileServer::CreateFile() {
  std::shared_lock<std::shared_mutex> ops_gate(ops_gate_);
  uint64_t file_id;
  {
    std::lock_guard<std::mutex> lock(table_mu_);
    file_id = MintFileIdLocked();
  }
  Capability file_cap = SignFileCap(file_id);

  // The initial committed version: an empty root page.
  Page root;
  root.kind = PageKind::kVersion;
  root.file_cap = file_cap;
  root.root_flags = RefFlag::kCopied;  // "The root page is always copied, by the way."
  ASSIGN_OR_RETURN(BlockNo head, pages_.WritePage(root));
  root.version_cap = SignVersionCap(head);
  RETURN_IF_ERROR(pages_.OverwritePage(head, root));

  ASSIGN_OR_RETURN(Port block_lock, AcquireBlockLock(table_head_));
  Status st;
  {
    std::lock_guard<std::mutex> lock(table_mu_);
    st = LoadFileTable();
    if (st.ok()) {
      files_[file_id] = FileEntry{file_id, head, false};
      st = PersistFileTableLocked();
      if (st.ok()) {
        current_cache_[file_id] = head;
      }
    }
  }
  ReleaseBlockLock(table_head_, block_lock);
  RETURN_IF_ERROR(st);
  return file_cap;
}

Status FileServer::DeleteFile(const Capability& file) {
  std::shared_lock<std::shared_mutex> ops_gate(ops_gate_);
  uint64_t file_id;
  RETURN_IF_ERROR(VerifyFileCap(file, Rights::kDestroy, &file_id));
  ASSIGN_OR_RETURN(Port block_lock, AcquireBlockLock(table_head_));
  Status st;
  {
    std::lock_guard<std::mutex> lock(table_mu_);
    st = LoadFileTable();
    if (st.ok()) {
      if (files_.erase(file_id) == 0) {
        st = NotFoundError("no such file");
      } else {
        current_cache_.erase(file_id);
        st = PersistFileTableLocked();
      }
    }
  }
  ReleaseBlockLock(table_head_, block_lock);
  if (st.ok()) {
    index_.ForgetFile(file_id);
  }
  return st;  // pages become unreachable; the garbage collector reclaims them
}

Result<Capability> FileServer::GetCurrentVersion(const Capability& file) {
  uint64_t file_id;
  RETURN_IF_ERROR(VerifyFileCap(file, Rights::kRead, &file_id));
  ASSIGN_OR_RETURN(BlockNo cur, FindCurrentHead(file_id));
  Capability cap = SignVersionCap(cur);
  // Committed snapshots are served by any group member; rights restricted to read.
  auto restricted = version_signer_.Restrict(cap, Rights::kRead);
  if (restricted.ok()) {
    restricted->port = port();
    return *restricted;
  }
  return cap;
}

Result<Capability> FileServer::CreateVersion(const Capability& file, Port owner_port,
                                             bool respect_soft_lock) {
  std::shared_lock<std::shared_mutex> ops_gate(ops_gate_);
  uint64_t file_id;
  RETURN_IF_ERROR(VerifyFileCap(file, Rights::kWrite | Rights::kCreate, &file_id));
  FileEntry entry;
  {
    std::lock_guard<std::mutex> lock(table_mu_);
    ASSIGN_OR_RETURN(entry, LookupFileLocked(file_id));
  }
  // A lock must name a port so waiters can detect a dead holder; an anonymous update is
  // keyed to this server's own port (dies with the server, which is exactly right).
  Port owner = owner_port != kNullPort ? owner_port : port();

  // The head block comes first: the version capability embeds its number, so the head is
  // written once, capability included, under the base's block lock. Nothing below the
  // head is written before the commit flush.
  ASSIGN_OR_RETURN(std::vector<BlockNo> reserved, pages_.AllocBlocks(1));
  VersionInfo info;
  info.file_id = file_id;
  info.head = reserved[0];
  info.owner = owner;
  info.is_super_update = entry.is_super;
  Status locked = AcquireUpdateLocks(file_id, entry.is_super, owner, respect_soft_lock,
                                     info.head, &info);
  if (!locked.ok()) {
    (void)pages_.blocks()->FreeMulti(reserved);
    return locked;
  }
  info.allocated_blocks.push_back(info.head);
  Capability cap = info.root.version_cap;
  {
    std::lock_guard<std::mutex> lock(versions_mu_);
    uncommitted_.emplace(info.head, std::move(info));
  }
  return cap;
}

// ---------------------------------------------------------------------------
// Page access
// ---------------------------------------------------------------------------

Result<FileServer::ReadResult> FileServer::ReadPage(const Capability& version,
                                                    const PagePath& path, bool want_refs) {
  BlockNo head;
  RETURN_IF_ERROR(VerifyVersionCap(version, Rights::kRead, &head));
  ASSIGN_OR_RETURN(VersionOpGuard op, AcquireVersionOp(head));
  uint8_t access = RefFlag::kRead;
  if (want_refs) {
    access |= RefFlag::kSearched;
  }
  ASSIGN_OR_RETURN(std::vector<WalkStep> steps,
                   WalkPath(op.info, head, path, access, /*materialize_target=*/false));
  ReadResult out;
  out.nrefs = static_cast<uint32_t>(steps.back().page.refs.size());
  out.data = steps.back().page.data;
  return out;
}

Status FileServer::WritePage(const Capability& version, const PagePath& path,
                             std::span<const uint8_t> data) {
  std::shared_lock<std::shared_mutex> ops_gate(ops_gate_);
  BlockNo head;
  RETURN_IF_ERROR(VerifyVersionCap(version, Rights::kWrite, &head));
  ASSIGN_OR_RETURN(VersionOpGuard op, AcquireVersionOp(head));
  if (op.info == nullptr) {
    return ReadOnlyError("version is committed or not managed by this server");
  }
  ASSIGN_OR_RETURN(std::vector<WalkStep> steps,
                   WalkPath(op.info, head, path, RefFlag::kWritten, /*materialize_target=*/true));
  WalkStep& target = steps.back();
  target.page.data.assign(data.begin(), data.end());
  if (target.page.SerializedSize() > kMaxPageBytes) {
    return InvalidArgumentError("page would exceed 32K transaction limit");
  }
  target.dirty = true;
  return PersistSteps(op.info, &steps);
}

Status FileServer::InsertRef(const Capability& version, const PagePath& parent,
                             uint32_t index) {
  std::shared_lock<std::shared_mutex> ops_gate(ops_gate_);
  BlockNo head;
  RETURN_IF_ERROR(VerifyVersionCap(version, Rights::kWrite, &head));
  ASSIGN_OR_RETURN(VersionOpGuard op, AcquireVersionOp(head));
  if (op.info == nullptr) {
    return ReadOnlyError("version is committed or not managed by this server");
  }
  ASSIGN_OR_RETURN(std::vector<WalkStep> steps,
                   WalkPath(op.info, head, parent,
                            RefFlag::kSearched | RefFlag::kModified,
                            /*materialize_target=*/false));
  WalkStep& target = steps.back();
  if (index > target.page.refs.size()) {
    return InvalidArgumentError("insert index beyond reference table");
  }
  target.page.refs.insert(target.page.refs.begin() + index, PageRef{kNilRef, 0});
  if (target.page.SerializedSize() > kMaxPageBytes) {
    return InvalidArgumentError("page would exceed 32K transaction limit");
  }
  target.dirty = true;
  return PersistSteps(op.info, &steps);
}

Status FileServer::RemoveRef(const Capability& version, const PagePath& parent,
                             uint32_t index) {
  std::shared_lock<std::shared_mutex> ops_gate(ops_gate_);
  BlockNo head;
  RETURN_IF_ERROR(VerifyVersionCap(version, Rights::kWrite, &head));
  ASSIGN_OR_RETURN(VersionOpGuard op, AcquireVersionOp(head));
  if (op.info == nullptr) {
    return ReadOnlyError("version is committed or not managed by this server");
  }
  ASSIGN_OR_RETURN(std::vector<WalkStep> steps,
                   WalkPath(op.info, head, parent,
                            RefFlag::kSearched | RefFlag::kModified,
                            /*materialize_target=*/false));
  WalkStep& target = steps.back();
  if (index >= target.page.refs.size()) {
    return InvalidArgumentError("remove index beyond reference table");
  }
  target.page.refs.erase(target.page.refs.begin() + index);
  target.dirty = true;
  return PersistSteps(op.info, &steps);
}

Result<std::vector<uint8_t>> FileServer::ReadRefs(const Capability& version,
                                                  const PagePath& path) {
  BlockNo head;
  RETURN_IF_ERROR(VerifyVersionCap(version, Rights::kRead, &head));
  ASSIGN_OR_RETURN(VersionOpGuard op, AcquireVersionOp(head));
  ASSIGN_OR_RETURN(std::vector<WalkStep> steps,
                   WalkPath(op.info, head, path, RefFlag::kSearched,
                            /*materialize_target=*/false));
  std::vector<uint8_t> masks;
  masks.reserve(steps.back().page.refs.size());
  for (const PageRef& ref : steps.back().page.refs) {
    masks.push_back(ref.flags);
  }
  return masks;
}

Status FileServer::MoveSubtree(const Capability& version, const PagePath& from,
                               const PagePath& to_parent, uint32_t index) {
  std::shared_lock<std::shared_mutex> ops_gate(ops_gate_);
  BlockNo head;
  RETURN_IF_ERROR(VerifyVersionCap(version, Rights::kWrite, &head));
  if (from.IsRoot()) {
    return InvalidArgumentError("cannot move the root page");
  }
  if (from.IsPrefixOf(to_parent)) {
    return InvalidArgumentError("destination lies inside the moved subtree");
  }
  ASSIGN_OR_RETURN(VersionOpGuard op, AcquireVersionOp(head));
  if (op.info == nullptr) {
    return ReadOnlyError("version is committed or not managed by this server");
  }
  const PagePath src_parent = from.Parent();
  if (src_parent == to_parent) {
    // Same parent page: remove and reinsert in one walk. The destination index is
    // interpreted against the post-removal table.
    ASSIGN_OR_RETURN(std::vector<WalkStep> steps,
                     WalkPath(op.info, head, src_parent,
                              RefFlag::kSearched | RefFlag::kModified,
                              /*materialize_target=*/false));
    WalkStep& page = steps.back();
    if (from.LastIndex() >= page.page.refs.size()) {
      return InvalidArgumentError("source index beyond reference table");
    }
    PageRef moved = page.page.refs[from.LastIndex()];
    page.page.refs.erase(page.page.refs.begin() + from.LastIndex());
    if (index > page.page.refs.size()) {
      return InvalidArgumentError("destination index beyond reference table");
    }
    page.page.refs.insert(page.page.refs.begin() + index, moved);
    page.dirty = true;
    return PersistSteps(op.info, &steps);
  }

  // Detach from the source parent.
  ASSIGN_OR_RETURN(std::vector<WalkStep> src_steps,
                   WalkPath(op.info, head, src_parent,
                            RefFlag::kSearched | RefFlag::kModified,
                            /*materialize_target=*/false));
  WalkStep& src = src_steps.back();
  if (from.LastIndex() >= src.page.refs.size()) {
    return InvalidArgumentError("source index beyond reference table");
  }
  PageRef moved = src.page.refs[from.LastIndex()];
  src.page.refs.erase(src.page.refs.begin() + from.LastIndex());
  src.dirty = true;
  RETURN_IF_ERROR(PersistSteps(op.info, &src_steps));

  // The removal shifted the source page's sibling indices; if the destination path passes
  // through the source parent at a higher index, re-address it.
  PagePath adjusted = to_parent;
  if (src_parent.IsPrefixOf(to_parent) && to_parent.depth() > src_parent.depth()) {
    std::vector<uint32_t> indices = to_parent.indices();
    uint32_t& component = indices[src_parent.depth()];
    if (component > from.LastIndex()) {
      --component;
    }
    adjusted = PagePath(std::move(indices));
  }

  // Attach at the destination parent (re-walked; the source persist is already visible).
  ASSIGN_OR_RETURN(std::vector<WalkStep> dst_steps,
                   WalkPath(op.info, head, adjusted,
                            RefFlag::kSearched | RefFlag::kModified,
                            /*materialize_target=*/false));
  WalkStep& dst = dst_steps.back();
  if (index > dst.page.refs.size()) {
    return InvalidArgumentError("destination index beyond reference table");
  }
  dst.page.refs.insert(dst.page.refs.begin() + index, moved);
  if (dst.page.SerializedSize() > kMaxPageBytes) {
    return InvalidArgumentError("page would exceed 32K transaction limit");
  }
  dst.dirty = true;
  return PersistSteps(op.info, &dst_steps);
}

Status FileServer::SplitPage(const Capability& version, const PagePath& path,
                             uint32_t data_offset, uint32_t ref_index) {
  std::shared_lock<std::shared_mutex> ops_gate(ops_gate_);
  BlockNo head;
  RETURN_IF_ERROR(VerifyVersionCap(version, Rights::kWrite, &head));
  if (path.IsRoot()) {
    return InvalidArgumentError("cannot split the root page (no parent for the sibling)");
  }
  ASSIGN_OR_RETURN(VersionOpGuard op, AcquireVersionOp(head));
  if (op.info == nullptr) {
    return ReadOnlyError("version is committed or not managed by this server");
  }
  // Materialise the target with write+modify access (its data and references both change);
  // the walk marks the parent searched and will be marked modified below.
  ASSIGN_OR_RETURN(std::vector<WalkStep> steps,
                   WalkPath(op.info, head, path,
                            RefFlag::kWritten | RefFlag::kSearched | RefFlag::kModified,
                            /*materialize_target=*/false));
  WalkStep& target = steps.back();
  WalkStep& parent = steps[steps.size() - 2];
  if (data_offset > target.page.data.size()) {
    return InvalidArgumentError("split offset beyond page data");
  }
  if (ref_index > target.page.refs.size()) {
    return InvalidArgumentError("split index beyond reference table");
  }

  // The new sibling takes the tails.
  Page sibling;
  sibling.kind = PageKind::kPlain;
  sibling.data.assign(target.page.data.begin() + data_offset, target.page.data.end());
  sibling.refs.assign(target.page.refs.begin() + ref_index, target.page.refs.end());
  ASSIGN_OR_RETURN(BlockNo sibling_bno, AddPrivatePage(op.info, std::move(sibling)));

  target.page.data.resize(data_offset);
  target.page.refs.resize(ref_index);
  target.dirty = true;

  uint32_t target_index = path.LastIndex();
  PageRef sibling_ref{sibling_bno,
                      NormalizeFlags(RefFlag::kCopied | RefFlag::kWritten |
                                     RefFlag::kModified)};
  parent.page.refs.insert(parent.page.refs.begin() + target_index + 1, sibling_ref);
  PageRef target_ref = parent.page.refs[target_index];
  target_ref.flags = NormalizeFlags(target_ref.flags | RefFlag::kModified);
  parent.page.refs[target_index] = target_ref;
  if (parent.page.SerializedSize() > kMaxPageBytes) {
    return InvalidArgumentError("parent page would exceed 32K transaction limit");
  }
  // The parent's own reference table changed: mark it modified in ITS parent (or the
  // root flags when the parent is the root).
  if (steps.size() >= 3) {
    WalkStep& grandparent = steps[steps.size() - 3];
    uint32_t parent_index = path.Parent().LastIndex();
    PageRef parent_ref = grandparent.page.refs[parent_index];
    parent_ref.flags = NormalizeFlags(parent_ref.flags | RefFlag::kModified);
    grandparent.page.refs[parent_index] = parent_ref;
    grandparent.dirty = true;
  } else {
    steps[0].page.root_flags =
        NormalizeFlags(steps[0].page.root_flags | RefFlag::kModified);
  }
  parent.dirty = true;
  return PersistSteps(op.info, &steps);
}

Result<Capability> FileServer::CreateSubFile(const Capability& version, const PagePath& parent,
                                             uint32_t index) {
  std::shared_lock<std::shared_mutex> ops_gate(ops_gate_);
  BlockNo head;
  RETURN_IF_ERROR(VerifyVersionCap(version, Rights::kWrite, &head));
  ASSIGN_OR_RETURN(VersionOpGuard op, AcquireVersionOp(head));
  if (op.info == nullptr) {
    return ReadOnlyError("version is committed or not managed by this server");
  }
  ASSIGN_OR_RETURN(std::vector<WalkStep> steps,
                   WalkPath(op.info, head, parent,
                            RefFlag::kSearched | RefFlag::kModified,
                            /*materialize_target=*/false));
  WalkStep& target = steps.back();
  if (index > target.page.refs.size()) {
    return InvalidArgumentError("insert index beyond reference table");
  }

  uint64_t sub_id;
  {
    std::lock_guard<std::mutex> lock(table_mu_);
    sub_id = MintFileIdLocked();
  }
  Capability sub_cap = SignFileCap(sub_id);
  Page sub_root;
  sub_root.kind = PageKind::kVersion;
  sub_root.file_cap = sub_cap;
  sub_root.parent_ref = head;
  sub_root.root_flags = RefFlag::kCopied;
  // Inner-locked from birth: the sub-file only becomes updatable by others once the
  // enclosing super-file update commits or aborts.
  sub_root.inner_lock = op.info->owner;
  // Unlike the pages below it, the sub-file's root is written now: the file table names it
  // (registered below). Later changes to it stay in the private page table until commit.
  ASSIGN_OR_RETURN(BlockNo sub_head, pages_.WritePage(sub_root));
  sub_root.version_cap = SignVersionCap(sub_head);
  RETURN_IF_ERROR(pages_.OverwritePage(sub_head, sub_root));
  op.info->allocated_blocks.push_back(sub_head);
  op.info->pages.emplace(sub_head, sub_root);
  op.info->locked_subfiles.push_back(sub_head);
  op.info->created_subfiles.push_back(sub_id);
  op.info->is_super_update = true;

  target.page.refs.insert(target.page.refs.begin() + index,
                          PageRef{sub_head, RefFlag::kCopied});
  if (target.page.SerializedSize() > kMaxPageBytes) {
    return InvalidArgumentError("page would exceed 32K transaction limit");
  }
  target.dirty = true;
  RETURN_IF_ERROR(PersistSteps(op.info, &steps));

  // Register the sub-file and mark the enclosing file as a super-file.
  ASSIGN_OR_RETURN(Port block_lock, AcquireBlockLock(table_head_));
  Status st;
  {
    std::lock_guard<std::mutex> lock(table_mu_);
    st = LoadFileTable();
    if (st.ok()) {
      files_[sub_id] = FileEntry{sub_id, sub_head, false};
      auto it = files_.find(op.info->file_id);
      if (it != files_.end()) {
        it->second.is_super = true;
      }
      st = PersistFileTableLocked();
      if (st.ok()) {
        current_cache_[sub_id] = sub_head;
      }
    }
  }
  ReleaseBlockLock(table_head_, block_lock);
  RETURN_IF_ERROR(st);
  return sub_cap;
}

}  // namespace afs
