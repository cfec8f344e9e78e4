#include "src/client/file_client.h"

#include <functional>

#include "src/base/wire.h"
#include "src/block/block_store.h"
#include "src/core/protocol.h"
#include "src/obs/slo.h"
#include "src/obs/span.h"
#include "src/rpc/client.h"

namespace afs {
namespace {

bool IsConnectivityError(const Status& s) {
  switch (s.code()) {
    case ErrorCode::kCrashed:
    case ErrorCode::kTimeout:
    case ErrorCode::kUnavailable:
      return true;
    default:
      return false;
  }
}

}  // namespace

FileClient::FileClient(Transport* transport, std::vector<Port> servers)
    : transport_(transport),
      servers_(std::move(servers)),
      slo_commit_(obs::SloTracker::Global()->ClassHistogram("client.commit")),
      slo_read_(obs::SloTracker::Global()->ClassHistogram("client.read")),
      slo_write_(obs::SloTracker::Global()->ClassHistogram("client.write")),
      slo_create_version_(
          obs::SloTracker::Global()->ClassHistogram("client.create_version")) {}

template <typename T>
Result<T> FileClient::WithServer(const std::function<Result<T>(Port)>& op) {
  size_t start = preferred_.load(std::memory_order_relaxed);
  Status last = UnavailableError("no file servers configured");
  for (size_t i = 0; i < servers_.size(); ++i) {
    size_t idx = (start + i) % servers_.size();
    Result<T> result = op(servers_[idx]);
    if (result.ok() || !IsConnectivityError(result.status())) {
      preferred_.store(idx, std::memory_order_relaxed);
      return result;
    }
    last = result.status();
  }
  return last;
}

Result<Capability> FileClient::CreateFile() {
  return WithServer<Capability>([&](Port server) -> Result<Capability> {
    ASSIGN_OR_RETURN(WireDecoder reply,
                     CallAndCheck(transport_, server, static_cast<uint32_t>(FileOp::kCreateFile),
                                  WireEncoder()));
    return reply.GetCapability();
  });
}

Status FileClient::DeleteFile(const Capability& file) {
  return WithServer<bool>([&](Port server) -> Result<bool> {
           WireEncoder req;
           req.PutCapability(file);
           RETURN_IF_ERROR(CallAndCheck(transport_, server,
                                        static_cast<uint32_t>(FileOp::kDeleteFile),
                                        std::move(req))
                               .status());
           return true;
         })
      .status();
}

Result<Capability> FileClient::GetCurrentVersion(const Capability& file) {
  return WithServer<Capability>([&](Port server) -> Result<Capability> {
    WireEncoder req;
    req.PutCapability(file);
    ASSIGN_OR_RETURN(WireDecoder reply,
                     CallAndCheck(transport_, server,
                                  static_cast<uint32_t>(FileOp::kGetCurrentVersion),
                                  std::move(req)));
    return reply.GetCapability();
  });
}

Result<Capability> FileClient::CreateVersion(const Capability& file, Port owner_port,
                                             bool respect_soft_lock) {
  obs::ScopedSpan span("client.create_version", obs::SpanKind::kClient);
  obs::SloTimer slo(slo_create_version_);
  return WithServer<Capability>([&](Port server) -> Result<Capability> {
    WireEncoder req;
    req.PutCapability(file);
    req.PutU64(owner_port);
    req.PutU8(respect_soft_lock ? 1 : 0);
    ASSIGN_OR_RETURN(WireDecoder reply,
                     CallAndCheck(transport_, server,
                                  static_cast<uint32_t>(FileOp::kCreateVersion),
                                  std::move(req)));
    return reply.GetCapability();
  });
}

Result<FileClient::ReadResult> FileClient::ReadPage(const Capability& version,
                                                    const PagePath& path, bool want_refs) {
  obs::ScopedSpan span("client.read_page", obs::SpanKind::kClient, version.port);
  obs::SloTimer slo(slo_read_);
  WireEncoder req;
  req.PutCapability(version);
  path.Encode(&req);
  req.PutU8(want_refs ? 1 : 0);
  ASSIGN_OR_RETURN(WireDecoder reply,
                   CallAndCheck(transport_, version.port,
                                static_cast<uint32_t>(FileOp::kReadPage), std::move(req)));
  ReadResult out;
  ASSIGN_OR_RETURN(out.nrefs, reply.GetU32());
  ASSIGN_OR_RETURN(out.data, reply.GetBytes());
  return out;
}

Status FileClient::WritePage(const Capability& version, const PagePath& path,
                             std::span<const uint8_t> data) {
  obs::ScopedSpan span("client.write_page", obs::SpanKind::kClient, version.port,
                       data.size());
  obs::SloTimer slo(slo_write_);
  WireEncoder req;
  req.PutCapability(version);
  path.Encode(&req);
  req.PutBytes(data);
  return CallAndCheck(transport_, version.port, static_cast<uint32_t>(FileOp::kWritePage),
                      std::move(req))
      .status();
}

Status FileClient::WritePages(const Capability& version, std::span<const PageWrite> writes) {
  // One span for the whole batch: the chunked kWritePageMulti RPCs all become children of
  // this span, so the batch stays one causal unit.
  obs::ScopedSpan span("client.write_pages", obs::SpanKind::kClient, version.port,
                       writes.size());
  obs::SloTimer slo(slo_write_);
  // Greedy chunking: pack entries until the next would push the message over the limit.
  // 96 bytes of slack covers the capability, the count and the transaction framing.
  const size_t budget = kMaxMessageBytes - 96;
  size_t i = 0;
  while (i < writes.size()) {
    WireEncoder entries;
    uint32_t n = 0;
    while (i < writes.size()) {
      WireEncoder one;
      writes[i].path.Encode(&one);
      one.PutBytes(writes[i].data);
      if (one.size() > budget) {
        return InvalidArgumentError("single page write exceeds the 32K transaction message limit");
      }
      if (n > 0 && entries.size() + one.size() > budget) {
        break;
      }
      std::vector<uint8_t> raw = std::move(one).Take();
      entries.PutRaw(raw);
      ++n;
      ++i;
    }
    WireEncoder req;
    req.PutCapability(version);
    req.PutU32(n);
    std::vector<uint8_t> raw = std::move(entries).Take();
    req.PutRaw(raw);
    RETURN_IF_ERROR(CallAndCheck(transport_, version.port,
                                 static_cast<uint32_t>(FileOp::kWritePageMulti),
                                 std::move(req))
                        .status());
  }
  return OkStatus();
}

Status FileClient::WriteString(const Capability& version, const PagePath& path,
                               std::string_view text) {
  return WritePage(version, path,
                   std::span<const uint8_t>(reinterpret_cast<const uint8_t*>(text.data()),
                                            text.size()));
}

Result<std::string> FileClient::ReadString(const Capability& version, const PagePath& path) {
  ASSIGN_OR_RETURN(ReadResult result, ReadPage(version, path));
  return std::string(result.data.begin(), result.data.end());
}

Status FileClient::InsertRef(const Capability& version, const PagePath& parent,
                             uint32_t index) {
  WireEncoder req;
  req.PutCapability(version);
  parent.Encode(&req);
  req.PutU32(index);
  return CallAndCheck(transport_, version.port, static_cast<uint32_t>(FileOp::kInsertRef),
                      std::move(req))
      .status();
}

Status FileClient::RemoveRef(const Capability& version, const PagePath& parent,
                             uint32_t index) {
  WireEncoder req;
  req.PutCapability(version);
  parent.Encode(&req);
  req.PutU32(index);
  return CallAndCheck(transport_, version.port, static_cast<uint32_t>(FileOp::kRemoveRef),
                      std::move(req))
      .status();
}

Result<std::vector<uint8_t>> FileClient::ReadRefs(const Capability& version,
                                                  const PagePath& path) {
  WireEncoder req;
  req.PutCapability(version);
  path.Encode(&req);
  ASSIGN_OR_RETURN(WireDecoder reply,
                   CallAndCheck(transport_, version.port,
                                static_cast<uint32_t>(FileOp::kReadRefs), std::move(req)));
  ASSIGN_OR_RETURN(uint32_t n, reply.GetU32());
  std::vector<uint8_t> masks;
  masks.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    ASSIGN_OR_RETURN(uint8_t mask, reply.GetU8());
    masks.push_back(mask);
  }
  return masks;
}

Status FileClient::MoveSubtree(const Capability& version, const PagePath& from,
                               const PagePath& to_parent, uint32_t index) {
  WireEncoder req;
  req.PutCapability(version);
  from.Encode(&req);
  to_parent.Encode(&req);
  req.PutU32(index);
  return CallAndCheck(transport_, version.port, static_cast<uint32_t>(FileOp::kMoveSubtree),
                      std::move(req))
      .status();
}

Status FileClient::SplitPage(const Capability& version, const PagePath& path,
                             uint32_t data_offset, uint32_t ref_index) {
  WireEncoder req;
  req.PutCapability(version);
  path.Encode(&req);
  req.PutU32(data_offset);
  req.PutU32(ref_index);
  return CallAndCheck(transport_, version.port, static_cast<uint32_t>(FileOp::kSplitPage),
                      std::move(req))
      .status();
}

Result<BlockNo> FileClient::Commit(const Capability& version) {
  obs::ScopedSpan span("client.commit", obs::SpanKind::kClient, version.port);
  obs::SloTimer slo(slo_commit_);
  WireEncoder req;
  req.PutCapability(version);
  ASSIGN_OR_RETURN(WireDecoder reply,
                   CallAndCheck(transport_, version.port,
                                static_cast<uint32_t>(FileOp::kCommit), std::move(req)));
  return reply.GetU32();
}

Status FileClient::Abort(const Capability& version) {
  WireEncoder req;
  req.PutCapability(version);
  return CallAndCheck(transport_, version.port, static_cast<uint32_t>(FileOp::kAbort),
                      std::move(req))
      .status();
}

Result<Capability> FileClient::CreateSubFile(const Capability& version, const PagePath& parent,
                                             uint32_t index) {
  WireEncoder req;
  req.PutCapability(version);
  parent.Encode(&req);
  req.PutU32(index);
  ASSIGN_OR_RETURN(WireDecoder reply,
                   CallAndCheck(transport_, version.port,
                                static_cast<uint32_t>(FileOp::kCreateSubFile), std::move(req)));
  return reply.GetCapability();
}

Result<FileClient::CacheCheck> FileClient::ValidateCache(
    const Capability& file, BlockNo cached_head, const std::vector<PagePath>& cached_paths) {
  return WithServer<CacheCheck>([&](Port server) -> Result<CacheCheck> {
    WireEncoder req;
    req.PutCapability(file);
    req.PutU32(cached_head);
    req.PutU32(static_cast<uint32_t>(cached_paths.size()));
    for (const PagePath& path : cached_paths) {
      path.Encode(&req);
    }
    ASSIGN_OR_RETURN(WireDecoder reply,
                     CallAndCheck(transport_, server,
                                  static_cast<uint32_t>(FileOp::kValidateCache),
                                  std::move(req)));
    CacheCheck out;
    ASSIGN_OR_RETURN(out.current_version, reply.GetCapability());
    ASSIGN_OR_RETURN(uint32_t n, reply.GetU32());
    for (uint32_t i = 0; i < n; ++i) {
      ASSIGN_OR_RETURN(PagePath path, PagePath::Decode(&reply));
      out.invalid.push_back(std::move(path));
    }
    return out;
  });
}

Result<FileClient::FileStatInfo> FileClient::FileStat(const Capability& file) {
  return WithServer<FileStatInfo>([&](Port server) -> Result<FileStatInfo> {
    WireEncoder req;
    req.PutCapability(file);
    ASSIGN_OR_RETURN(WireDecoder reply,
                     CallAndCheck(transport_, server, static_cast<uint32_t>(FileOp::kFileStat),
                                  std::move(req)));
    FileStatInfo info;
    ASSIGN_OR_RETURN(info.current_head, reply.GetU32());
    ASSIGN_OR_RETURN(info.committed_versions, reply.GetU32());
    ASSIGN_OR_RETURN(uint8_t is_super, reply.GetU8());
    info.is_super = is_super != 0;
    return info;
  });
}

Result<uint64_t> FileClient::MigrateNow() {
  return WithServer<uint64_t>([&](Port server) -> Result<uint64_t> {
    ASSIGN_OR_RETURN(WireDecoder reply,
                     CallAndCheck(transport_, server, static_cast<uint32_t>(FileOp::kMigrateNow),
                                  WireEncoder()));
    return reply.GetU64();
  });
}

Result<TierScrubSummary> FileClient::ScrubNow() {
  return WithServer<TierScrubSummary>([&](Port server) -> Result<TierScrubSummary> {
    ASSIGN_OR_RETURN(WireDecoder reply,
                     CallAndCheck(transport_, server, static_cast<uint32_t>(FileOp::kScrubNow),
                                  WireEncoder()));
    TierScrubSummary s;
    ASSIGN_OR_RETURN(s.checked, reply.GetU64());
    ASSIGN_OR_RETURN(s.repaired, reply.GetU64());
    ASSIGN_OR_RETURN(s.unrecoverable, reply.GetU64());
    ASSIGN_OR_RETURN(s.reclaimed_redo, reply.GetU64());
    return s;
  });
}

Result<TierStatInfo> FileClient::TierStat() {
  return WithServer<TierStatInfo>([&](Port server) -> Result<TierStatInfo> {
    ASSIGN_OR_RETURN(WireDecoder reply,
                     CallAndCheck(transport_, server, static_cast<uint32_t>(FileOp::kTierStat),
                                  WireEncoder()));
    TierStatInfo info;
    ASSIGN_OR_RETURN(uint8_t enabled, reply.GetU8());
    info.enabled = enabled != 0;
    if (info.enabled) {
      ASSIGN_OR_RETURN(info.archived_blocks, reply.GetU64());
      ASSIGN_OR_RETURN(info.archive_used_blocks, reply.GetU64());
      ASSIGN_OR_RETURN(info.archive_capacity_blocks, reply.GetU64());
      ASSIGN_OR_RETURN(info.archive_bytes, reply.GetU64());
      ASSIGN_OR_RETURN(info.migrated_total, reply.GetU64());
      ASSIGN_OR_RETURN(info.promotions, reply.GetU64());
      ASSIGN_OR_RETURN(info.scrub_repairs, reply.GetU64());
      ASSIGN_OR_RETURN(info.magnetic_reclaimed, reply.GetU64());
    }
    return info;
  });
}

}  // namespace afs
