#include "lib/deployment.h"

#include <chrono>
#include <filesystem>
#include <thread>
#include <utility>

#include "src/block/protocol.h"
#include "src/disk/mem_disk.h"

namespace perfbench {

using afs::Status;

namespace {

// The archive tier is mounted but idle (no migration runs), as in afs_server.
constexpr uint32_t kArchiveBlocks = 8192;

}  // namespace

afs::Result<std::unique_ptr<Deployment>> Deployment::Build(const DeploymentOptions& options) {
  std::unique_ptr<Deployment> d(new Deployment(options));
  if (options.durable) {
    std::error_code ec;
    std::filesystem::create_directories(options.store_dir, ec);
    if (ec) {
      return afs::UnavailableError("cannot create store directory " + options.store_dir);
    }
  }
  d->log_ = std::make_unique<afs::MemoryDecisionLog>();
  for (uint32_t k = 0; k < std::max(1u, options.num_shards); ++k) {
    d->shards_.push_back(std::make_unique<Stack>());
    RETURN_IF_ERROR(d->OpenDevices(k, d->shards_.back().get()));
  }
  RETURN_IF_ERROR(d->StartServices(/*recovering=*/false));
  return d;
}

Deployment::~Deployment() {
  WaitIdle();
  StopServices();
}

void Deployment::WaitIdle() const {
  auto activity = [this] {
    uint64_t n = inner_calls();
    bool busy = false;
    for (const auto& s : shards_) {
      for (const CountingBlockDevice* dev : {s->dev_a.get(), s->dev_b.get()}) {
        if (dev != nullptr) {  // null only if the deployment failed to open its devices
          n += dev->reads() + dev->writes();
          busy = busy || dev->busy();
        }
      }
    }
    return std::pair{n, busy};
  };
  // Quiet means four polls 50 ms apart with no device busy and nothing completed; give up
  // after a minute rather than hang.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::minutes(1);
  auto last = activity();
  for (int quiet = 0; quiet < 4 && std::chrono::steady_clock::now() < deadline;) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    const auto now = activity();
    quiet = now.first == last.first && !now.second ? quiet + 1 : 0;
    last = now;
  }
}

Status Deployment::OpenDevices(uint32_t shard, Stack* stack) {
  if (!options_.durable) {
    if (stack->disk_a == nullptr) {
      stack->disk_a = std::make_unique<afs::MemDisk>(afs::kDefaultBlockSize, options_.num_blocks);
      stack->disk_b = std::make_unique<afs::MemDisk>(afs::kDefaultBlockSize, options_.num_blocks);
      stack->disk_archive = std::make_unique<afs::MemDisk>(afs::kDefaultBlockSize, kArchiveBlocks);
    }
  } else {
    // afs_server --store: FileDisk pair + archive with a 200 us group-commit window.
    afs::FileDiskOptions fd;
    fd.block_size = afs::kDefaultBlockSize;
    fd.num_blocks = options_.num_blocks;
    fd.group_commit_window = std::chrono::microseconds(200);
    const std::string prefix = options_.store_dir + "/s" + std::to_string(shard) + "-";
    // Close before reopening: a disk's files must not be open twice.
    stack->disk_a.reset();
    stack->disk_b.reset();
    stack->disk_archive.reset();
    auto a = afs::FileDisk::Open(prefix + "a.afsdisk", fd);
    auto b = afs::FileDisk::Open(prefix + "b.afsdisk", fd);
    afs::FileDiskOptions archive = fd;
    archive.num_blocks = kArchiveBlocks;
    auto arch = afs::FileDisk::Open(prefix + "archive.afsdisk", archive);
    if (!a.ok() || !b.ok() || !arch.ok()) {
      return afs::UnavailableError("cannot open FileDisk store in " + options_.store_dir);
    }
    stack->disk_a = std::move(a).value();
    stack->disk_b = std::move(b).value();
    stack->disk_archive = std::move(arch).value();
  }
  stack->dev_a = std::make_unique<CountingBlockDevice>(stack->disk_a.get());
  stack->dev_b = std::make_unique<CountingBlockDevice>(stack->disk_b.get());
  return afs::OkStatus();
}

Status Deployment::StartServices(bool recovering) {
  const uint32_t n = num_shards();
  for (uint32_t k = 0; k < n; ++k) {
    Stack& s = *shards_[k];
    const std::string tag = std::to_string(k);
    s.block_a = std::make_unique<afs::BlockServer>(&net_, "block-a" + tag, s.dev_a.get(), 3);
    s.block_b = std::make_unique<afs::BlockServer>(&net_, "block-b" + tag, s.dev_b.get(), 3);
    s.block_a->Start();
    s.block_b->Start();
    s.block_a->SetCompanion(s.block_b->port());
    s.block_b->SetCompanion(s.block_a->port());
    if (recovering || options_.durable) {
      s.block_a->RecoverFromDisk();
      s.block_b->RecoverFromDisk();
    }
    const afs::Capability account = s.block_a->CreateAccountDirect();
    s.stable = std::make_unique<afs::StableStore>(
        std::make_unique<afs::BlockClient>(&net_, s.block_a->port(), account,
                                           s.block_a->payload_capacity()),
        std::make_unique<afs::BlockClient>(&net_, s.block_b->port(), account,
                                           s.block_b->payload_capacity()),
        1);
    s.platter = std::make_unique<afs::WriteOnceDisk>(s.disk_archive.get());
    s.tiered = std::make_unique<afs::TieredStore>(s.stable.get(), s.platter.get());
    RETURN_IF_ERROR(s.tiered->Mount());
    s.counted = std::make_unique<CountingBlockStore>(s.tiered.get());
    afs::FileServerOptions fs_options;
    fs_options.shard_id = k;
    fs_options.num_shards = n;
    s.fs = std::make_unique<afs::FileServer>(&net_, "fs" + tag, s.counted.get(), fs_options);
    s.fs->Start();
    RETURN_IF_ERROR(s.fs->AttachStore());
  }
  server_ = std::make_unique<afs::net::TcpServer>(&net_);
  for (uint32_t k = 0; k < n; ++k) {
    server_->Expose(shards_[k]->fs.get(), "fs" + std::to_string(k),
                    afs::net::ServiceKind::kFileServer);
  }
  RETURN_IF_ERROR(server_->Start());
  if (n > 1) {
    coord_transport_ = Connect(/*seed=*/97);
    ASSIGN_OR_RETURN(coord_router_, afs::ShardRouter::Make(shard_map(), coord_transport_.get()));
    coord_ = std::make_unique<afs::ShardCoordinator>(0, coord_router_.get(), log_.get(),
                                                      shards_[0]->fs->metrics());
    for (auto& s : shards_) {
      coord_->Serve(s->fs.get());
    }
  }
  return afs::OkStatus();
}

void Deployment::StopServices() {
  if (server_ != nullptr) {
    server_->Stop();
  }
  coord_.reset();
  coord_router_.reset();
  coord_transport_.reset();
  server_.reset();
  for (auto it = shards_.rbegin(); it != shards_.rend(); ++it) {
    Stack& s = **it;
    s.fs.reset();
    s.counted.reset();
    s.tiered.reset();
    s.platter.reset();
    s.stable.reset();
    s.block_a.reset();
    s.block_b.reset();
  }
}

Status Deployment::Recover() {
  StopServices();
  for (uint32_t k = 0; k < num_shards(); ++k) {
    RETURN_IF_ERROR(OpenDevices(k, shards_[k].get()));
  }
  return StartServices(/*recovering=*/true);
}

std::unique_ptr<afs::net::TcpTransport> Deployment::Connect(uint64_t seed) const {
  afs::net::TcpTransport::Options options;
  options.seed = seed;
  return std::make_unique<afs::net::TcpTransport>("127.0.0.1", server_->port(), options);
}

std::vector<afs::FileServer*> Deployment::file_servers() const {
  std::vector<afs::FileServer*> out;
  for (const auto& s : shards_) {
    out.push_back(s->fs.get());
  }
  return out;
}

std::vector<afs::BlockServer*> Deployment::block_servers() const {
  std::vector<afs::BlockServer*> out;
  for (const auto& s : shards_) {
    out.push_back(s->block_a.get());
    out.push_back(s->block_b.get());
  }
  return out;
}

afs::ShardMap Deployment::shard_map() const {
  afs::ShardMap map;
  map.epoch = 1;
  for (uint32_t k = 0; k < num_shards(); ++k) {
    afs::ShardEntry entry;
    entry.shard_id = k;
    entry.name = "shard" + std::to_string(k);
    entry.file_servers = {shards_[k]->fs->port()};
    map.shards.push_back(std::move(entry));
  }
  return map;
}

uint64_t Deployment::coordinator_calls() const {
  return coord_transport_ != nullptr ? coord_transport_->total_calls() : 0;
}

uint64_t Deployment::inner_retransmits() const {
  return net_.retransmits() +
         (coord_transport_ != nullptr ? coord_transport_->retransmits() : 0);
}

BlockStoreTotals Deployment::store_totals() const {
  BlockStoreTotals t;
  for (const auto& s : shards_) {
    t += s->counted->totals();
  }
  return t;
}

DeviceTotals Deployment::device_totals() const {
  DeviceTotals t;
  for (const auto& s : shards_) {
    t += s->dev_a->totals();
    t += s->dev_b->totals();
  }
  return t;
}

std::vector<uint64_t> Deployment::TakeDeviceWriteLatencies() {
  std::vector<uint64_t> out;
  for (const auto& s : shards_) {
    for (CountingBlockDevice* dev : {s->dev_a.get(), s->dev_b.get()}) {
      std::vector<uint64_t> part = dev->TakeWriteLatencies();
      out.insert(out.end(), part.begin(), part.end());
    }
  }
  return out;
}

JournalTotals Deployment::journal_totals() const {
  JournalTotals t;
  if (!options_.durable) {
    return t;
  }
  for (const auto& s : shards_) {
    for (afs::BlockDevice* dev : {s->disk_a.get(), s->disk_b.get()}) {
      const auto* disk = static_cast<const afs::FileDisk*>(dev);
      t.appends += disk->journal_appends();
      t.fsyncs += disk->fsync_batches();
      t.checkpoints += disk->checkpoints();
    }
  }
  return t;
}

}  // namespace perfbench
