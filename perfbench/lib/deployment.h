// An in-process AFS deployment with the stack of examples/afs_server.cpp:
//
//   FileClient -> net::TcpTransport -> net::TcpServer -> FileServer
//     -> CountingBlockStore -> TieredStore -> StableStore -> BlockClient pair
//     -> BlockServer pair (companions on the inner Network, zero simulated latency)
//     -> CountingBlockDevice -> MemDisk | FileDisk
//
// The two Counting* decorators are the benchmark's measurement points; everything else is
// the program as afs_server builds it. With num_shards = 2 each shard is a full stack of its
// own, both file servers sit behind the one TcpServer, and a ShardCoordinator over a
// MemoryDecisionLog serves both (afs_server --shard without --store). Its router reaches
// the shards over TCP, as afs_server's does.
//
// Recover() closes every service, remounts the devices (FileDisks are closed and reopened
// from their files) and brings the stack back through the recovery entry points
// (BlockServer::RecoverFromDisk, TieredStore::Mount, FileServer::AttachStore).

#ifndef PERFBENCH_LIB_DEPLOYMENT_H_
#define PERFBENCH_LIB_DEPLOYMENT_H_

#include <memory>
#include <string>
#include <vector>

#include "lib/decorators.h"
#include "src/block/block_server.h"
#include "src/core/file_server.h"
#include "src/disk/write_once_disk.h"
#include "src/net/tcp_server.h"
#include "src/net/tcp_transport.h"
#include "src/rpc/network.h"
#include "src/shard/coordinator.h"
#include "src/shard/decision_log.h"
#include "src/shard/router.h"
#include "src/store/file_disk.h"
#include "src/tier/tiered_store.h"

namespace perfbench {

struct DeploymentOptions {
  uint32_t num_shards = 1;
  // FileDisk pair (options as afs_server --store sets them, except the size) in
  // `store_dir`; otherwise MemDisks.
  bool durable = false;
  std::string store_dir;
  // Blocks per device of each stable pair. afs_server uses 8192; the benchmark sizes the
  // devices so that no run fills them (no GC runs while it measures).
  uint32_t num_blocks = 8192;
};

struct JournalTotals {
  uint64_t appends = 0;
  uint64_t fsyncs = 0;
  uint64_t checkpoints = 0;
};

class Deployment {
 public:
  static afs::Result<std::unique_ptr<Deployment>> Build(const DeploymentOptions& options);
  ~Deployment();

  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  // Close the services and devices, remount, and recover. Every client transport must be
  // gone first; ports and decorator counters are new afterwards.
  afs::Status Recover();

  // Return once no device operation or inner call has run for a while. A caller whose call
  // timed out (the stable pair then fails over to the companion) leaves its handler running
  // on the slow server, and a Service's destruction does not wait for such a handler, so
  // the services must not be torn down until it ends. The destructor waits too.
  void WaitIdle() const;

  // A fresh client-side transport to the TcpServer (one per simulated client process).
  std::unique_ptr<afs::net::TcpTransport> Connect(uint64_t seed) const;

  uint32_t num_shards() const { return static_cast<uint32_t>(shards_.size()); }
  afs::FileServer* file_server(uint32_t shard) const { return shards_[shard]->fs.get(); }
  std::vector<afs::FileServer*> file_servers() const;
  std::vector<afs::BlockServer*> block_servers() const;
  // The shard map clients route by (file servers by inner port; one TcpServer).
  afs::ShardMap shard_map() const;
  const afs::DecisionLog* decision_log() const { return log_.get(); }

  // Calls on the inner Network (file server -> block server, block server -> companion).
  uint64_t inner_calls() const { return net_.total_calls(); }
  // Calls the shard coordinator's router made (prepare/decide fan-out over TCP).
  uint64_t coordinator_calls() const;
  uint64_t inner_retransmits() const;

  BlockStoreTotals store_totals() const;
  DeviceTotals device_totals() const;
  std::vector<uint64_t> TakeDeviceWriteLatencies();
  JournalTotals journal_totals() const;

 private:
  struct Stack {
    std::unique_ptr<afs::BlockDevice> disk_a;
    std::unique_ptr<afs::BlockDevice> disk_b;
    std::unique_ptr<afs::BlockDevice> disk_archive;
    std::unique_ptr<CountingBlockDevice> dev_a;
    std::unique_ptr<CountingBlockDevice> dev_b;
    std::unique_ptr<afs::BlockServer> block_a;
    std::unique_ptr<afs::BlockServer> block_b;
    std::unique_ptr<afs::StableStore> stable;
    std::unique_ptr<afs::WriteOnceDisk> platter;
    std::unique_ptr<afs::TieredStore> tiered;
    std::unique_ptr<CountingBlockStore> counted;
    std::unique_ptr<afs::FileServer> fs;
  };

  explicit Deployment(DeploymentOptions options) : options_(std::move(options)), net_(11) {}

  afs::Status OpenDevices(uint32_t shard, Stack* stack);
  afs::Status StartServices(bool recovering);
  void StopServices();

  const DeploymentOptions options_;
  afs::Network net_;
  std::vector<std::unique_ptr<Stack>> shards_;
  std::unique_ptr<afs::net::TcpServer> server_;
  std::unique_ptr<afs::net::TcpTransport> coord_transport_;
  std::unique_ptr<afs::ShardRouter> coord_router_;
  std::unique_ptr<afs::MemoryDecisionLog> log_;  // survives Recover(), like a durable log
  std::unique_ptr<afs::ShardCoordinator> coord_;
};

}  // namespace perfbench

#endif  // PERFBENCH_LIB_DEPLOYMENT_H_
