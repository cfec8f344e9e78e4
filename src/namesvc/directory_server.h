// DirectoryServer: a name service built *on top of* the Amoeba File Service, demonstrating
// the storage-services hierarchy of Figure 1 (directory server -> file server -> block
// server). It maps human-readable names to capabilities, the Amoeba way of building a
// namespace out of an otherwise flat capability space.
//
// The whole directory lives in one AFS file: entries are serialized into the root page.
// Every mutation is an atomic AFS transaction (create version / modify / commit), so
// concurrent directory updates from several directory servers are serialised by the file
// service's optimistic concurrency control — this layer needs no locks of its own, and a
// directory-server crash mid-update never corrupts the directory.

#ifndef SRC_NAMESVC_DIRECTORY_SERVER_H_
#define SRC_NAMESVC_DIRECTORY_SERVER_H_

#include <map>
#include <mutex>
#include <string>

#include "src/client/file_client.h"
#include "src/obs/metrics.h"
#include "src/rpc/service.h"

namespace afs {

enum class DirOp : uint32_t {
  kEnter = 1,        // (string name, capability) -> ()        kAlreadyExists if taken
  kLookup = 2,       // (string name) -> (capability)
  kRemove = 3,       // (string name) -> ()
  kList = 4,         // () -> (u32 n, n * string)
  kRename = 5,       // (string old, string new) -> ()          atomic
  kGetShardMap = 6,  // () -> (bytes)   encoded ShardMap; kNotFound if none published
};

class DirectoryServer : public Service {
 public:
  // The directory file is created on Init (or adopted if `dir_file` is non-null, so
  // several directory servers can serve one directory).
  DirectoryServer(Network* network, std::string name, std::vector<Port> file_servers);
  ~DirectoryServer() override { StopAndJoin(); }

  Status Init();
  Status Adopt(const Capability& dir_file);
  Capability directory_file() const { return dir_file_; }

  // Direct API.
  Status Enter(const std::string& name, const Capability& target);
  Result<Capability> Lookup(const std::string& name);
  Status Remove(const std::string& name);
  Result<std::vector<std::string>> List();
  Status Rename(const std::string& old_name, const std::string& new_name);

  // Shard-map publication (src/shard): the deployment hands the encoded ShardMap to its
  // directory server; clients bootstrap their routers from it (DirOp::kGetShardMap).
  // The blob is opaque at this layer — namesvc does not depend on src/shard.
  void SetShardMapBlob(std::vector<uint8_t> blob);
  Result<std::vector<uint8_t>> ShardMapBlob() const;

 protected:
  Result<Message> Handle(const Message& request) override;

 private:
  using Entries = std::map<std::string, Capability>;
  static Result<Entries> Decode(std::span<const uint8_t> data);
  static std::vector<uint8_t> Encode(const Entries& entries);
  // Run one atomic read-modify-write of the directory contents. `mutate` returns the
  // status to commit with (non-ok aborts and is returned).
  Status Mutate(const std::function<Status(Entries*)>& mutate);
  Result<Entries> Snapshot();

  // Direct-API instrumentation, parity with the RPC path's per-op rpc.op.*.handle_ns:
  // every direct call records a named handler span (ns.enter, ns.lookup, ...) and a per-op
  // latency histogram — so in-process deployments (which never cross Handle()) and remote
  // ones measure the same handlers, including shard-map resolution.
  struct OpInstrument {
    obs::Counter* count = nullptr;
    obs::Histogram* handle_ns = nullptr;
  };
  OpInstrument MakeInstrument(const std::string& op);
  OpInstrument op_enter_;
  OpInstrument op_lookup_;
  OpInstrument op_remove_;
  OpInstrument op_list_;
  OpInstrument op_rename_;
  OpInstrument op_shard_map_;

  FileClient files_;
  Capability dir_file_;

  mutable std::mutex shard_map_mu_;
  std::vector<uint8_t> shard_map_blob_;
};

}  // namespace afs

#endif  // SRC_NAMESVC_DIRECTORY_SERVER_H_
