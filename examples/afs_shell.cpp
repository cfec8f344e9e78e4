// afs_shell: an interactive shell over a complete AFS deployment — directory server, two
// file servers on a stable block-server pair, garbage collector, and consistency checker.
// Useful for poking at the system by hand.
//
//   $ ./afs_shell
//   afs> create notes
//   afs> write notes / hello world
//   afs> read notes /
//   afs> history notes
//   afs> crash fs0        # then keep working; redo goes via fs1
//   afs> fsck
//   afs> help
//
// Commands read from stdin; EOF or `quit` exits.
//
// With `--store <dir>` the block servers run on two durable FileDisks in <dir> instead of
// MemDisks, and the directory capability is kept in <dir>/shell.meta — files created in
// one run are still there in the next:
//
//   $ ./afs_shell --store /tmp/afs
//   afs> create notes
//   afs> write notes / survives-restarts
//   afs> quit
//   $ ./afs_shell --store /tmp/afs
//   afs> read notes /
//   survives-restarts
//
// With `--connect host:port` the shell runs no servers of its own: it dials an afs_server
// process over TCP, discovers the deployment from the hello manifest, and runs the same
// write/commit/read session over real sockets (a reduced command set — the commands that
// poke at in-process objects need the servers in-process):
//
//   $ ./afs_server --port 7450 &
//   LISTENING 7450
//   $ ./afs_shell --connect 127.0.0.1:7450
//   afs> create notes
//   afs> write notes / hello over tcp

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>

#include "src/block/block_server.h"
#include "src/block/block_store.h"
#include "src/block/protocol.h"
#include "src/client/file_client.h"
#include "src/client/transaction.h"
#include "src/core/file_server.h"
#include "src/core/fsck.h"
#include "src/core/gc.h"
#include "src/disk/mem_disk.h"
#include "src/disk/write_once_disk.h"
#include "src/namesvc/directory_client.h"
#include "src/namesvc/directory_server.h"
#include "src/shard/shard_map.h"
#include "src/net/socket.h"
#include "src/net/tcp_server.h"
#include "src/net/tcp_transport.h"
#include "src/obs/metrics.h"
#include "src/obs/slo.h"
#include "src/obs/span.h"
#include "src/rpc/client.h"
#include "src/rpc/network.h"
#include "src/store/file_disk.h"
#include "src/tier/fsck.h"
#include "src/tier/migrator.h"
#include "src/tier/scrubber.h"
#include "src/tier/tiered_store.h"

using namespace afs;

namespace {

void PrintHelp() {
  std::printf(
      "commands:\n"
      "  ls                          list named files\n"
      "  create <name>               create and name a file\n"
      "  write <name> <path> <text>  atomic write of a page (path like / or /0/1)\n"
      "  mkpage <name> <path> <idx>  insert a reference slot under <path>\n"
      "  read <name> <path>          read a page of the current version\n"
      "  history <name>              committed version count\n"
      "  rm <name>                   remove the directory entry and delete the file\n"
      "  crash <fs0|fs1|blockA>      crash a server\n"
      "  restart <fs0|fs1|blockA>    restart it\n"
      "  gc                          run one garbage-collection cycle\n"
      "  migrate                     archive old committed versions to the write-once\n"
      "                              tier and reclaim their magnetic blocks\n"
      "  tiers                       storage-tier occupancy and counters\n"
      "  scrub                       CRC-verify every archived block, repair from\n"
      "                              magnetic copies where possible\n"
      "  fsck                        run the consistency checker (both tiers)\n"
      "  shards                      per-file-server commit/2PC shard counters\n"
      "  stats [fs0|fs1|blockA|blockB]\n"
      "                              process-wide metrics, or scrape one live server's\n"
      "                              registry over RPC (kGetStats)\n"
      "  spans [n]                   most recent n finished spans (default 40); with a\n"
      "  spans <server> [n]          server name, scrape them over RPC (kGetSpans)\n"
      "  spans tree <trace_id>       indented span tree of one trace\n"
      "  slow [n]                    slow-transaction log: span trees of the slowest\n"
      "                              recent root spans (threshold 20ms)\n"
      "  slo                         per-op-class p50/p99/p999 vs declared targets\n"
      "  checkpoint                  fold the FileDisk journals into the block areas\n"
      "                              (--store mode only; happens automatically on quit)\n"
      "  help, quit\n");
}

// The directory capability is the one piece of state the shell itself must remember
// between runs (everything else is rediscovered from the disks). Four integers in a
// text file.
bool LoadMeta(const std::string& path, Capability* cap) {
  std::ifstream in(path);
  uint64_t port = 0;
  return static_cast<bool>(in >> port >> cap->object >> cap->rights >> cap->check) &&
         (cap->port = static_cast<Port>(port), true);
}

void SaveMeta(const std::string& path, const Capability& cap) {
  std::ofstream out(path);
  out << cap.port << ' ' << cap.object << ' ' << cap.rights << ' ' << cap.check << '\n';
}

// The shard/commit slice of a kGetStats exposition: the lines an operator inspecting the
// two-phase machinery cares about.
void PrintShardStats(const std::string& text) {
  std::istringstream lines(text);
  std::string stat_line;
  while (std::getline(lines, stat_line)) {
    if (stat_line.find("shard.") != std::string::npos ||
        stat_line.find("commit.") != std::string::npos) {
      std::printf("    %s\n", stat_line.c_str());
    }
  }
}

void PrintRemoteHelp() {
  std::printf(
      "remote commands (afs_shell --connect):\n"
      "  ls                          list named files\n"
      "  create <name>               create and name a file\n"
      "  write <name> <path> <text>  atomic write of a page over TCP\n"
      "  mkpage <name> <path> <idx>  insert a reference slot under <path>\n"
      "  read <name> <path>          read a page of the current version\n"
      "  history <name>              committed version count\n"
      "  rm <name>                   remove the directory entry and delete the file\n"
      "  servers                     the server's hello manifest\n"
      "  shards                      the deployment's shard map, with each shard's\n"
      "                              commit/2PC counters scraped over RPC\n"
      "  stats <server>              scrape a remote server's metrics (kGetStats)\n"
      "  spans <server> [n]          scrape a remote server's spans (kGetSpans)\n"
      "  spans [n]                   this process's recent spans\n"
      "  net                         client transport counters (sends, retransmits...)\n"
      "  help, quit\n");
}

// The --connect mode: everything goes over one TcpTransport; the deployment is discovered
// from the hello manifest. Returns the process exit code.
int RunRemoteShell(const std::string& hostport) {
  auto split = net::SplitHostPort(hostport);
  if (!split.ok()) {
    std::fprintf(stderr, "bad --connect argument: %s\n", split.status().ToString().c_str());
    return 1;
  }
  net::TcpTransport transport(split->first, split->second);
  auto hello = transport.SayHello();
  if (!hello.ok()) {
    std::fprintf(stderr, "cannot reach afs_server at %s: %s\n", hostport.c_str(),
                 hello.status().ToString().c_str());
    return 1;
  }
  std::vector<Port> file_servers;
  std::map<std::string, Port> by_name;
  Port dir_port = kNullPort;
  for (const auto& entry : hello->services) {
    by_name[entry.name] = entry.port;
    if (entry.kind == static_cast<uint8_t>(net::ServiceKind::kFileServer)) {
      file_servers.push_back(entry.port);
    } else if (entry.kind == static_cast<uint8_t>(net::ServiceKind::kDirectoryServer) &&
               dir_port == kNullPort) {
      dir_port = entry.port;
    }
  }
  if (file_servers.empty() || dir_port == kNullPort) {
    std::fprintf(stderr, "server manifest has no file or directory servers\n");
    return 1;
  }
  FileClient client(&transport, file_servers);
  DirectoryClient dir(&transport, dir_port);
  obs::SetSpanEnabled(true);

  std::printf("Amoeba File Service shell — connected to %s (%zu service(s))\n",
              hostport.c_str(), hello->services.size());
  std::string line;
  while (std::printf("afs> "), std::fflush(stdout), std::getline(std::cin, line)) {
    std::istringstream in(line);
    std::string cmd;
    in >> cmd;
    if (cmd.empty()) {
      continue;
    }
    if (cmd == "quit" || cmd == "exit") {
      break;
    }
    if (cmd == "help") {
      PrintRemoteHelp();
    } else if (cmd == "ls") {
      auto names = dir.List();
      if (!names.ok()) {
        std::printf("error: %s\n", names.status().ToString().c_str());
        continue;
      }
      for (const std::string& name : *names) {
        std::printf("  %s\n", name.c_str());
      }
    } else if (cmd == "servers") {
      for (const auto& entry : hello->services) {
        const char* kind = entry.kind == 1   ? "file server"
                           : entry.kind == 2 ? "block server"
                           : entry.kind == 3 ? "directory server"
                                             : "service";
        std::printf("  %-10s port %llu  (%s)\n", entry.name.c_str(),
                    (unsigned long long)entry.port, kind);
      }
    } else if (cmd == "shards") {
      auto blob = dir.GetShardMap();
      if (!blob.ok()) {
        std::printf("no shard map published (%s) — single-shard deployment\n",
                    blob.status().ToString().c_str());
        for (Port fs_port : file_servers) {
          std::printf("  file server port %llu:\n", (unsigned long long)fs_port);
          auto text = ScrapeStats(&transport, fs_port);
          if (text.ok()) {
            PrintShardStats(*text);
          }
        }
        continue;
      }
      auto map = ShardMap::Decode(*blob);
      if (!map.ok()) {
        std::printf("error: %s\n", map.status().ToString().c_str());
        continue;
      }
      std::printf("%u shard(s), map epoch %u\n", map->num_shards(), map->epoch);
      for (const ShardEntry& entry : map->shards) {
        std::printf("shard %u (%s) at %s — %zu file server(s)\n", entry.shard_id,
                    entry.name.c_str(), entry.address.c_str(),
                    entry.file_servers.size());
        auto split_addr = net::SplitHostPort(entry.address);
        if (!split_addr.ok()) {
          std::printf("  bad address: %s\n", split_addr.status().ToString().c_str());
          continue;
        }
        net::TcpTransport shard_transport(split_addr->first, split_addr->second);
        for (Port fs_port : entry.file_servers) {
          std::printf("  file server port %llu:\n", (unsigned long long)fs_port);
          auto text = ScrapeStats(&shard_transport, fs_port);
          if (text.ok()) {
            PrintShardStats(*text);
          } else {
            std::printf("    unreachable: %s\n", text.status().ToString().c_str());
          }
        }
      }
    } else if (cmd == "create") {
      std::string name;
      in >> name;
      auto file = client.CreateFile();
      Status st = file.ok() ? dir.Enter(name, *file) : file.status();
      std::printf("%s\n", st.ToString().c_str());
    } else if (cmd == "write" || cmd == "read" || cmd == "mkpage" || cmd == "history" ||
               cmd == "rm") {
      std::string name;
      in >> name;
      auto cap = dir.Lookup(name);
      if (!cap.ok()) {
        std::printf("error: %s\n", cap.status().ToString().c_str());
        continue;
      }
      if (cmd == "history") {
        auto stat = client.FileStat(*cap);
        if (stat.ok()) {
          std::printf("%u committed version(s)%s\n", stat->committed_versions,
                      stat->is_super ? " (super-file)" : "");
        } else {
          std::printf("error: %s\n", stat.status().ToString().c_str());
        }
        continue;
      }
      if (cmd == "rm") {
        Status st = dir.Remove(name);
        if (st.ok()) {
          st = client.DeleteFile(*cap);
        }
        std::printf("%s\n", st.ToString().c_str());
        continue;
      }
      std::string path_text;
      in >> path_text;
      auto path = PagePath::Parse(path_text);
      if (!path.ok()) {
        std::printf("bad path: %s\n", path.status().ToString().c_str());
        continue;
      }
      if (cmd == "read") {
        auto current = client.GetCurrentVersion(*cap);
        if (!current.ok()) {
          std::printf("error: %s\n", current.status().ToString().c_str());
          continue;
        }
        auto text = client.ReadString(*current, *path);
        if (text.ok()) {
          std::printf("%s\n", text->c_str());
        } else {
          std::printf("error: %s\n", text.status().ToString().c_str());
        }
        continue;
      }
      if (cmd == "mkpage") {
        uint32_t index = 0;
        in >> index;
        auto stats =
            RunTransaction(&client, *cap, [&](FileClient& c, const Capability& v) {
              return c.InsertRef(v, *path, index);
            });
        std::printf("%s\n", stats.status().ToString().c_str());
        continue;
      }
      std::string text;
      std::getline(in, text);
      if (!text.empty() && text[0] == ' ') {
        text.erase(0, 1);
      }
      auto stats = RunTransaction(&client, *cap, [&](FileClient& c, const Capability& v) {
        return c.WriteString(v, *path, text);
      });
      if (stats.ok()) {
        std::printf("committed in %d attempt(s)\n", stats->attempts);
      } else {
        std::printf("error: %s\n", stats.status().ToString().c_str());
      }
    } else if (cmd == "stats") {
      std::string which;
      in >> which;
      auto it = by_name.find(which);
      if (it == by_name.end()) {
        std::printf("unknown server '%s' — try 'servers'\n", which.c_str());
        continue;
      }
      auto text = ScrapeStats(&transport, it->second);
      if (text.ok()) {
        std::printf("%s", text->c_str());
      } else {
        std::printf("error: %s\n", text.status().ToString().c_str());
      }
    } else if (cmd == "spans") {
      std::string arg;
      in >> arg;
      auto it = by_name.find(arg);
      if (it != by_name.end()) {
        std::string count;
        in >> count;
        size_t n = count.empty() ? 40 : std::strtoull(count.c_str(), nullptr, 10);
        auto text = ScrapeSpans(&transport, it->second, static_cast<uint32_t>(n),
                                /*chrome_json=*/false);
        if (text.ok()) {
          std::printf("%s", text->c_str());
        } else {
          std::printf("error: %s\n", text.status().ToString().c_str());
        }
      } else {
        size_t n = arg.empty() ? 40 : std::strtoull(arg.c_str(), nullptr, 10);
        std::printf("%s", obs::DumpSpansText(n).c_str());
      }
    } else if (cmd == "net") {
      std::string text;
      transport.metrics()->DumpText(&text);
      std::printf("%s", text.c_str());
    } else {
      std::printf("unknown command '%s' — try 'help'\n", cmd.c_str());
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string store_dir;
  std::string connect;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--store" && i + 1 < argc) {
      store_dir = argv[++i];
    } else if (arg.rfind("--store=", 0) == 0) {
      store_dir = arg.substr(8);
    } else if (arg == "--connect" && i + 1 < argc) {
      connect = argv[++i];
    } else if (arg.rfind("--connect=", 0) == 0) {
      connect = arg.substr(10);
    } else {
      std::fprintf(stderr, "usage: %s [--store <dir>] [--connect host:port]\n", argv[0]);
      return 1;
    }
  }
  if (!connect.empty()) {
    return RunRemoteShell(connect);
  }

  Network net(11);
  // Volatile by default; with --store, three durable FileDisks (the stable pair plus the
  // write-once archive platter) whose contents survive process exit.
  std::unique_ptr<BlockDevice> disk_a;
  std::unique_ptr<BlockDevice> disk_b;
  std::unique_ptr<BlockDevice> disk_archive;
  FileDisk* fdisk_a = nullptr;
  FileDisk* fdisk_b = nullptr;
  FileDisk* fdisk_archive = nullptr;
  if (store_dir.empty()) {
    disk_a = std::make_unique<MemDisk>(kDefaultBlockSize, 8192);
    disk_b = std::make_unique<MemDisk>(kDefaultBlockSize, 8192);
    disk_archive = std::make_unique<MemDisk>(kDefaultBlockSize, 8192);
  } else {
    std::error_code ec;
    std::filesystem::create_directories(store_dir, ec);
    FileDiskOptions options;
    options.block_size = kDefaultBlockSize;
    options.num_blocks = 8192;
    options.group_commit_window = std::chrono::microseconds(200);
    auto a = FileDisk::Open(store_dir + "/a.afsdisk", options);
    auto b = FileDisk::Open(store_dir + "/b.afsdisk", options);
    auto arch = FileDisk::Open(store_dir + "/archive.afsdisk", options);
    if (!a.ok() || !b.ok() || !arch.ok()) {
      std::fprintf(stderr, "cannot open store in %s: %s\n", store_dir.c_str(),
                   (!a.ok()   ? a.status()
                    : !b.ok() ? b.status()
                              : arch.status())
                       .ToString()
                       .c_str());
      return 1;
    }
    fdisk_a = a->get();
    fdisk_b = b->get();
    fdisk_archive = arch->get();
    disk_a = std::move(a).value();
    disk_b = std::move(b).value();
    disk_archive = std::move(arch).value();
    std::printf("persistent store: %s (mount epoch %llu, %llu journal record(s) replayed)\n",
                store_dir.c_str(), (unsigned long long)fdisk_a->epoch(),
                (unsigned long long)(fdisk_a->recovered_records() +
                                     fdisk_b->recovered_records() +
                                     fdisk_archive->recovered_records()));
  }
  BlockServer block_a(&net, "block-a", disk_a.get(), 3);
  BlockServer block_b(&net, "block-b", disk_b.get(), 3);
  block_a.Start();
  block_b.Start();
  block_a.SetCompanion(block_b.port());
  block_b.SetCompanion(block_a.port());
  if (!store_dir.empty()) {
    // Adopt whatever a previous run left on the disks before serving anyone.
    block_a.RecoverFromDisk();
    block_b.RecoverFromDisk();
  }
  Capability account = block_a.CreateAccountDirect();
  auto make_store = [&] {
    return std::make_unique<StableStore>(
        std::make_unique<BlockClient>(&net, block_a.port(), account,
                                      block_a.payload_capacity()),
        std::make_unique<BlockClient>(&net, block_b.port(), account,
                                      block_b.payload_capacity()),
        1);
  };
  // Both file servers share one TieredStore so they see one block-location map: a block
  // fs0 migrated to the platter must resolve through the same map when fs1 reads it.
  auto store = make_store();
  WriteOnceDisk platter(disk_archive.get());
  TieredStore tiered(store.get(), &platter);
  if (Status st = tiered.Mount(); !st.ok()) {
    std::fprintf(stderr, "tier mount failed: %s\n", st.ToString().c_str());
    return 1;
  }
  FileServer fs0(&net, "fs0", &tiered);
  FileServer fs1(&net, "fs1", &tiered);
  fs0.Start();
  fs1.Start();
  if (!fs0.AttachStore().ok() || !fs1.AttachStore().ok()) {
    std::fprintf(stderr, "attach failed\n");
    return 1;
  }
  Migrator migrator({&fs0, &fs1}, &tiered);
  Scrubber scrubber(&tiered);
  FileServer::TierAdminHooks tier_admin{
      .migrate = [&] { return migrator.RunCycle(); },
      .scrub = [&] { return tiered.ScrubPass(); },
      .stat = [&] { return tiered.Stats(); }};
  fs0.SetTierAdmin(tier_admin);
  fs1.SetTierAdmin(tier_admin);
  DirectoryServer dir(&net, "dir", {fs0.port(), fs1.port()});
  dir.Start();
  const std::string meta_path = store_dir.empty() ? "" : store_dir + "/shell.meta";
  Capability dir_cap;
  if (!meta_path.empty() && LoadMeta(meta_path, &dir_cap)) {
    if (!dir.Adopt(dir_cap).ok()) {
      std::fprintf(stderr, "cannot adopt directory from %s\n", meta_path.c_str());
      return 1;
    }
  } else {
    if (!dir.Init().ok()) {
      std::fprintf(stderr, "directory init failed\n");
      return 1;
    }
    if (!meta_path.empty()) {
      SaveMeta(meta_path, dir.directory_file());
    }
  }
  FileClient client(&net, {fs0.port(), fs1.port()});
  GarbageCollector gc({&fs0, &fs1}, GcOptions{.keep_versions = 4});

  // Interactive session: span collection on so `spans`/`slow` have something to show; any
  // transaction slower than 20ms gets its whole span tree captured in the slow log.
  obs::SetSpanEnabled(true);
  obs::SetSlowTraceThresholdNs(20'000'000);

  std::printf("Amoeba File Service shell — 'help' for commands\n");
  std::string line;
  while (std::printf("afs> "), std::fflush(stdout), std::getline(std::cin, line)) {
    std::istringstream in(line);
    std::string cmd;
    in >> cmd;
    if (cmd.empty()) {
      continue;
    }
    if (cmd == "quit" || cmd == "exit") {
      break;
    }
    if (cmd == "help") {
      PrintHelp();
    } else if (cmd == "ls") {
      auto names = dir.List();
      if (!names.ok()) {
        std::printf("error: %s\n", names.status().ToString().c_str());
        continue;
      }
      for (const std::string& name : *names) {
        std::printf("  %s\n", name.c_str());
      }
    } else if (cmd == "create") {
      std::string name;
      in >> name;
      auto file = client.CreateFile();
      Status st = file.ok() ? dir.Enter(name, *file) : file.status();
      std::printf("%s\n", st.ToString().c_str());
    } else if (cmd == "write" || cmd == "read" || cmd == "mkpage" || cmd == "history" ||
               cmd == "rm") {
      std::string name;
      in >> name;
      auto cap = dir.Lookup(name);
      if (!cap.ok()) {
        std::printf("error: %s\n", cap.status().ToString().c_str());
        continue;
      }
      if (cmd == "history") {
        auto stat = client.FileStat(*cap);
        if (stat.ok()) {
          std::printf("%u committed version(s)%s\n", stat->committed_versions,
                      stat->is_super ? " (super-file)" : "");
        } else {
          std::printf("error: %s\n", stat.status().ToString().c_str());
        }
        continue;
      }
      if (cmd == "rm") {
        Status st = dir.Remove(name);
        if (st.ok()) {
          st = client.DeleteFile(*cap);
        }
        std::printf("%s\n", st.ToString().c_str());
        continue;
      }
      std::string path_text;
      in >> path_text;
      auto path = PagePath::Parse(path_text);
      if (!path.ok()) {
        std::printf("bad path: %s\n", path.status().ToString().c_str());
        continue;
      }
      if (cmd == "read") {
        auto current = client.GetCurrentVersion(*cap);
        if (!current.ok()) {
          std::printf("error: %s\n", current.status().ToString().c_str());
          continue;
        }
        auto text = client.ReadString(*current, *path);
        if (text.ok()) {
          std::printf("%s\n", text->c_str());
        } else {
          std::printf("error: %s\n", text.status().ToString().c_str());
        }
        continue;
      }
      if (cmd == "mkpage") {
        uint32_t index = 0;
        in >> index;
        auto stats =
            RunTransaction(&client, *cap, [&](FileClient& c, const Capability& v) {
              return c.InsertRef(v, *path, index);
            });
        std::printf("%s\n", stats.status().ToString().c_str());
        continue;
      }
      std::string text;
      std::getline(in, text);
      if (!text.empty() && text[0] == ' ') {
        text.erase(0, 1);
      }
      auto stats = RunTransaction(&client, *cap, [&](FileClient& c, const Capability& v) {
        return c.WriteString(v, *path, text);
      });
      if (stats.ok()) {
        std::printf("committed in %d attempt(s)\n", stats->attempts);
      } else {
        std::printf("error: %s\n", stats.status().ToString().c_str());
      }
    } else if (cmd == "crash" || cmd == "restart") {
      std::string which;
      in >> which;
      Service* target = which == "fs0"      ? static_cast<Service*>(&fs0)
                        : which == "fs1"    ? static_cast<Service*>(&fs1)
                        : which == "blockA" ? static_cast<Service*>(&block_a)
                                            : nullptr;
      if (target == nullptr) {
        std::printf("unknown server '%s'\n", which.c_str());
        continue;
      }
      if (cmd == "crash") {
        target->Crash();
      } else {
        target->Restart();
      }
      std::printf("%s %sed\n", which.c_str(), cmd.c_str());
    } else if (cmd == "stats") {
      std::string which;
      in >> which;
      if (which.empty()) {
        std::printf("%s", obs::DumpAllText().c_str());
        continue;
      }
      Service* target = which == "fs0"      ? static_cast<Service*>(&fs0)
                        : which == "fs1"    ? static_cast<Service*>(&fs1)
                        : which == "blockA" ? static_cast<Service*>(&block_a)
                        : which == "blockB" ? static_cast<Service*>(&block_b)
                                            : nullptr;
      if (target == nullptr) {
        std::printf("unknown server '%s'\n", which.c_str());
        continue;
      }
      auto text = ScrapeStats(&net, target->port());
      if (text.ok()) {
        std::printf("%s", text->c_str());
      } else {
        std::printf("error: %s\n", text.status().ToString().c_str());
      }
    } else if (cmd == "shards") {
      std::printf("local shell runs one shard; per-file-server counters:\n");
      for (Service* fs :
           {static_cast<Service*>(&fs0), static_cast<Service*>(&fs1)}) {
        std::printf("  file server port %llu:\n", (unsigned long long)fs->port());
        auto text = ScrapeStats(&net, fs->port());
        if (text.ok()) {
          PrintShardStats(*text);
        } else {
          std::printf("    error: %s\n", text.status().ToString().c_str());
        }
      }
    } else if (cmd == "spans") {
      std::string arg;
      in >> arg;
      if (arg == "tree") {
        std::string id;
        in >> id;
        uint64_t trace_id = std::strtoull(id.c_str(), nullptr, 10);
        std::string tree = obs::FormatSpanTree(trace_id);
        std::printf("%s", tree.empty() ? "no spans for that trace\n" : tree.c_str());
        continue;
      }
      Service* target = arg == "fs0"      ? static_cast<Service*>(&fs0)
                        : arg == "fs1"    ? static_cast<Service*>(&fs1)
                        : arg == "blockA" ? static_cast<Service*>(&block_a)
                        : arg == "blockB" ? static_cast<Service*>(&block_b)
                                          : nullptr;
      std::string count;
      if (target != nullptr) {
        in >> count;
      } else {
        count = arg;
      }
      size_t n = count.empty() ? 40 : std::strtoull(count.c_str(), nullptr, 10);
      if (target != nullptr) {
        auto text = ScrapeSpans(&net, target->port(), static_cast<uint32_t>(n),
                                /*chrome_json=*/false);
        if (text.ok()) {
          std::printf("%s", text->c_str());
        } else {
          std::printf("error: %s\n", text.status().ToString().c_str());
        }
      } else {
        std::printf("%s", obs::DumpSpansText(n).c_str());
      }
    } else if (cmd == "slow") {
      size_t n = 5;
      std::string arg;
      if (in >> arg) {
        n = static_cast<size_t>(std::strtoull(arg.c_str(), nullptr, 10));
      }
      std::vector<std::string> dumps = obs::SlowTraceDumps(n);
      if (dumps.empty()) {
        std::printf("no transactions over %llu ms yet\n",
                    (unsigned long long)(obs::SlowTraceThresholdNs() / 1'000'000));
      }
      for (const std::string& d : dumps) {
        std::printf("%s", d.c_str());
      }
    } else if (cmd == "slo") {
      std::printf("%s", obs::SloTracker::Global()->DumpText().c_str());
    } else if (cmd == "checkpoint") {
      if (fdisk_a == nullptr) {
        std::printf("no persistent store (run with --store <dir>)\n");
        continue;
      }
      Status st = fdisk_a->Checkpoint();
      if (st.ok()) {
        st = fdisk_b->Checkpoint();
      }
      if (st.ok()) {
        st = fdisk_archive->Checkpoint();
      }
      std::printf("%s (%llu checkpoint(s), journals now %llu byte(s))\n",
                  st.ToString().c_str(),
                  (unsigned long long)(fdisk_a->checkpoints() + fdisk_b->checkpoints() +
                                       fdisk_archive->checkpoints()),
                  (unsigned long long)(fdisk_a->journal_bytes() + fdisk_b->journal_bytes() +
                                       fdisk_archive->journal_bytes()));
    } else if (cmd == "gc") {
      Status st = gc.RunCycle();
      std::printf("%s (%llu block(s) swept so far)\n", st.ToString().c_str(),
                  (unsigned long long)gc.stats().blocks_swept);
    } else if (cmd == "migrate") {
      auto migrated = migrator.RunCycle();
      if (migrated.ok()) {
        TierStatInfo t = tiered.Stats();
        std::printf("%llu block(s) archived (%llu magnetic block(s) reclaimed so far)\n",
                    (unsigned long long)*migrated,
                    (unsigned long long)t.magnetic_reclaimed);
      } else {
        std::printf("error: %s\n", migrated.status().ToString().c_str());
      }
    } else if (cmd == "tiers") {
      TierStatInfo t = tiered.Stats();
      std::printf(
          "magnetic: stable pair of 2 block server(s)\n"
          "archive:  %llu/%llu block(s) burned, %llu payload byte(s)\n"
          "mapped:   %llu block(s) archived\n"
          "counters: %llu migrated, %llu reclaimed, %llu promotion(s), %llu repair(s)\n",
          (unsigned long long)t.archive_used_blocks,
          (unsigned long long)t.archive_capacity_blocks,
          (unsigned long long)t.archive_bytes, (unsigned long long)t.archived_blocks,
          (unsigned long long)t.migrated_total, (unsigned long long)t.magnetic_reclaimed,
          (unsigned long long)t.promotions, (unsigned long long)t.scrub_repairs);
    } else if (cmd == "scrub") {
      auto summary = scrubber.RunPass();
      if (summary.ok()) {
        std::printf("%llu checked, %llu repaired, %llu unrecoverable\n",
                    (unsigned long long)summary->checked,
                    (unsigned long long)summary->repaired,
                    (unsigned long long)summary->unrecoverable);
      } else {
        std::printf("error: %s\n", summary.status().ToString().c_str());
      }
    } else if (cmd == "fsck") {
      FsckReport report = RunTieredFsck(&fs0, &tiered);
      std::printf("%s\n", report.ToString().c_str());
    } else {
      std::printf("unknown command '%s' — try 'help'\n", cmd.c_str());
    }
  }
  return 0;
}
