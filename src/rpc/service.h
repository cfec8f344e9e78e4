// Service: base class for every AFS server process (block servers, file servers, directory
// servers, baselines).
//
// A Service owns a pool of worker threads that pop requests from a queue and run the
// subclass's Handle(). Crash() models a server-process crash: workers stop, every queued and
// in-flight transaction fails with kCrashed (the paper: "the outstanding transactions with
// the server crash as well"), and the port goes dead until Restart(). Restart() reuses the
// same port — an Amoeba service port survives server replacement — and runs the subclass's
// OnRestart() recovery hook before accepting requests.
//
// At-most-once: requests stamped with a (client_id, txn_id) identity are remembered in a
// bounded per-client reply cache. A retransmission of a completed call replays the cached
// reply without re-executing Handle(); one arriving while the original is still executing
// attaches to the in-flight call and waits (coalescing). A handler that completes after its
// waiter timed out feeds its reply into the cache instead of dropping it, so the eventual
// retransmission is answered from the cache. The cache lives in server memory only: it is
// cleared by Crash()/Shutdown(), exactly like a real server losing its RAM, so a retry that
// spans a crash may re-execute — callers still rely on the kCrashed warning (§5.3).

#ifndef SRC_RPC_SERVICE_H_
#define SRC_RPC_SERVICE_H_

#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "src/base/status.h"
#include "src/obs/metrics.h"
#include "src/rpc/message.h"
#include "src/rpc/network.h"

namespace afs {

namespace net {
class TcpServer;
}  // namespace net

class Service {
 public:
  // Reserved opcode intercepted by the Service base itself, never forwarded to Handle():
  // replies with the text exposition (obs::MetricRegistry::DumpText) of this server's
  // metrics, so any client can scrape any live server.
  static constexpr uint32_t kGetStats = 0xAF500001;
  // Reserved opcode: scrape recent spans (request: u32 max_spans, u8 format 0=text
  // 1=chrome-json; reply: string, truncated to fit one transaction message). The span
  // collector is process-wide, so any live server answers for the whole deployment.
  static constexpr uint32_t kGetSpans = 0xAF500002;

  // `num_workers` > 1 lets a file server run serialisability tests in parallel with other
  // commits, as §5.2 requires; subclass Handle() implementations must be thread-safe.
  Service(Network* network, std::string name, int num_workers = 4);
  virtual ~Service();

  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  // Bind a port (first call) and begin serving. Idempotent while running.
  void Start();

  // Model a crash: stop serving, fail queued and in-flight calls with kCrashed, drop the
  // port's liveness. State in the subclass is NOT cleaned up — exactly like a real crash.
  void Crash();

  // Graceful stop (drains nothing; like Crash but without the pejorative semantics for
  // callers — pending calls fail with kUnavailable instead of kCrashed).
  void Shutdown();

  // Bring a crashed service back on its old port. Runs OnRestart() before serving.
  void Restart();

  Port port() const { return port_; }
  const std::string& name() const { return name_; }
  Network* network() const { return network_; }
  bool running() const;

  // This server's metric registry (named after the service). Subclasses register their
  // own counters/histograms here so one kGetStats scrape covers the whole server.
  obs::MetricRegistry* metrics() { return &metrics_; }

 protected:
  // Serve one request. Returning a non-ok Status produces an error reply at the caller.
  virtual Result<Message> Handle(const Message& request) = 0;

  // Crash-recovery hook, run on Restart() before the port goes live (e.g. a block server
  // "compares notes with its companion, and restores its disk before accepting any
  // requests", §4).
  virtual void OnRestart() {}

  // Stop serving and join every worker, including handlers still running. A derived class
  // calls this first in its destructor: ~Service runs after the derived members are gone,
  // too late for a handler that still uses them.
  void StopAndJoin();

 private:
  friend class Network;
  // The TCP server core delivers remote requests through the same Submit() entry, so the
  // reply cache, duplicate coalescing, and crash semantics are identical over sockets.
  friend class net::TcpServer;

  struct CallState {
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;       // result is valid (worker finished, or failed by StopWorkers)
    bool abandoned = false;  // every waiter gave up; completion counts rpc.late_replies
    Result<Message> result = Status(ErrorCode::kInternal);
  };

  // Network-side entry: enqueue and wait. For stamped requests the CallState doubles as
  // the reply-cache entry, so retransmissions find either the in-flight call or its reply.
  Result<Message> Submit(Message request, std::chrono::milliseconds timeout);

  // -- At-most-once reply cache ---------------------------------------------

  // One remembered client: its recent calls by txn_id, in arrival order.
  struct ClientWindow {
    std::unordered_map<uint64_t, std::shared_ptr<CallState>> by_txn;
    std::deque<uint64_t> order;  // oldest first
    uint64_t last_used = 0;      // cache_tick_ at last lookup (client LRU)
  };
  // Per-client replies remembered. A client thread has at most one call outstanding, so a
  // small window outlives any realistic retransmission race.
  static constexpr size_t kReplyWindowPerClient = 4;
  static constexpr size_t kReplyCacheMaxClients = 256;

  // Returns the cache entry for (request.client_id, request.txn_id), creating it when this
  // is the first delivery (*fresh = true) or returning the existing one for a duplicate.
  std::shared_ptr<CallState> RegisterCall(const Message& request, bool* fresh);
  // Drops a just-registered entry that was never enqueued (service found stopped).
  void ForgetCall(uint64_t client_id, uint64_t txn_id);
  // Evicts the least-recently-used client whose calls have all completed (never `keep`).
  void EvictIdlestClientLocked(uint64_t keep);
  // Duplicate delivery path: replay a completed reply or wait on the in-flight original.
  Result<Message> AwaitExisting(const std::shared_ptr<CallState>& state,
                                std::chrono::milliseconds timeout);

  void WorkerLoop();
  // Stop serving without waiting for in-flight handlers (a crash does not politely join its
  // threads). Stopped workers become zombies, reaped on Restart()/destruction.
  void StopWorkers(bool mark_crashed);
  void ReapZombies();

  Result<Message> HandleGetStats();
  Result<Message> HandleGetSpans(const Message& request);
  // Per-request-type instruments, created lazily on the first request of each type.
  struct OpStats {
    obs::Counter* count = nullptr;
    obs::Histogram* handle_ns = nullptr;
  };
  OpStats* StatsForOp(uint32_t opcode);

  Network* network_;
  std::string name_;
  int num_workers_;
  Port port_ = kNullPort;

  obs::MetricRegistry metrics_;
  obs::Histogram* handle_ns_;     // latency of every Handle(), all request types merged
  obs::Gauge* queue_depth_;       // requests queued but not yet picked up by a worker
  obs::Counter* crash_failed_;    // calls failed with kCrashed by Crash()/Shutdown()
  obs::Counter* dup_replayed_;    // duplicate answered from the reply cache, no re-execution
  obs::Counter* dup_coalesced_;   // duplicate attached to the in-flight original
  obs::Counter* late_replies_;    // handler completed after every waiter timed out
  obs::Gauge* reply_cache_clients_;
  std::mutex op_stats_mu_;
  std::unordered_map<uint32_t, OpStats> op_stats_;

  // Reply cache. Lock order: cache_mu_ before any CallState::mu; never with mu_ held.
  std::mutex cache_mu_;
  std::unordered_map<uint64_t, ClientWindow> reply_cache_;
  uint64_t cache_tick_ = 0;

  mutable std::mutex mu_;
  std::condition_variable queue_cv_;
  std::deque<std::pair<Message, std::shared_ptr<CallState>>> queue_;
  std::vector<std::shared_ptr<CallState>> in_flight_;
  std::vector<std::thread> workers_;
  std::vector<std::thread> zombies_;
  bool running_ = false;
  bool stopping_ = false;
};

}  // namespace afs

#endif  // SRC_RPC_SERVICE_H_
