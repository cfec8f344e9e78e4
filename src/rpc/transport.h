// Transport: the seam between AFS client stubs and whatever carries their transactions.
//
// The paper's file service is reached through the Amoeba kernel's transaction primitive; a
// reproduction wants to run both ways — in one process for deterministic tests, and as real
// server processes over kernel sockets for everything else. Transport is the interface both
// share:
//
//   * Call() — one request/reply transaction, with the full at-most-once construction of
//     PR 4 implemented ONCE here in the base class: (client_id, txn_id) stamping, timeout
//     retransmission under the same identity with capped exponential jittered backoff, the
//     elapsed-deadline bound, and the rule that kCrashed/kUnavailable are never retried so
//     the §5.3 crash warning stays immediate. Backends supply one network attempt
//     (CallOnce) and the seeded jitter source; the simulated network and the TCP sockets
//     get byte-identical retry behaviour.
//   * Port plumbing — AllocatePort/ClosePort/IsPortAlive. Transaction ports name a client
//     update in lock fields (§5.3); their liveness is what lock waiters poll. The simulated
//     backend keeps them in a table; the TCP backend allocates them in the SERVER's table,
//     scoped to the client's control connection, so a client that dies takes its ports (and
//     therefore its locks) with it — over real sockets too.
//   * Fault injection — one FaultInjection struct configures both the simulated network and
//     the socket-path fault shim (docs/FAULTS.md, docs/NET.md), so the chaos harness runs
//     the same seeded schedules over either.
//
// Concrete backends: Network (src/rpc/network.h, in-process queues) and net::TcpTransport
// (src/net/tcp_transport.h, real TCP sockets).

#ifndef SRC_RPC_TRANSPORT_H_
#define SRC_RPC_TRANSPORT_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>

#include "src/base/capability.h"
#include "src/base/status.h"
#include "src/obs/metrics.h"
#include "src/rpc/message.h"

namespace afs {

struct CallOptions {
  std::chrono::milliseconds timeout{1000};
  // At-most-once retransmission (Birrell & Nelson, PAPERS.md). When true, Call() stamps the
  // request with a fresh (client_id, txn_id) and retries kTimeout failures under the same
  // identity, so the server can tell a retransmission from a new request. Injected drops
  // fail fast, so a retransmission burst costs microseconds, not multiples of `timeout`;
  // genuine handler timeouts are additionally bounded by `retransmit_deadline_factor`.
  bool at_most_once = true;
  int max_retransmits = 16;
  // Backoff between retransmissions: jittered exponential, backoff_base << attempt, capped.
  std::chrono::microseconds backoff_base{100};
  std::chrono::microseconds backoff_cap{2000};
  // Stop retransmitting once total elapsed time exceeds timeout * this factor (guards the
  // slow-handler case, where every attempt burns a full `timeout`).
  int retransmit_deadline_factor = 3;
};

// Independent message-level fault probabilities, rolled per attempt from the backend's
// seeded Rng. One struct serves both backends: the simulated Network applies these to its
// in-process deliveries, the TCP fault shim to real socket sends (docs/NET.md §faults).
// The legacy Network::set_drop_probability(p) knob is gone — write
// set_fault_injection(FaultInjection{.drop_request = p}) instead; the fields map 1:1.
struct FaultInjection {
  double drop_request = 0.0;    // lost before the server sees it -> kTimeout
  double drop_reply = 0.0;      // handler executed, reply lost -> kTimeout
  double duplicate_request = 0.0;  // request delivered twice (extra delivery's reply lost)
  double reorder_delay = 0.0;      // delivery delayed by up to reorder_max (bounded reorder)
  std::chrono::microseconds reorder_max{500};
};

class Transport {
 public:
  // `metrics_name` names the backend's registry (both backends use the shared net.* metric
  // names below, so dashboards read the same either way).
  explicit Transport(std::string metrics_name);
  virtual ~Transport();

  Transport(const Transport&) = delete;
  Transport& operator=(const Transport&) = delete;

  // -- Transactions ---------------------------------------------------------

  // Perform one request/reply transaction against `target`, with at-most-once
  // retransmission per `options`. Failure modes: kNotFound (no such port ever), kCrashed
  // (service down or crashed mid-call), kTimeout (message dropped or handler exceeded the
  // timeout), kUnavailable (partitioned).
  Result<Message> Call(Port target, Message request, const CallOptions& options = {});

  // -- Port management ------------------------------------------------------

  // Allocate a fresh port not bound to a service (a transaction port), optionally
  // parent-linked so it dies with a service port. Locks in version pages store these
  // (§5.3); IsPortAlive is what lock waiters poll to detect crashed holders.
  virtual Port AllocatePort(Port parent = kNullPort) = 0;
  virtual void ClosePort(Port port) = 0;
  virtual bool IsPortAlive(Port port) const = 0;

  // -- Fault injection ------------------------------------------------------

  virtual void set_fault_injection(const FaultInjection& faults) = 0;
  virtual FaultInjection fault_injection() const = 0;
  // While partitioned, calls to `port` fail with kUnavailable.
  virtual void SetPartitioned(Port port, bool partitioned) = 0;

  // -- Introspection --------------------------------------------------------

  uint64_t total_calls() const { return sends_->value(); }
  // Logical Call()s issued by the CURRENT THREAD across all transports, monotonically
  // increasing. Delta around a code region = that region's RPC cost on this thread (used
  // by the commit path's commit.rpcs histogram). Counts logical calls, not retransmits.
  static uint64_t ThreadCalls();
  uint64_t dropped_calls() const { return timeouts_->value(); }
  uint64_t dropped_replies() const { return reply_drops_->value(); }
  uint64_t retransmits() const { return retransmits_->value(); }
  uint64_t duplicate_deliveries() const { return dup_deliveries_->value(); }
  obs::MetricRegistry* metrics() { return &metrics_; }

 protected:
  // One network attempt of Call(): deliver the request, return the reply. Retransmission,
  // stamping, and the client span live above, in Call().
  virtual Result<Message> CallOnce(Port target, const Message& request,
                                   const CallOptions& options) = 0;

  // Jittered value in [lo, hi] from the backend's seeded rng — the backoff randomness, kept
  // behind the backend so one seed drives every random event of a schedule.
  virtual uint64_t JitterBelow(uint64_t lo, uint64_t hi) = 0;

  // Stable per-(transport, thread) client identity for at-most-once stamping. One client
  // thread performs one blocking transaction at a time, so the server's per-client reply
  // window can stay tiny.
  uint64_t ThreadClientId();

  // Mint the identity behind a new (transport, thread) binding. The default hands out
  // transport-local ids, which are unique exactly because one process shares one simulated
  // Network. A backend whose server faces many client PROCESSES must override this with
  // ids unique across all of them — two clients that both pick client_id 1 would share one
  // reply-cache window, and one could be answered with the other's cached reply. The TCP
  // backend fetches a server-allocated id base (kNetClientId) for this reason.
  virtual uint64_t NewClientId() {
    return next_client_id_.fetch_add(1, std::memory_order_relaxed);
  }

  obs::MetricRegistry metrics_;
  obs::Counter* sends_ = metrics_.counter("net.sends");
  obs::Counter* timeouts_ = metrics_.counter("net.timeouts");  // injected request drops
  obs::Counter* reply_drops_ = metrics_.counter("net.reply_drops");
  obs::Counter* dup_deliveries_ = metrics_.counter("net.dup_deliveries");
  obs::Counter* reorder_delays_ = metrics_.counter("net.reorder_delays");
  obs::Counter* retransmits_ = metrics_.counter("net.retransmits");
  obs::Counter* retransmit_exhausted_ = metrics_.counter("net.retransmit_exhausted");
  obs::Counter* partition_drops_ = metrics_.counter("net.partition_drops");
  obs::Counter* crashed_calls_ = metrics_.counter("net.crashed_calls");

 private:
  // Process-unique incarnation id, so thread-local client-id bindings can never leak from
  // a destroyed transport into a new one allocated at the same address.
  const uint64_t uid_;
  std::atomic<uint64_t> next_client_id_{1};
  std::atomic<uint64_t> next_txn_id_{1};
};

}  // namespace afs

#endif  // SRC_RPC_TRANSPORT_H_
