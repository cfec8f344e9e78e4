#include "src/rpc/service.h"

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "src/obs/span.h"
#include "src/rpc/client.h"

namespace afs {

Service::Service(Network* network, std::string name, int num_workers)
    : network_(network),
      name_(std::move(name)),
      num_workers_(std::max(1, num_workers)),
      metrics_(name_),
      handle_ns_(metrics_.histogram("rpc.handle_ns")),
      queue_depth_(metrics_.gauge("rpc.queue_depth")),
      crash_failed_(metrics_.counter("rpc.crash_failed")),
      dup_replayed_(metrics_.counter("rpc.dup_replayed")),
      dup_coalesced_(metrics_.counter("rpc.dup_coalesced")),
      late_replies_(metrics_.counter("rpc.late_replies")),
      reply_cache_clients_(metrics_.gauge("rpc.reply_cache_clients")) {}

Service::~Service() {
  StopAndJoin();
  if (port_ != kNullPort) {
    network_->UnbindService(port_);
  }
}

void Service::Start() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (running_) {
      return;
    }
  }
  if (port_ == kNullPort) {
    port_ = network_->BindService(this);
  } else {
    network_->RebindService(this, port_);
  }
  std::lock_guard<std::mutex> lock(mu_);
  running_ = true;
  stopping_ = false;
  for (int i = 0; i < num_workers_; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

bool Service::running() const {
  std::lock_guard<std::mutex> lock(mu_);
  return running_;
}

void Service::StopWorkers(bool mark_crashed) {
  std::vector<std::shared_ptr<CallState>> to_fail;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!running_) {
      return;
    }
    running_ = false;
    stopping_ = true;
    // Fail everything queued and everything a worker is currently handling. The client
    // unblocks immediately with kCrashed — the paper's crash-notification property.
    for (auto& [req, state] : queue_) {
      (void)req;
      to_fail.push_back(state);
    }
    queue_.clear();
    queue_depth_->Set(0);
    for (auto& state : in_flight_) {
      to_fail.push_back(state);
    }
    // Workers are not joined here: a crash must not wait for in-flight handlers. They
    // drain into zombies_ and are reaped on Restart() or destruction.
    for (auto& w : workers_) {
      zombies_.push_back(std::move(w));
    }
    workers_.clear();
  }
  queue_cv_.notify_all();
  if (!to_fail.empty()) {
    crash_failed_->Inc(to_fail.size());
  }
  for (auto& state : to_fail) {
    std::lock_guard<std::mutex> lock(state->mu);
    if (!state->done) {
      state->done = true;
      state->result = mark_crashed ? CrashedError(name_ + " crashed")
                                   : UnavailableError(name_ + " shut down");
      state->cv.notify_all();
    }
  }
  if (port_ != kNullPort) {
    network_->SetServiceAlive(port_, false);
  }
  // The reply cache is server RAM: it dies with the process. A retransmission arriving
  // after Restart() misses the cache and re-executes — the documented at-most-once limit
  // (docs/FAULTS.md); clients are warned by kCrashed in the meantime.
  {
    std::lock_guard<std::mutex> lock(cache_mu_);
    reply_cache_.clear();
    reply_cache_clients_->Set(0);
  }
}

void Service::ReapZombies() {
  std::vector<std::thread> zombies;
  {
    std::lock_guard<std::mutex> lock(mu_);
    zombies.swap(zombies_);
  }
  for (auto& z : zombies) {
    if (z.joinable()) {
      z.join();
    }
  }
}

void Service::Crash() { StopWorkers(/*mark_crashed=*/true); }

void Service::Shutdown() { StopWorkers(/*mark_crashed=*/false); }

void Service::StopAndJoin() {
  Shutdown();
  ReapZombies();
}

void Service::Restart() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (running_) {
      return;
    }
  }
  ReapZombies();
  OnRestart();
  Start();
}

Result<Message> Service::Submit(Message request, std::chrono::milliseconds timeout) {
  const bool stamped = request.client_id != 0;
  const uint64_t client_id = request.client_id;
  const uint64_t txn_id = request.txn_id;
  std::shared_ptr<CallState> state;
  if (stamped) {
    bool fresh = false;
    state = RegisterCall(request, &fresh);
    if (!fresh) {
      return AwaitExisting(state, timeout);
    }
  } else {
    state = std::make_shared<CallState>();
  }

  {
    std::unique_lock<std::mutex> lock(mu_);
    if (!running_) {
      lock.unlock();
      if (stamped) {
        ForgetCall(client_id, txn_id);
      }
      return CrashedError(name_ + " is down");
    }
    queue_.emplace_back(std::move(request), state);
    // Published under mu_ so the gauge can never under- or over-count relative to the
    // queue it describes.
    queue_depth_->Set(static_cast<int64_t>(queue_.size()));
  }
  queue_cv_.notify_one();

  std::unique_lock<std::mutex> lock(state->mu);
  if (!state->cv.wait_for(lock, timeout, [&] { return state->done; })) {
    // The handler may still be running. Leave the call registered so its eventual reply
    // lands in the cache (counted as rpc.late_replies) where the retransmission finds it,
    // instead of discarding the reply and re-executing a possibly non-idempotent op.
    state->abandoned = true;
    return TimeoutError(name_ + " transaction timed out");
  }
  if (stamped) {
    return state->result;  // copy: the entry stays replayable for retransmissions
  }
  return std::move(state->result);
}

Result<Message> Service::AwaitExisting(const std::shared_ptr<CallState>& state,
                                       std::chrono::milliseconds timeout) {
  std::unique_lock<std::mutex> lock(state->mu);
  if (state->done) {
    // Replay increments ONLY rpc.dup_replayed: the handler does not re-run, so the per-op
    // count/latency instruments and the handle span all stay at exactly one per logical
    // call — the cached reply still references the original span via its trace context.
    dup_replayed_->Inc();
    return state->result;
  }
  // The original delivery is still executing: attach to it instead of enqueueing a second
  // execution. Handle() runs at most once no matter how many copies arrive.
  dup_coalesced_->Inc();
  if (!state->cv.wait_for(lock, timeout, [&] { return state->done; })) {
    state->abandoned = true;
    return TimeoutError(name_ + " transaction timed out");
  }
  return state->result;
}

std::shared_ptr<Service::CallState> Service::RegisterCall(const Message& request,
                                                          bool* fresh) {
  std::lock_guard<std::mutex> lock(cache_mu_);
  ClientWindow& window = reply_cache_[request.client_id];
  window.last_used = ++cache_tick_;
  auto it = window.by_txn.find(request.txn_id);
  if (it != window.by_txn.end()) {
    *fresh = false;
    return it->second;
  }
  *fresh = true;
  auto state = std::make_shared<CallState>();
  window.by_txn.emplace(request.txn_id, state);
  window.order.push_back(request.txn_id);
  // Trim this client's window, oldest first, but never evict an in-flight call — a
  // coalesced duplicate may be waiting on it.
  while (window.order.size() > kReplyWindowPerClient) {
    const uint64_t oldest = window.order.front();
    auto oit = window.by_txn.find(oldest);
    if (oit != window.by_txn.end()) {
      std::lock_guard<std::mutex> slock(oit->second->mu);
      if (!oit->second->done) {
        break;
      }
    }
    window.order.pop_front();
    if (oit != window.by_txn.end()) {
      window.by_txn.erase(oit);
    }
  }
  if (reply_cache_.size() > kReplyCacheMaxClients) {
    EvictIdlestClientLocked(request.client_id);
  }
  reply_cache_clients_->Set(static_cast<int64_t>(reply_cache_.size()));
  return state;
}

void Service::EvictIdlestClientLocked(uint64_t keep) {
  uint64_t victim = 0;
  uint64_t victim_tick = 0;
  bool found = false;
  for (auto& [cid, window] : reply_cache_) {
    if (cid == keep || (found && window.last_used >= victim_tick)) {
      continue;
    }
    bool all_done = true;
    for (auto& [txn, state] : window.by_txn) {
      (void)txn;
      std::lock_guard<std::mutex> slock(state->mu);
      if (!state->done) {
        all_done = false;
        break;
      }
    }
    if (all_done) {
      victim = cid;
      victim_tick = window.last_used;
      found = true;
    }
  }
  if (found) {
    reply_cache_.erase(victim);
  }
}

void Service::ForgetCall(uint64_t client_id, uint64_t txn_id) {
  std::lock_guard<std::mutex> lock(cache_mu_);
  auto it = reply_cache_.find(client_id);
  if (it == reply_cache_.end()) {
    return;
  }
  it->second.by_txn.erase(txn_id);
  auto& order = it->second.order;
  order.erase(std::remove(order.begin(), order.end(), txn_id), order.end());
  if (it->second.by_txn.empty()) {
    reply_cache_.erase(it);
  }
  reply_cache_clients_->Set(static_cast<int64_t>(reply_cache_.size()));
}

void Service::WorkerLoop() {
  for (;;) {
    Message request;
    std::shared_ptr<CallState> state;
    {
      std::unique_lock<std::mutex> lock(mu_);
      queue_cv_.wait(lock, [&] { return stopping_ || !queue_.empty(); });
      if (stopping_ && queue_.empty()) {
        return;
      }
      request = std::move(queue_.front().first);
      state = std::move(queue_.front().second);
      queue_.pop_front();
      queue_depth_->Set(static_cast<int64_t>(queue_.size()));
      in_flight_.push_back(state);
    }

    const auto start = std::chrono::steady_clock::now();
    Result<Message> result = Status(ErrorCode::kInternal);
    {
      // Adopt the caller's trace context so this handle span — and every span the handler
      // opens below it (commit phases, nested block RPCs, journal work) — joins the
      // caller's tree. This block runs at most once per logical call: a retransmission of
      // a completed call is answered from the reply cache (AwaitExisting) without ever
      // reaching a worker, so no duplicate handle span can exist.
      obs::SpanContextScope rpc_ctx(request.trace_id, request.span_id);
      char span_name[obs::kSpanNameBytes] = "handle";
      if (obs::SpanEnabled()) {
        if (request.opcode == kGetStats) {
          std::snprintf(span_name, sizeof(span_name), "handle:stats");
        } else if (request.opcode == kGetSpans) {
          std::snprintf(span_name, sizeof(span_name), "handle:spans");
        } else {
          std::snprintf(span_name, sizeof(span_name), "handle:%u", request.opcode);
        }
      }
      obs::ScopedSpan handle_span(span_name, obs::SpanKind::kServer, request.opcode, 0);
      result = request.opcode == kGetStats   ? HandleGetStats()
               : request.opcode == kGetSpans ? HandleGetSpans(request)
                                             : Handle(request);
      if (!result.ok()) {
        handle_span.set_status(static_cast<uint8_t>(result.status().code()));
      }
    }
    const uint64_t ns = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(std::chrono::steady_clock::now() -
                                                             start)
            .count());
    // Primary per-op instruments: recorded here, on the one fresh execution, and nowhere
    // else — the dup-replay path must never touch them (see AwaitExisting).
    handle_ns_->Record(ns);
    OpStats* op = StatsForOp(request.opcode);
    op->count->Inc();
    op->handle_ns->Record(ns);

    {
      std::lock_guard<std::mutex> lock(mu_);
      in_flight_.erase(std::remove(in_flight_.begin(), in_flight_.end(), state),
                       in_flight_.end());
    }
    {
      std::lock_guard<std::mutex> lock(state->mu);
      // done may already be set by StopWorkers (kCrashed/kUnavailable) — that verdict
      // stands; a crash-era reply must not leak out.
      if (!state->done) {
        state->done = true;
        state->result = std::move(result);
        if (state->abandoned) {
          // Every waiter timed out before the handler finished. The reply is not lost:
          // it sits in the cache entry, where the retransmission will find it.
          late_replies_->Inc();
        }
        state->cv.notify_all();
      }
    }
  }
}

Service::OpStats* Service::StatsForOp(uint32_t opcode) {
  std::lock_guard<std::mutex> lock(op_stats_mu_);
  OpStats& stats = op_stats_[opcode];
  if (stats.count == nullptr) {
    const std::string suffix = opcode == kGetStats   ? std::string("stats")
                               : opcode == kGetSpans ? std::string("spans")
                                                     : std::to_string(opcode);
    stats.count = metrics_.counter("rpc.op." + suffix + ".count");
    stats.handle_ns = metrics_.histogram("rpc.op." + suffix + ".handle_ns");
  }
  return &stats;
}

Result<Message> Service::HandleGetStats() {
  std::string text;
  metrics_.DumpText(&text);
  WireEncoder out;
  out.PutString(text);
  return OkReply(kGetStats, std::move(out));
}

Result<Message> Service::HandleGetSpans(const Message& request) {
  WireDecoder req(std::vector<uint8_t>(request.payload));
  ASSIGN_OR_RETURN(uint32_t max_spans, req.GetU32());
  ASSIGN_OR_RETURN(uint8_t format, req.GetU8());
  max_spans = std::min<uint32_t>(max_spans, obs::kSpanRingCapacity);
  std::string text = format == 1 ? obs::DumpSpansChromeJson(max_spans)
                                 : obs::DumpSpansText(max_spans);
  // The reply must itself fit in one transaction message; drop whole lines from the OLD
  // end (text dumps are oldest-first) until it does. The Chrome export cannot be cut at a
  // line boundary, so it is retried with ever fewer events instead.
  const size_t budget = kMaxMessageBytes - 256;
  if (format == 1) {
    uint32_t n = max_spans;
    while (text.size() > budget && n > 1) {
      n /= 2;
      text = obs::DumpSpansChromeJson(n);
    }
  } else if (text.size() > budget) {
    text.erase(0, text.find('\n', text.size() - budget) + 1);
  }
  WireEncoder out;
  out.PutString(text);
  return OkReply(kGetSpans, std::move(out));
}

}  // namespace afs
