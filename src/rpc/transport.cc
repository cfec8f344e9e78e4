#include "src/rpc/transport.h"

#include <algorithm>
#include <cstdio>
#include <thread>
#include <vector>

#include "src/obs/span.h"
#include "src/obs/trace.h"

namespace afs {

namespace {
std::atomic<uint64_t> g_transport_uid{1};
thread_local uint64_t t_thread_calls = 0;
}  // namespace

uint64_t Transport::ThreadCalls() { return t_thread_calls; }

Transport::Transport(std::string metrics_name)
    : metrics_(std::move(metrics_name)),
      uid_(g_transport_uid.fetch_add(1, std::memory_order_relaxed)) {}

Transport::~Transport() = default;

uint64_t Transport::ThreadClientId() {
  struct Binding {
    uint64_t transport_uid;
    uint64_t client_id;
  };
  thread_local std::vector<Binding> bindings;
  for (const Binding& b : bindings) {
    if (b.transport_uid == uid_) {
      return b.client_id;
    }
  }
  uint64_t id = NewClientId();
  bindings.push_back({uid_, id});
  return id;
}

Result<Message> Transport::Call(Port target, Message request, const CallOptions& options) {
  ++t_thread_calls;
  if (request.payload.size() > kMaxMessageBytes) {
    return InvalidArgumentError("message exceeds 32K transaction limit");
  }
  if (options.at_most_once && request.client_id == 0) {
    request.client_id = ThreadClientId();
    request.txn_id = next_txn_id_.fetch_add(1, std::memory_order_relaxed);
  }
  // One client span per LOGICAL call: retransmissions stay inside it (counted in its `b`
  // annotation), and the request carries this span's context on every attempt so the
  // server's handle span — original or replayed — hangs under one node.
  char span_name[obs::kSpanNameBytes] = "rpc.call";
  if (obs::SpanEnabled()) {
    std::snprintf(span_name, sizeof(span_name), "rpc.call:%u", request.opcode);
  }
  obs::ScopedSpan rpc_span(span_name, obs::SpanKind::kClient, target, 0);
  if (rpc_span.active()) {
    request.trace_id = rpc_span.trace_id();
    request.span_id = rpc_span.span_id();
    request.parent_span_id = rpc_span.parent_span_id();
  }
  const int attempts = options.at_most_once ? 1 + std::max(0, options.max_retransmits) : 1;
  const auto deadline = std::chrono::steady_clock::now() +
                        options.timeout * std::max(1, options.retransmit_deadline_factor);
  Result<Message> result = TimeoutError("not attempted");
  for (int attempt = 0; attempt < attempts; ++attempt) {
    if (attempt > 0) {
      retransmits_->Inc();
      obs::Trace(obs::TraceEvent::kRpcRetransmit, target, request.opcode);
      uint64_t hi = static_cast<uint64_t>(options.backoff_base.count())
                    << std::min(attempt - 1, 20);
      hi = std::min(hi, static_cast<uint64_t>(options.backoff_cap.count()));
      if (hi > 0) {
        std::this_thread::sleep_for(std::chrono::microseconds(JitterBelow(hi / 2, hi)));
      }
    }
    result = CallOnce(target, request, options);
    // Only kTimeout is ambiguous (request or reply lost, or handler slow) and safe to
    // retry under the same identity. kCrashed/kUnavailable are definite and must surface
    // immediately — the §5.3 automatic crash warning depends on it.
    if (result.ok() || result.status().code() != ErrorCode::kTimeout) {
      if (rpc_span.active()) {
        rpc_span.set_args(target, static_cast<uint64_t>(attempt));  // b = retransmits used
        if (!result.ok()) {
          rpc_span.set_status(static_cast<uint8_t>(result.status().code()));
        }
      }
      return result;
    }
    if (std::chrono::steady_clock::now() >= deadline) {
      break;
    }
  }
  if (attempts > 1) {
    retransmit_exhausted_->Inc();
  }
  if (rpc_span.active()) {
    rpc_span.set_args(target, static_cast<uint64_t>(attempts - 1));
    if (!result.ok()) {
      rpc_span.set_status(static_cast<uint8_t>(result.status().code()));
    }
  }
  return result;
}

}  // namespace afs
