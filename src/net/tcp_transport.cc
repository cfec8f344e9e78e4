#include "src/net/tcp_transport.h"

#include <unistd.h>

#include <algorithm>
#include <random>
#include <thread>
#include <utility>

#include "src/base/wire.h"
#include "src/net/socket.h"

namespace afs {
namespace net {

TcpTransport::Conn::~Conn() {
  if (fd >= 0) {
    close(fd);
  }
}

TcpTransport::TcpTransport(std::string host, uint16_t port)
    : TcpTransport(std::move(host), port, Options()) {}

TcpTransport::TcpTransport(std::string host, uint16_t port, Options options)
    : Transport("net"),
      host_(std::move(host)),
      port_(port),
      options_(options),
      rng_(options.seed) {}

TcpTransport::~TcpTransport() = default;

void TcpTransport::set_fault_injection(const FaultInjection& faults) {
  std::lock_guard<std::mutex> lock(mu_);
  faults_ = faults;
}

FaultInjection TcpTransport::fault_injection() const {
  std::lock_guard<std::mutex> lock(mu_);
  return faults_;
}

void TcpTransport::SetPartitioned(Port port, bool partitioned) {
  std::lock_guard<std::mutex> lock(mu_);
  if (partitioned) {
    partitioned_.insert(port);
  } else {
    partitioned_.erase(port);
  }
}

bool TcpTransport::RollFault(double p) {
  if (p <= 0.0) {
    return false;
  }
  std::lock_guard<std::mutex> lock(mu_);
  return rng_.NextBool(p);
}

uint64_t TcpTransport::JitterBelow(uint64_t lo, uint64_t hi) {
  std::lock_guard<std::mutex> lock(mu_);
  return rng_.NextInRange(lo, hi);
}

uint64_t TcpTransport::NewClientId() {
  uint64_t base = client_id_base_.load(std::memory_order_acquire);
  if (base == 0) {
    auto reply = ControlCall(kNetClientId, {});
    if (reply.ok()) {
      WireDecoder dec(std::span<const uint8_t>(reply->payload));
      if (auto fetched = dec.GetU64(); fetched.ok() && *fetched != 0) {
        base = *fetched;
      }
    }
    if (base == 0) {
      // Server unreachable (the stamped call will fail too, but the binding is cached per
      // thread, so it must still be collision-free): high bit set so it can never meet a
      // served base, entropy from the OS — NOT the seeded rng_, which two client processes
      // may share a seed for.
      std::random_device rd;
      base = ((static_cast<uint64_t>(rd()) << 32) | (1ull << 63)) & ~0xFFFFFFFFull;
    }
    uint64_t expected = 0;
    if (!client_id_base_.compare_exchange_strong(expected, base,
                                                 std::memory_order_acq_rel)) {
      base = expected;  // another thread fetched first; share its namespace
    }
  }
  return base | local_client_seq_.fetch_add(1, std::memory_order_relaxed);
}

// -- Connection pool ---------------------------------------------------------

Result<std::unique_ptr<TcpTransport::Conn>> TcpTransport::Checkout(
    std::chrono::steady_clock::time_point deadline) {
  while (true) {
    std::unique_ptr<Conn> conn;
    {
      std::lock_guard<std::mutex> lock(pool_mu_);
      if (!pool_.empty()) {
        conn = std::move(pool_.back());
        pool_.pop_back();
      }
    }
    if (!conn) {
      break;
    }
    // A pooled connection the server idle-closed would read as EOF mid-call and
    // masquerade as a crash; discard it here instead (its FIN is already queued).
    if (!PeerClosed(conn->fd)) {
      return conn;
    }
  }
  auto remaining = std::chrono::duration_cast<std::chrono::milliseconds>(
      deadline - std::chrono::steady_clock::now());
  auto dial_timeout = std::min(options_.dial_timeout, std::max(remaining, std::chrono::milliseconds(1)));
  ASSIGN_OR_RETURN(int fd, DialTcp(host_, port_, dial_timeout));
  auto conn = std::make_unique<Conn>();
  conn->fd = fd;
  return conn;
}

void TcpTransport::Checkin(std::unique_ptr<Conn> conn) {
  std::lock_guard<std::mutex> lock(pool_mu_);
  if (pool_.size() < options_.max_pooled_connections) {
    pool_.push_back(std::move(conn));
  }
  // else: destructor closes the fd
}

// -- One attempt --------------------------------------------------------------

Result<Message> TcpTransport::RoundTrip(Conn* conn, const Frame& frame, bool duplicate,
                                        std::chrono::steady_clock::time_point deadline,
                                        bool* conn_broken) {
  *conn_broken = true;  // cleared only on the clean paths
  std::vector<uint8_t> bytes = EncodeFrame(frame);
  RETURN_IF_ERROR(SendAll(conn->fd, bytes.data(), bytes.size(), deadline));
  if (duplicate) {
    // Duplicate delivery: the same stamped frame hits the server twice. The extra reply
    // is left in the stream and discarded by seq-matching (here or on the next call).
    RETURN_IF_ERROR(SendAll(conn->fd, bytes.data(), bytes.size(), deadline));
  }
  uint8_t buf[16 * 1024];
  while (true) {
    Frame reply;
    while (true) {
      ASSIGN_OR_RETURN(bool got, conn->reader.Next(&reply));
      if (got) {
        break;
      }
      ASSIGN_OR_RETURN(size_t n, RecvSome(conn->fd, buf, sizeof(buf), deadline));
      if (n == 0) {
        // Clean EOF: the server process went away under us — the crash warning (§5.3).
        return CrashedError("server closed connection");
      }
      conn->reader.Feed(buf, n);
    }
    if (reply.seq != frame.seq) {
      continue;  // stale reply from an earlier duplicate send on this connection
    }
    if (reply.type == FrameType::kReplyOk) {
      *conn_broken = false;
      return std::move(reply.message);
    }
    if (reply.type == FrameType::kReplyError) {
      *conn_broken = false;
      return reply.error;
    }
    return InvalidArgumentError("server sent a request frame");
  }
}

Result<Message> TcpTransport::CallOnce(Port target, const Message& request,
                                       const CallOptions& options) {
  sends_->Inc();
  const FaultInjection faults = fault_injection();
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (partitioned_.count(target) > 0) {
      partition_drops_->Inc();
      return UnavailableError("port partitioned");
    }
  }
  if (RollFault(faults.reorder_delay)) {
    reorder_delays_->Inc();
    uint64_t max_us = static_cast<uint64_t>(faults.reorder_max.count());
    if (max_us > 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(JitterBelow(0, max_us)));
    }
  }
  if (RollFault(faults.drop_request)) {
    // Lost before it reaches the wire, like a dropped datagram.
    timeouts_->Inc();
    return TimeoutError("request dropped");
  }
  auto deadline = std::chrono::steady_clock::now() + options.timeout;
  auto checkout = Checkout(deadline);
  if (!checkout.ok()) {
    if (checkout.status().code() == ErrorCode::kCrashed) {
      crashed_calls_->Inc();
    }
    return checkout.status();
  }
  std::unique_ptr<Conn> conn = std::move(checkout).value();
  const bool duplicate = request.client_id != 0 && RollFault(faults.duplicate_request);
  if (duplicate) {
    dup_deliveries_->Inc();
  }
  Frame frame = MakeRequestFrame(conn->next_seq++, target, Message(request),
                                 static_cast<uint32_t>(options.timeout.count()));
  bool conn_broken = false;
  Result<Message> reply = RoundTrip(conn.get(), frame, duplicate, deadline, &conn_broken);
  if (!conn_broken) {
    Checkin(std::move(conn));
  }
  // else: drop the connection; a retransmission dials a fresh one.
  if (reply.ok() && RollFault(faults.drop_reply)) {
    // The reply was consumed off the wire, then lost. The retransmission is answered from
    // the server's reply cache without re-execution.
    reply_drops_->Inc();
    return TimeoutError("reply dropped");
  }
  if (!reply.ok() && reply.status().code() == ErrorCode::kCrashed) {
    crashed_calls_->Inc();
  }
  return reply;
}

// -- Control plane ------------------------------------------------------------

Result<Message> TcpTransport::ControlCall(uint32_t opcode,
                                          std::vector<uint8_t> payload) const {
  std::lock_guard<std::mutex> lock(control_mu_);
  Status last = OkStatus();
  for (int attempt = 0; attempt < 2; ++attempt) {
    auto deadline = std::chrono::steady_clock::now() + options_.control_timeout;
    if (!control_) {
      auto fd = DialTcp(host_, port_, options_.dial_timeout);
      if (!fd.ok()) {
        last = fd.status();
        continue;
      }
      control_ = std::make_unique<Conn>();
      control_->fd = *fd;
    }
    Frame frame = MakeRequestFrame(
        control_->next_seq++, kNullPort, Message(opcode, payload),
        static_cast<uint32_t>(options_.control_timeout.count()));
    bool conn_broken = false;
    // ControlCall is const so IsPortAlive (polled by lock waiters) can stay const across
    // the Transport interface; RoundTrip only touches the connection itself.
    Result<Message> reply = const_cast<TcpTransport*>(this)->RoundTrip(
        control_.get(), frame, /*duplicate=*/false, deadline, &conn_broken);
    if (conn_broken) {
      control_.reset();
    }
    if (reply.ok() || attempt == 1 || !conn_broken) {
      return reply;
    }
    last = reply.status();
  }
  return last;
}

Port TcpTransport::AllocatePort(Port parent) {
  WireEncoder enc;
  enc.PutU64(parent);
  Result<Message> reply = ControlCall(kNetAllocPort, std::move(enc).Take());
  if (!reply.ok()) {
    return kNullPort;  // server unreachable: every call will fail anyway
  }
  WireDecoder dec(std::span<const uint8_t>(reply->payload));
  auto port = dec.GetU64();
  return port.ok() ? *port : kNullPort;
}

void TcpTransport::ClosePort(Port port) {
  WireEncoder enc;
  enc.PutU64(port);
  (void)ControlCall(kNetClosePort, std::move(enc).Take());
}

bool TcpTransport::IsPortAlive(Port port) const {
  WireEncoder enc;
  enc.PutU64(port);
  Result<Message> reply = ControlCall(kNetPortAlive, std::move(enc).Take());
  if (!reply.ok()) {
    // Unreachable server: nobody is there to honour the port's locks, so report dead and
    // let waiters steal — the same conclusion a local waiter reaches when a server dies.
    return false;
  }
  WireDecoder dec(std::span<const uint8_t>(reply->payload));
  auto alive = dec.GetU8();
  return alive.ok() && *alive != 0;
}

Result<TcpTransport::HelloInfo> TcpTransport::SayHello() {
  ASSIGN_OR_RETURN(Message reply, ControlCall(kNetHello, {}));
  WireDecoder dec(std::span<const uint8_t>(reply.payload));
  HelloInfo info;
  ASSIGN_OR_RETURN(uint32_t count, dec.GetU32());
  for (uint32_t i = 0; i < count; ++i) {
    HelloEntry entry;
    ASSIGN_OR_RETURN(entry.name, dec.GetString());
    ASSIGN_OR_RETURN(entry.port, dec.GetU64());
    ASSIGN_OR_RETURN(entry.kind, dec.GetU8());
    info.services.push_back(std::move(entry));
  }
  ASSIGN_OR_RETURN(uint8_t has_root, dec.GetU8());
  info.has_root = has_root != 0;
  if (info.has_root) {
    ASSIGN_OR_RETURN(info.root, dec.GetCapability());
  }
  return info;
}

}  // namespace net
}  // namespace afs
