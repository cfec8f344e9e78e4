#include "src/rpc/network.h"

#include <thread>

#include "src/rpc/service.h"

namespace afs {

Network::Network(uint64_t seed) : Transport("net"), rng_(seed) {}

Network::~Network() = default;

Port Network::AllocatePort(Port parent) {
  std::lock_guard<std::mutex> lock(mu_);
  Port port = next_port_++;
  transaction_ports_[port] = parent;
  return port;
}

void Network::ClosePort(Port port) {
  std::lock_guard<std::mutex> lock(mu_);
  transaction_ports_.erase(port);
}

bool Network::IsPortAlive(Port port) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (live_service_ports_.count(port) > 0) {
    return true;
  }
  auto it = transaction_ports_.find(port);
  if (it == transaction_ports_.end()) {
    return false;
  }
  // A parent-linked port dies with its parent service (one level of linking only).
  return it->second == kNullPort || live_service_ports_.count(it->second) > 0 ||
         transaction_ports_.count(it->second) > 0;
}

Port Network::BindService(Service* service) {
  std::lock_guard<std::mutex> lock(mu_);
  Port port = next_port_++;
  services_[port] = service;
  live_service_ports_.insert(port);
  return port;
}

void Network::RebindService(Service* service, Port port) {
  std::lock_guard<std::mutex> lock(mu_);
  services_[port] = service;
  live_service_ports_.insert(port);
}

void Network::UnbindService(Port port) {
  std::lock_guard<std::mutex> lock(mu_);
  services_.erase(port);
  live_service_ports_.erase(port);
}

void Network::SetServiceAlive(Port port, bool alive) {
  std::lock_guard<std::mutex> lock(mu_);
  if (alive) {
    live_service_ports_.insert(port);
  } else {
    live_service_ports_.erase(port);
  }
}

void Network::set_fault_injection(const FaultInjection& faults) {
  std::lock_guard<std::mutex> lock(mu_);
  faults_ = faults;
}

FaultInjection Network::fault_injection() const {
  std::lock_guard<std::mutex> lock(mu_);
  return faults_;
}

bool Network::RollFault(double p) {
  if (p <= 0.0) {
    return false;
  }
  std::lock_guard<std::mutex> lock(mu_);
  return rng_.NextBool(p);
}

uint64_t Network::JitterBelow(uint64_t lo, uint64_t hi) {
  std::lock_guard<std::mutex> lock(mu_);
  return rng_.NextInRange(lo, hi);
}

void Network::set_latency(std::chrono::microseconds min, std::chrono::microseconds max) {
  std::lock_guard<std::mutex> lock(mu_);
  latency_min_ = min;
  latency_max_ = max;
}

void Network::SetPartitioned(Port port, bool partitioned) {
  std::lock_guard<std::mutex> lock(mu_);
  if (partitioned) {
    partitioned_.insert(port);
  } else {
    partitioned_.erase(port);
  }
}

Result<Service*> Network::LookupForCall(Port port) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = services_.find(port);
  if (it == services_.end()) {
    return NotFoundError("no service bound to port");
  }
  if (partitioned_.count(port) > 0) {
    partition_drops_->Inc();
    return UnavailableError("port partitioned");
  }
  if (live_service_ports_.count(port) == 0) {
    crashed_calls_->Inc();
    return CrashedError("service is down");
  }
  if (faults_.drop_request > 0.0 && rng_.NextBool(faults_.drop_request)) {
    timeouts_->Inc();
    return TimeoutError("request dropped");
  }
  return it->second;
}

std::chrono::microseconds Network::PickLatency() {
  std::lock_guard<std::mutex> lock(mu_);
  if (latency_max_.count() == 0) {
    return std::chrono::microseconds(0);
  }
  auto span = static_cast<uint64_t>((latency_max_ - latency_min_).count());
  auto extra = span == 0 ? 0 : rng_.NextBelow(span + 1);
  return latency_min_ + std::chrono::microseconds(extra);
}

Result<Message> Network::CallOnce(Port target, const Message& request,
                                  const CallOptions& options) {
  sends_->Inc();
  const FaultInjection faults = fault_injection();
  auto latency = PickLatency();
  if (latency.count() > 0) {
    std::this_thread::sleep_for(latency);
  }
  if (RollFault(faults.reorder_delay)) {
    // Bounded reordering: this delivery is held back while later sends from other threads
    // overtake it. With blocking per-thread calls this is the full extent of reordering the
    // model can express (see docs/FAULTS.md).
    reorder_delays_->Inc();
    uint64_t max_us = static_cast<uint64_t>(faults.reorder_max.count());
    if (max_us > 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(JitterBelow(0, max_us)));
    }
  }
  ASSIGN_OR_RETURN(Service * service, LookupForCall(target));
  if (request.client_id != 0 && RollFault(faults.duplicate_request)) {
    // Duplicate delivery: the same stamped request reaches the server twice. The extra
    // delivery's reply is lost; the reply cache must make the re-execution invisible.
    dup_deliveries_->Inc();
    (void)service->Submit(Message(request), options.timeout);
  }
  Result<Message> reply = service->Submit(Message(request), options.timeout);
  if (reply.ok() && RollFault(faults.drop_reply)) {
    reply_drops_->Inc();
    return TimeoutError("reply dropped");
  }
  return reply;
}

}  // namespace afs
