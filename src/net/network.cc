#include "src/net/network.h"

#include <algorithm>
#include <memory>
#include <utility>

namespace hmdsm::net {

void Network::Send(NodeId src, NodeId dst, stats::MsgCat cat, Buf payload) {
  HMDSM_CHECK(src < handlers_.size() && dst < handlers_.size());
  Packet packet{src, dst, cat, std::move(payload)};
  if (src == dst) {
    // Local handoff: no wire traffic, no latency, but still asynchronous so
    // the handler never runs re-entrantly inside the sender's call stack.
    kernel_.ScheduleAfter(0, [this, p = std::make_shared<Packet>(
                                  std::move(packet))]() mutable {
      Deliver(std::move(*p));
    });
    return;
  }
  const std::size_t wire_bytes = packet.payload.size() + kHeaderBytes;
  recorders_[src].RecordMessage(cat, wire_bytes);
  recorders_[src].RecordSent(src, wire_bytes);
  ++packets_sent_;
  // The transmit term m/r∞ occupies the sender NIC; the startup term t0
  // pipelines. An isolated message still arrives at now + t0 + m/r∞.
  const sim::Time occupancy = model_.Latency(wire_bytes) - model_.Latency(0);
  const sim::Time tx_start = std::max(kernel_.now(), tx_free_[src]);
  tx_free_[src] = tx_start + occupancy;
  sim::Time arrival = tx_free_[src] + model_.Latency(0);
  if (!link_delay_.empty())
    arrival += link_delay_[src * handlers_.size() + dst];
  kernel_.ScheduleAt(
      arrival,
      [this, p = std::make_shared<Packet>(std::move(packet))]() mutable {
        Deliver(std::move(*p));
      });
}

void Network::SetLinkDelay(NodeId src, NodeId dst, sim::Time extra) {
  const std::size_t n = handlers_.size();
  HMDSM_CHECK(src < n && dst < n && extra >= 0);
  if (link_delay_.empty()) link_delay_.assign(n * n, 0);
  link_delay_[src * n + dst] = extra;
}

void Network::Deliver(Packet&& packet) {
  Handler& handler = handlers_[packet.dst];
  HMDSM_CHECK_MSG(handler, "no handler registered for node " << packet.dst);
  if (packet.src != packet.dst) {
    recorders_[packet.dst].RecordReceived(packet.dst,
                                          packet.payload.size() +
                                              kHeaderBytes);
  }
  handler(std::move(packet));
}

}  // namespace hmdsm::net
