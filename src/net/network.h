// Simulated cluster interconnect — the sim backend's Transport.
//
// Point-to-point delivery with Hockney latency, per-category message/byte
// accounting into per-node recorders, and kernel-context delivery
// callbacks. Handlers registered by the DSM agents must be non-blocking
// (they run inside the event loop).
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "src/net/hockney.h"
#include "src/net/transport.h"
#include "src/sim/kernel.h"
#include "src/util/bytes.h"

namespace hmdsm::net {

/// The simulated network fabric. One instance per cluster.
class Network final : public Transport {
 public:
  Network(sim::Kernel& kernel, HockneyModel model, std::size_t node_count)
      : kernel_(kernel),
        model_(model),
        handlers_(node_count),
        recorders_(node_count),
        tx_free_(node_count, 0) {
    for (stats::Recorder& r : recorders_) r.SetNodeCount(node_count);
  }

  std::size_t node_count() const override { return handlers_.size(); }
  const HockneyModel& model() const { return model_; }

  void SetHandler(NodeId node, Handler handler) override {
    HMDSM_CHECK(node < handlers_.size());
    handlers_[node] = std::move(handler);
  }

  /// Sends a message. An isolated message is delivered after the Hockney
  /// latency t(m) = t0 + m/r∞. Under load, the sender's NIC serializes
  /// transmissions: each message occupies the sender for its m/r∞ term, so
  /// back-to-back sends (e.g., one home answering P fault-ins, a barrier
  /// release fan-out) queue behind each other — the contention the paper's
  /// testbed would see on Fast Ethernet. Self-sends are free and only
  /// asynchronous.
  void Send(NodeId src, NodeId dst, stats::MsgCat cat,
            Buf payload) override;

  /// Virtual time.
  sim::Time Now() const override { return kernel_.now(); }

  stats::Recorder& RecorderFor(NodeId node) override {
    HMDSM_CHECK(node < recorders_.size());
    return recorders_[node];
  }
  const stats::Recorder& RecorderFor(NodeId node) const override {
    HMDSM_CHECK(node < recorders_.size());
    return recorders_[node];
  }

  /// Total messages delivered so far (self-sends excluded).
  std::uint64_t packets_sent() const { return packets_sent_; }

  /// Schedule seam: messages sent from `src` to `dst` from now on arrive
  /// `extra` later than the model says. A link keeps FIFO order as long as
  /// its delay is never lowered while messages are in flight on it.
  void SetLinkDelay(NodeId src, NodeId dst, sim::Time extra);

 private:
  void Deliver(Packet&& packet);

  sim::Kernel& kernel_;
  HockneyModel model_;
  std::vector<Handler> handlers_;
  std::deque<stats::Recorder> recorders_;  // per node; deque: stable refs
  std::vector<sim::Time> tx_free_;  // per-node NIC transmit availability
  std::vector<sim::Time> link_delay_;  // [src * nodes + dst]; empty = none
  std::uint64_t packets_sent_ = 0;
};

}  // namespace hmdsm::net
