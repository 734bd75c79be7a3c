// The transport seam: point-to-point delivery of serialized protocol
// messages between cluster nodes.
//
// dsm::Agent speaks only this interface, so the same protocol engine runs
// on both execution backends:
//
//   * net::Network            — the simulated fabric: Hockney latency, NIC
//     occupancy, virtual-time delivery inside the discrete-event kernel.
//   * runtime::ChannelTransport — the in-process threads backend: per-node
//     mailboxes drained by dispatcher threads, wall-clock Now().
//
// Delivery contract (both implementations honour it, the protocol relies
// on it):
//   * per-sender FIFO: two messages from the same source node arrive at
//     any given destination in send order (the sim serializes the sender's
//     NIC; the threads backend pushes into the destination mailbox under
//     the sender's node lock);
//   * handlers run serialized per destination node and must not block;
//   * self-sends are delivered asynchronously (never re-entrantly inside
//     the sender's call stack) and are not charged to the wire.
//
// Statistics are per-node: every node has its own stats::Recorder so the
// threads backend needs no global counter locking. The send side of a
// message is recorded by the sender (under the sender's serialization),
// the receive side by the receiver at delivery. Recorder::Merge combines
// the per-node recorders into run totals at the end.
#pragma once

#include <cstdint>
#include <functional>

#include "src/sim/time.h"
#include "src/stats/stats.h"
#include "src/util/bytes.h"

namespace hmdsm::net {

/// Cluster node identifier, dense in [0, node_count).
using NodeId = std::uint32_t;

/// A message in flight. `payload` is the serialized protocol message in a
/// shared Buf — encoded once by proto::wire and carried by every backend
/// without re-copying (broadcast fan-out clones the refcount, the socket
/// receive path aliases the wire frame). The wire size adds the fixed
/// transport header.
struct Packet {
  NodeId src = 0;
  NodeId dst = 0;
  stats::MsgCat cat = stats::MsgCat::kObj;
  Buf payload;
  /// Threads backend, latency injection only: the transport-clock deadline
  /// (ChannelTransport::Now() units) before which the dispatcher must not
  /// deliver this packet. 0 = deliver immediately. The simulated network
  /// ignores it (virtual-time delivery is an event, not a deadline).
  sim::Time deliver_after = 0;
  /// Transport-clock time this packet entered a local mailbox, for the
  /// enqueue→dispatch dwell histogram. 0 = not measured (the simulated
  /// network — virtual-time dwell is a modeling artifact).
  sim::Time enqueued_at = 0;
};

class Transport {
 public:
  /// Fixed per-message transport header charged on the wire (Ethernet + IP
  /// + TCP framing, amortized). Counted in traffic and in latency.
  static constexpr std::size_t kHeaderBytes = 40;

  using Handler = std::function<void(Packet&&)>;

  virtual ~Transport() = default;

  virtual std::size_t node_count() const = 0;

  /// Registers the delivery callback for `node`. Must be set before any
  /// message addressed to that node arrives.
  virtual void SetHandler(NodeId node, Handler handler) = 0;

  /// Sends a message from `src` to `dst`. The payload Buf is moved, not
  /// copied — callers typically pass `proto::Encode(msg)` straight through.
  virtual void Send(NodeId src, NodeId dst, stats::MsgCat cat,
                    Buf payload) = 0;

  /// Sends the same payload to every node except `src` (notification
  /// broadcast). Charged as node_count-1 point-to-point messages — the
  /// paper's testbed had no reliable hardware multicast. Fan-out clones the
  /// payload's refcount (or its small inline bytes), never the heap buffer.
  void Broadcast(NodeId src, stats::MsgCat cat, const Buf& payload);

  /// The transport's clock, in nanoseconds: virtual time on the simulator,
  /// wall-clock time since construction on the threads backend. Feeds
  /// trace timestamps and throughput measurement.
  virtual sim::Time Now() const = 0;

  /// Node-local statistics sink. Each node's recorder is only ever mutated
  /// under that node's serialization (kernel baton / node agent lock).
  virtual stats::Recorder& RecorderFor(NodeId node) = 0;
  virtual const stats::Recorder& RecorderFor(NodeId node) const = 0;

  /// Run totals: the per-node recorders merged into one. Callers on the
  /// threads backend must be quiescent (or hold every node lock) first.
  stats::Recorder Totals() const;

  /// Zeroes every per-node recorder (start of a measured window).
  /// Transports with stats state outside the recorders (the socket
  /// transport's wire counters) override to re-baseline it too.
  virtual void ResetStats();
};

}  // namespace hmdsm::net
