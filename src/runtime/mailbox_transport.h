// The mailbox-transport seam between runtime::Runtime and a concrete
// message fabric.
//
// Runtime's dispatcher threads are fabric-agnostic: they block in WaitPop
// for the next packet addressed to a node this process hosts, honour the
// packet's injected delivery deadline, and then Dispatch it under the
// node's agent lock. Two fabrics implement the contract:
//
//   * runtime::ChannelTransport — the in-process threads backend: every
//     cluster node lives in this process and has its own mailbox.
//   * netio::SocketTransport — the multi-process sockets backend: the
//     process hosts one or more consecutive ranks; remote nodes are
//     reached over TCP or same-host shm rings. The reactor threads feed
//     TCP packets into the local mailboxes; once a shm ring link is up,
//     the primary rank's dispatcher drains the rings itself from inside
//     its WaitPop (DrainsOnWait) — so that thread must never block while
//     the rings hold bytes, which is what Progress is for.
//
// The enqueued/dispatched counters cover every packet that enters a
// *local* mailbox (self-sends included); `enqueued() == dispatched()` with
// no local worker running means this process is locally quiescent. On the
// sockets backend that is only one conjunct of cluster quiescence — the
// netio coordinator combines it with matched wire counters across ranks.
#pragma once

#include "src/net/transport.h"

namespace hmdsm::runtime {

class MailboxTransport : public net::Transport {
 public:
  /// Blocks for the next packet addressed to `node` (which must be hosted
  /// by this process); returns false once the mailbox is closed.
  virtual bool WaitPop(net::NodeId node, net::Packet& out) = 0;

  /// True when WaitPop(node) also drains a receive path that other
  /// processes wait on. Such a dispatcher must not block on the agent
  /// lock: it calls Progress until the lock is free. May turn true after
  /// the dispatchers start (SocketTransport: when the first shm ring link
  /// comes up), never back to false, so the dispatcher asks per packet.
  virtual bool DrainsOnWait(net::NodeId node) const {
    (void)node;
    return false;
  }

  /// One non-blocking receive pass on `node`'s draining thread (only
  /// called when DrainsOnWait(node)).
  virtual void Progress(net::NodeId node) { (void)node; }

  /// Delivers one popped packet: receive-side accounting plus the
  /// registered handler. Must be called under the destination node's agent
  /// lock.
  virtual void Dispatch(net::Packet&& packet) = 0;

  /// Closes every locally hosted mailbox; dispatchers drain out of WaitPop
  /// with false.
  virtual void CloseAll() = 0;

  /// Packets pushed into / fully handled from local mailboxes so far.
  virtual std::uint64_t enqueued() const = 0;
  virtual std::uint64_t dispatched() const = 0;

  /// Blocks until `packet`'s injected delivery deadline (latency-injection
  /// fabrics only; default: deliver immediately).
  virtual void AwaitDeliveryTime(const net::Packet& packet) const {
    (void)packet;
  }

  /// Folds transport-level statistics that live outside the per-node
  /// recorders (wire-write counters, syscall-latency histograms kept by
  /// writer threads) into a snapshot of `node`'s recorder. Called by
  /// Runtime::SnapshotRecorder/Totals on the copy, never on the live
  /// recorder.
  virtual void AugmentSnapshot(net::NodeId node, stats::Recorder& into) const {
    (void)node;
    (void)into;
  }
};

}  // namespace hmdsm::runtime
