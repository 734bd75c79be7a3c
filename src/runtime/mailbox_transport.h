// The mailbox-transport seam between runtime::Runtime and a concrete
// message fabric.
//
// Runtime is fabric-agnostic. Each hosted node has one mailbox, and the
// node's agent lock is its consumer baton: a packet is popped (TryReceive)
// and dispatched only by the thread that holds the lock, and it is
// dispatched before the lock is released, so the node's packets run in
// mailbox order whoever pops them. Two kinds of thread take turns:
//
//   * the node's dispatcher waits in AwaitReceive without popping, then
//     takes the agent lock and pops one packet;
//   * a guest parked in Guest::Park already holds the lock: for up to
//     kReceivePollWindow it pops and dispatches the node's packets itself
//     (its own reply among them). LendReceive/ReclaimReceive bracket that
//     poll: meanwhile pushes do not wake the dispatcher, and
//     ReclaimReceive wakes it if packets are left.
//
// Two fabrics implement the contract:
//
//   * runtime::ChannelTransport — the in-process threads backend: every
//     cluster node lives in this process and has its own mailbox. With
//     latency injection on it does not lend (LendsReceive): its
//     dispatchers pop outside the agent lock and sleep toward each
//     packet's deadline there, and guests never receive.
//   * netio::SocketTransport — the multi-process sockets backend: the
//     process hosts one or more consecutive ranks; remote nodes are
//     reached over TCP or same-host shm rings. The reactor threads push
//     TCP packets into the local mailboxes; once a shm ring link is up,
//     the primary rank's receiver — its dispatcher or its parked guest —
//     also drains the rings into the mailboxes.
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
  /// Blocks until `node` (hosted by this process) may have a packet to
  /// pop; false once its mailbox is closed (or a wait was interrupted —
  /// callers simply ask again). Pops nothing. While a guest has the
  /// node's receive path on loan it does not return: the guest pops.
  virtual bool AwaitReceive(net::NodeId node) = 0;

  /// Non-blocking: pops `node`'s next packet, after one pass over the
  /// receive path that `node` drains, if any. Single consumer: call it
  /// under `node`'s agent lock, or from the only thread that receives for
  /// `node`.
  virtual bool TryReceive(net::NodeId node, net::Packet& out) = 0;

  /// Blocks for the next packet addressed to `node` and pops it; false
  /// once the mailbox is closed. For callers that are the node's only
  /// consumer (tests, the injecting dispatcher).
  bool WaitPop(net::NodeId node, net::Packet& out) {
    while (AwaitReceive(node)) {
      if (TryReceive(node, out)) return true;
    }
    return false;
  }

  /// False when packets must not be popped under the agent lock (latency
  /// injection sleeps between pop and dispatch): Runtime then keeps the
  /// WaitPop dispatcher and guests never receive. Fixed before the
  /// dispatchers start.
  virtual bool LendsReceive() const { return true; }

  /// A parked guest starts / stops polling `node`'s receive path under
  /// its agent lock (one guest per node at a time). While lent, pushes
  /// and ring writes do not wake the dispatcher; ReclaimReceive wakes it
  /// if anything arrived that the guest left.
  virtual void LendReceive(net::NodeId node) = 0;
  virtual void ReclaimReceive(net::NodeId node) = 0;

  /// Delivers one popped packet: receive-side accounting plus the
  /// registered handler. Must be called under the destination node's agent
  /// lock.
  virtual void Dispatch(net::Packet&& packet) = 0;

  /// Closes every locally hosted mailbox; dispatchers drain out of
  /// AwaitReceive with false.
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
  /// Runtime::Totals on the copy, never on the live recorder.
  virtual void AugmentSnapshot(net::NodeId node, stats::Recorder& into) const {
    (void)node;
    (void)into;
  }
};

}  // namespace hmdsm::runtime
