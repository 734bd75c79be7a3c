// netio::SocketTransport — the multi-process TCP implementation of the
// transport seam. One OS process hosts `ranks_per_proc` consecutive
// cluster nodes ("ranks"); this object is one process's view of the mesh.
//
// Mesh topology: one TCP connection per unordered *process* pair, keyed by
// each process's primary (lowest hosted) rank — 128 ranks in 8 processes
// need 28 connections, not 8128. Low-primary processes listen, high ones
// dial (ascending), and both sides handshake with a Hello/HelloAck
// carrying the protocol version, primary rank, cluster size, and
// ranks_per_proc. A version, identity, or shape mismatch refuses the
// connection loudly. All ranks sharing a process exchange messages through
// local mailboxes without touching the wire.
//
// I/O model: an epoll reactor. A small pool of I/O threads (io_threads,
// default 4 — independent of rank count) owns the peer sockets
// round-robin; all sockets are nonblocking. Reads run a per-peer state
// machine (4-byte length header, then the exact-size frame buffer — the
// frame is decoded zero-copy as a util::Buf). Writes drain the per-peer
// frame queue through writev: a backlog is coalesced into one Batch frame
// whose header and per-frame length prefixes are emitted as scatter
// segments around the already-encoded frames, so batching never copies a
// payload. A partial write parks a cursor and arms EPOLLOUT; the write
// counters and the write-latency histogram only ever record *successful*
// writes. A reactor thread polls before it blocks: after its last peer or
// wake event it calls epoll_wait(..., 0), yielding between passes, for
// kReceivePollWindow (netio/poll_window.h, 200 us), and only then returns
// to epoll_wait(-1). Every pass still sees the wake eventfd (stop, kicks)
// and the heartbeat timerfd, whose ticks alone do not reopen the window.
// The price is CPU while traffic flows (README, "Receive paths poll
// before they park").
//
// Data path and the delivery contract (see net/transport.h):
//   * Send() is always called under the source node's agent lock, so sends
//     are serialized at the source. A send between two ranks of the same
//     process goes straight into the destination's mailbox (charged to the
//     recorders like the in-process channel transport, but never counted
//     as wire traffic); a remote send is framed and appended to the
//     destination process's connection queue. The sender's enqueue order
//     is a sub-order of the connection's total order and TCP preserves it,
//     so per-sender FIFO survives connection sharing.
//   * Adaptive batching: a reactor flush that finds a single queued frame
//     writes it immediately (an idle link adds no latency); a backlog —
//     senders outrunning the wire — is coalesced into one Batch image per
//     writev up to a size/count budget. Batching preserves queue order
//     exactly, so FIFO survives.
//   * Received frames are decoded defensively (peer input is untrusted)
//     and data packets are pushed into the destination rank's mailbox —
//     the same mailbox local sends use, so delivery order is whatever that
//     rank's single dispatcher pops, and a self-send is never re-entrant.
//     Payloads are aliased views of the received wire frame (util::Buf),
//     never re-copied between the wire and the handler.
//   * Statistics live in the local ranks' recorders only (send half at
//     Send, receive half at Dispatch); cluster totals are gathered over
//     control frames by the netio::Coordinator at the end of a run.
//
// Control frames (thread start/done, quiescence probes, stats, shutdown)
// share the per-process connection queues — so a control frame from
// process A to process B is FIFO-ordered against A's data traffic to B,
// which the coordinator's reset/start sequencing relies on — and are
// routed to the registered control handler from reactor-thread context,
// attributed to the remote process's primary rank.
//
// The wire_sent/wire_received counters (data frames only) feed the
// distributed quiescence detection: this process alone cannot know whether
// the cluster is idle, only the coordinator's cross-process probe can.
// shm-routed data frames count here too — wire_sent/wire_received stay a
// conservation law over *all* inter-process data traffic regardless of
// which medium carried it.
//
// Shared-memory rings (negotiated per link at handshake): when two
// processes share a host (identity hash exchanged in the Hello), data
// frames skip TCP and travel a per-direction SPSC ring in the receiver's
// shm segment (netio/shm.h). Data frames have one encoding on either
// medium. Control frames and heartbeats stay on TCP: the liveness plane
// keeps measuring the real socket, and the coordinator planes are safe off
// the data path because quiescence is monotone-counter-based (not
// ordering-based), stats resets run only at global quiescence, and
// run-start gating is ack-causal (the lead only starts after every process
// acknowledged setup). The one data/control ordering hazard is at attach
// time: if the TCP queue already holds data frames when shm comes up, the
// link simply stays on TCP — never reorder, just decline.
//
// Thread layout on a shm mesh: no thread reads the rings on the side. Once
// a link negotiates a ring, the primary rank's dispatcher is the drainer —
// its WaitPop (DrainPop) pops the primary's mailbox, else drains every
// attached ring into the mailboxes of the ranks the frames are for (its
// own included, popped again at once, on the same thread); with nothing
// found it polls for kReceivePollWindow and then parks on the segment
// doorbell, which every ring write and every push into the primary's
// mailbox knocks. The drainer never blocks while its rings hold bytes: it
// keeps draining while it waits for its agent lock (Progress, called by
// runtime::Runtime), a link lock (SendData), or space in a peer's full
// ring (ShmTransport::WriteFrame). Other ranks' dispatchers pop their
// mailboxes as before, and so does the primary's until a ring link comes
// up — for the whole run when every link stays on TCP (shm off, another
// host, a single-process mesh). The reactor threads serve TCP either way.
#pragma once

#include <atomic>
#include <condition_variable>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/netio/frame.h"
#include "src/netio/shm.h"
#include "src/netio/socket.h"
#include "src/runtime/channel.h"
#include "src/runtime/mailbox_transport.h"
#include "src/util/bufpool.h"

namespace hmdsm::netio {

struct SocketTransportOptions {
  /// This process's primary node id: the lowest rank it hosts. Must be a
  /// multiple of ranks_per_proc; the process hosts ranks
  /// [rank, min(rank + ranks_per_proc, peers.size())).
  net::NodeId rank = 0;
  /// One "host:port" endpoint per rank (index = rank). Every process gets
  /// the identical list; all ranks of one process share that process's
  /// endpoint (only primaries' entries are ever dialed).
  std::vector<std::string> peers;
  /// Consecutive ranks hosted per OS process. Every process in the mesh
  /// must agree (validated by the handshake); the last process may host
  /// fewer when peers.size() is not a multiple.
  std::size_t ranks_per_proc = 1;
  /// Reactor I/O threads servicing the peer sockets (clamped to the peer
  /// process count). Per-process thread cost is O(io_threads), independent
  /// of rank count — the property that makes 128-rank meshes practical.
  std::size_t io_threads = 4;
  /// Pre-bound listening socket to adopt (the self-fork launcher binds
  /// ephemeral ports in the parent so children cannot collide); -1 binds
  /// peers[rank] instead.
  int listen_fd = -1;
  /// Link-liveness heartbeat period. Each reactor thread arms a periodic
  /// timerfd and probes every peer process it owns with a Heartbeat frame;
  /// the ack feeds that link's RTT histogram and last-heard clock. 0
  /// disables the plane entirely (no timerfd, no probe traffic).
  std::size_t heartbeat_interval_ms = 250;
  /// Shared-memory rings for co-located processes. Effective on a link only
  /// when both ends advertise it and report the same host identity;
  /// degrades to TCP on any setup failure.
  bool shm = true;
  /// Capacity of each per-direction shm ring.
  std::size_t shm_ring_bytes = 256 * 1024;
};

/// One peer-process link's health counters, snapshotted for the health
/// plane (poll log, /metrics). All numbers are since transport start.
struct LinkStats {
  net::NodeId primary = 0;   // the peer process's primary rank
  bool connected = false;    // handshake completed
  bool up = true;            // false once the link failed mid-run
  std::uint64_t hb_sent = 0;
  std::uint64_t hb_acked = 0;
  std::int64_t last_heard_ns = -1;  // transport clock; -1 = never
  std::int64_t last_ack_ns = -1;    // last heartbeat ack; -1 = never
  std::uint64_t eagain = 0;         // writes that hit a full socket buffer
  std::uint64_t epollout_arms = 0;  // EPOLLOUT arm transitions
  std::uint64_t kicks = 0;          // eventfd wakeups sent for this peer
  std::uint64_t frames_dropped = 0;  // enqueues refused (link down/closing)
  std::size_t queue_depth = 0;       // frames awaiting the reactor
  std::size_t queue_bytes = 0;       // backlog payload bytes
  bool shm = false;                  // data frames ride the shm ring
  std::uint64_t shm_msgs = 0;        // data frames sent via the ring
  stats::Histogram rtt;              // heartbeat round-trips (ns)
};

class SocketTransport final : public runtime::MailboxTransport {
 public:
  explicit SocketTransport(SocketTransportOptions options);
  ~SocketTransport() override;
  SocketTransport(const SocketTransport&) = delete;
  SocketTransport& operator=(const SocketTransport&) = delete;

  /// This process's primary (lowest hosted) rank.
  net::NodeId rank() const { return options_.rank; }
  /// Every rank this process hosts, ascending (primary first).
  const std::vector<net::NodeId>& local_ranks() const { return local_ranks_; }
  bool is_local(net::NodeId node) const {
    return node < options_.peers.size() && GroupOf(node) == group_;
  }
  /// OS processes in the mesh — the unit the control fan-ins count.
  std::size_t process_count() const { return group_count_; }
  /// Consecutive ranks each process hosts (the last may host fewer).
  std::size_t ranks_per_proc() const { return options_.ranks_per_proc; }
  /// The primary (lowest) rank of the process hosting `node`.
  net::NodeId primary_of(net::NodeId node) const {
    return PrimaryOf(GroupOf(node));
  }

  /// Control frames arrive here from reactor-thread context (serialized
  /// per peer process, concurrent across them), attributed to the remote
  /// process's primary rank. Set before Start().
  using ControlHandler =
      std::function<void(net::NodeId src, ByteSpan frame)>;
  void SetControlHandler(ControlHandler handler);

  /// Invoked from reactor-thread context when a peer-process link fails
  /// mid-run (EOF, read or write error outside the shutdown window),
  /// attributed to that process's primary rank. Fires at most once per
  /// peer. Without a handler a mid-run link failure is fatal (the v5
  /// behavior); with one, the process keeps running so the coordinator
  /// can observe, report, and unwind deliberately. Set before Start().
  using PeerDownHandler =
      std::function<void(net::NodeId primary, const std::string& why)>;
  void SetPeerDownHandler(PeerDownHandler handler);

  /// Snapshots every remote link's health counters (ascending primary
  /// rank; empty when the whole mesh is one process). Safe to call from
  /// any thread while the transport runs.
  std::vector<LinkStats> LinkSnapshots();

  std::uint64_t heartbeat_interval_ns() const {
    return static_cast<std::uint64_t>(options_.heartbeat_interval_ms) *
           1000000ull;
  }

  /// Binds/adopts the listener, starts the reactor pool and the mesh
  /// connector. Returns immediately; AwaitConnected() blocks for
  /// completion.
  void Start();

  /// Blocks until every peer-process link is handshaken (throws CheckError
  /// on connect failure or timeout). The window scales with the cluster
  /// size — a 128-rank bring-up legitimately takes longer than a 2-rank
  /// one.
  void AwaitConnected();

  /// Enqueues a control frame toward `dst`'s process (FIFO with data
  /// traffic on that connection). `dst` must be remote.
  void SendControl(net::NodeId dst, const Bytes& frame);
  /// One copy per remote *process* (delivered to its primary).
  void BroadcastControl(const Bytes& frame);

  /// Data frames handed to the wire / pushed into a local mailbox off the
  /// wire. Local cross-rank sends never touch these.
  std::uint64_t wire_sent() const {
    return wire_sent_.load(std::memory_order_acquire);
  }
  std::uint64_t wire_received() const {
    return wire_received_.load(std::memory_order_acquire);
  }

  /// Wire-write accounting for this process (data + control frames):
  /// successful socket writes issued, total frames enqueued toward the
  /// wire, and how many of those frames rode inside a Batch.
  /// frames_enqueued - frames_coalesced + (batches) == socket_writes; a
  /// coalesced share > 0 is the syscall saving the batching exists for.
  std::uint64_t socket_writes() const {
    return socket_writes_.load(std::memory_order_acquire);
  }
  std::uint64_t frames_enqueued() const {
    return frames_enqueued_.load(std::memory_order_acquire);
  }
  std::uint64_t frames_coalesced() const {
    return frames_coalesced_.load(std::memory_order_acquire);
  }

  /// Data frames that took a shared-memory ring instead of TCP (process
  /// total since transport start; the measured-window version travels
  /// through AugmentSnapshot).
  std::uint64_t shm_msgs() const {
    return shm_msgs_.load(std::memory_order_acquire);
  }
  /// True when this process created a shm segment (at least one link may
  /// negotiate rings).
  bool shm_active() const { return shm_ != nullptr; }

  /// Marks the run as ending: from now on a peer EOF is a normal goodbye,
  /// not a died-peer failure. Call when the shutdown barrier starts.
  void BeginShutdown() {
    shutting_down_.store(true, std::memory_order_release);
  }

  /// Flushes and half-closes every peer link, closes the local mailboxes,
  /// and joins the reactor pool. Requires every process to reach its own
  /// Stop() (the coordinator's shutdown barrier guarantees it). Idempotent.
  void Stop();

  // ---- net::Transport ----

  std::size_t node_count() const override { return options_.peers.size(); }

  void SetHandler(net::NodeId node, Handler handler) override {
    CheckLocal(node);
    handlers_[node - options_.rank] = std::move(handler);
  }

  void Send(net::NodeId src, net::NodeId dst, stats::MsgCat cat,
            Buf payload) override;

  /// Wall-clock nanoseconds since transport construction.
  sim::Time Now() const override {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
  }

  /// Only the local ranks' recorders accumulate anything; remote slots are
  /// zero-filled placeholders so base-class Totals()/ResetStats() see a
  /// full table (cluster-wide totals come from the coordinator's gather).
  stats::Recorder& RecorderFor(net::NodeId node) override {
    HMDSM_CHECK(node < recorders_.size());
    return recorders_[node];
  }
  const stats::Recorder& RecorderFor(net::NodeId node) const override {
    HMDSM_CHECK(node < recorders_.size());
    return recorders_[node];
  }

  /// Re-baselines the wire counters along with the recorders, so the
  /// snapshot fold below reports the measured window only. The atomics
  /// themselves stay monotonic — quiescence probes need absolute values.
  void ResetStats() override;

  /// Folds this process's wire-counter window and the reactor's write-
  /// latency histogram into a recorder snapshot, so the coordinator's
  /// gather carries them and cluster totals come out of Merge. Folded for
  /// the primary rank only — the counters are process-level, and a
  /// multi-rank Totals() must not double-count them.
  void AugmentSnapshot(net::NodeId node, stats::Recorder& into) const override;

  // ---- runtime::MailboxTransport ----

  /// With a shm segment, the primary rank's WaitPop is DrainPop, which
  /// becomes the drainer once a ring link is up; every other rank pops its
  /// mailbox.
  bool WaitPop(net::NodeId node, net::Packet& out) override {
    CheckLocal(node);
    if (shm_ != nullptr && node == options_.rank) return DrainPop(out);
    return mailboxes_[node - options_.rank].WaitPop(out);
  }

  /// True for the primary rank from the first ring link on.
  bool DrainsOnWait(net::NodeId node) const override {
    return node == options_.rank &&
           rings_live_.load(std::memory_order_acquire);
  }

  /// One pass over the shm rings; yields when it found nothing.
  void Progress(net::NodeId node) override;

  void Dispatch(net::Packet&& packet) override;

  /// Also rings the shm doorbell, on which the primary's drainer parks.
  void CloseAll() override {
    for (runtime::Channel& m : mailboxes_) m.Close();
    if (shm_ != nullptr) shm_->Knock();
  }

  /// Times the primary's drainer parked on the shm doorbell (0 without a
  /// segment).
  std::uint64_t drain_parks() const {
    return shm_ != nullptr ? shm_->parks() : 0;
  }

  std::uint64_t enqueued() const override {
    return enqueued_.load(std::memory_order_acquire);
  }
  std::uint64_t dispatched() const override {
    return dispatched_.load(std::memory_order_acquire);
  }

 private:
  /// One peer-process link: the socket, its frame queue, and the reactor
  /// state machines. Fields below the marker are touched only by the
  /// owning I/O thread (single-threaded by construction — a peer belongs
  /// to exactly one reactor thread).
  struct Peer {
    Fd fd;
    std::size_t io_thread = 0;
    std::atomic<bool> registered{false};    // epoll adoption complete
    std::atomic<bool> kick_pending{false};  // queued frames await a flush
    /// Link failed mid-run: enqueues toward it are dropped, not queued.
    std::atomic<bool> down{false};
    // Link telemetry (read by LinkSnapshots from arbitrary threads).
    std::atomic<std::int64_t> last_heard_ns{-1};
    std::atomic<std::int64_t> last_ack_ns{-1};
    std::atomic<std::uint64_t> hb_sent{0};
    std::atomic<std::uint64_t> hb_acked{0};
    std::atomic<std::uint64_t> eagain{0};
    std::atomic<std::uint64_t> epollout_arms{0};
    std::atomic<std::uint64_t> kicks{0};
    std::atomic<std::uint64_t> frames_dropped{0};
    std::atomic<std::uint64_t> shm_msgs_sent{0};
    mutable std::mutex mu;    // guards queue + queue_bytes + closed + rtt
                              // + shm_tx
    std::deque<Bytes> queue;  // encoded frames awaiting the reactor
    std::size_t queue_bytes = 0;  // payload bytes queued (backlog gauge)
    stats::Histogram rtt;     // heartbeat round-trips
    bool closed = false;      // no further enqueues
    bool connected = false;   // guarded by mesh_mu_
    /// Data frames go via the shm ring (negotiated, attach succeeded, and
    /// no data frame was already queued on TCP at attach time).
    bool shm_tx = false;
    // ---- owning-I/O-thread state ----
    Byte head[4] = {};          // length-prefix accumulator
    std::size_t head_got = 0;   // 4 == currently filling in_box
    BufferPool::Box in_box;     // pooled exact-size receive buffer
    std::size_t in_got = 0;
    std::vector<Bytes> out_segs;  // in-flight wire image (scatter segments)
    std::size_t out_seg = 0;      // flush cursor: segment index…
    std::size_t out_off = 0;      // …and byte offset within it
    std::size_t out_frames = 0;   // frames the in-flight image carries
    bool out_batched = false;
    bool out_active = false;
    std::uint32_t armed = 0;   // epoll event mask currently registered
    bool in_epoll = false;
    bool read_open = true;     // false after a shutdown-phase EOF
    bool dead = false;         // link retired (mid-run failure or teardown)
    std::uint64_t hb_seq = 0;  // heartbeat sequence toward this peer
  };

  /// One reactor thread: its epoll instance, an eventfd enqueuers use to
  /// wake it, the heartbeat timerfd, and the peer groups it owns.
  struct IoThread {
    Fd epoll;
    Fd wake;
    Fd timer;  // periodic heartbeat tick (absent when heartbeats are off)
    std::thread th;
    std::vector<std::size_t> owned;
  };

  std::size_t GroupOf(net::NodeId node) const {
    return node / options_.ranks_per_proc;
  }
  net::NodeId PrimaryOf(std::size_t group) const {
    return static_cast<net::NodeId>(group * options_.ranks_per_proc);
  }
  void CheckLocal(net::NodeId node) const {
    HMDSM_CHECK_MSG(is_local(node), "process with primary rank "
                                        << options_.rank << " does not host "
                                        << "node " << node);
  }

  void ConnectorMain();
  /// Validates a fresh connection's handshake and adopts it into the
  /// owning reactor thread's epoll set. `peer_shm_name` is non-empty when
  /// shm negotiation succeeded (both flags + same host) and names the
  /// peer's segment to attach for our writes toward it.
  void RegisterPeer(std::size_t group, Fd fd,
                    const std::string& peer_shm_name);
  /// This process's handshake flags word (kHelloFlag*).
  std::uint32_t HelloFlags() const;
  void IoLoop(std::size_t ti);
  /// Teardown flush: drains every owned queue (EPOLLOUT-paced), then
  /// half-closes each link.
  void DrainWrites(IoThread& t);
  /// Nonblocking read pump: header/frame state machine until EAGAIN.
  void HandleReadable(IoThread& t, std::size_t group);
  /// Drains the peer's queue through writev until empty or EAGAIN.
  void FlushPeer(IoThread& t, std::size_t group);
  /// Coalesces the next queue prefix into a wire image (out_segs); false
  /// when the queue is empty.
  bool BuildNextWrite(Peer& peer);
  /// Reconciles the peer's epoll registration with read_open/want-write.
  void UpdateEpoll(IoThread& t, Peer& peer, std::size_t group,
                   bool want_write);
  /// Routes one received frame: data to the destination rank's mailbox
  /// (payload aliased, not copied), batches split and routed inner-frame
  /// by inner-frame (`allow_batch` is false for those — a batch may not
  /// nest), control to the registered handler as the peer's primary rank.
  /// Dies on malformed or misrouted input.
  void HandleFrame(std::size_t group, const Buf& frame, bool allow_batch);
  /// Pushes a packet into its rank's mailbox; once rings are live, a push
  /// to the primary also knocks the shm doorbell.
  void Deliver(net::Packet&& packet);
  /// The primary's WaitPop with a shm segment: its mailbox wait until a
  /// ring link is up; from then on pops its mailbox, else drains the
  /// rings, polls for kReceivePollWindow, then parks on the doorbell.
  bool DrainPop(net::Packet& out);
  /// Heartbeat tick: drains the timerfd and probes every owned live peer.
  void OnTimer(IoThread& t);
  /// Retires a mid-run-failed link: drops its queue, leaves the epoll set,
  /// and fires the peer-down handler (once). Reactor-thread context only.
  void MarkPeerDown(IoThread& t, std::size_t group, const std::string& why);
  /// Remote data-frame send: encodes and hands the frame to the shm ring
  /// or the TCP queue under the link lock, so both media see one order.
  void SendData(net::NodeId dst, const DataFrame& data);
  void EnqueueFrame(net::NodeId dst, Bytes frame);
  /// Forgiving enqueue for health-plane traffic: drops the frame (and
  /// counts it) when the link is down or closing instead of aborting —
  /// heartbeats race shutdown by design.
  bool TryEnqueueFrame(net::NodeId dst, Bytes frame);
  /// Wakes `group`'s reactor thread to flush its queue (deduplicated per
  /// peer via kick_pending).
  void KickPeer(std::size_t group);
  /// Records a mesh bring-up failure and wakes AwaitConnected.
  void FailConnect(const std::string& why);
  /// Unrecoverable protocol violation or peer death mid-run: this process
  /// cannot continue (its nodes' state is now unreachable by the cluster).
  [[noreturn]] void Die(const std::string& why) const;

  SocketTransportOptions options_;
  std::size_t group_ = 0;        // this process's index in the mesh
  std::size_t group_count_ = 1;  // processes in the mesh
  std::vector<net::NodeId> local_ranks_;
  std::deque<runtime::Channel> mailboxes_;  // one per local rank
  std::vector<Handler> handlers_;           // one per local rank
  ControlHandler control_handler_;
  PeerDownHandler peer_down_handler_;
  std::deque<stats::Recorder> recorders_;  // local ranks real, others zero
  std::deque<Peer> peers_;    // indexed by group; [group_] unused
  std::deque<IoThread> io_;   // the reactor pool
  Fd listener_;
  std::thread connector_;

  std::mutex mesh_mu_;  // connection bookkeeping
  std::condition_variable mesh_cv_;
  std::size_t connected_count_ = 0;
  std::string connect_error_;

  std::atomic<bool> shutting_down_{false};
  std::atomic<bool> stop_io_{false};  // reactor pool: drain and exit
  bool started_ = false;
  bool stopped_ = false;

  std::atomic<std::uint64_t> wire_sent_{0};
  std::atomic<std::uint64_t> wire_received_{0};
  std::atomic<std::uint64_t> enqueued_{0};
  std::atomic<std::uint64_t> dispatched_{0};
  std::atomic<std::uint64_t> socket_writes_{0};
  std::atomic<std::uint64_t> frames_enqueued_{0};
  std::atomic<std::uint64_t> frames_coalesced_{0};
  std::atomic<std::uint64_t> shm_msgs_{0};
  // Measured-window baselines (ResetStats snapshots the atomics here).
  std::atomic<std::uint64_t> socket_writes_base_{0};
  std::atomic<std::uint64_t> frames_enqueued_base_{0};
  std::atomic<std::uint64_t> frames_coalesced_base_{0};
  std::atomic<std::uint64_t> shm_msgs_base_{0};
  std::atomic<std::uint64_t> rx_buffer_allocs_base_{0};
  // Per-local-rank baselines (atomics: live stats polling may snapshot
  // concurrently with the quiescent-point reset).
  std::unique_ptr<std::atomic<std::uint64_t>[]> mailbox_overflow_base_;
  // Pooled receive buffers, shared by the reactor read path and the shm
  // drainer (BufferPool is thread-safe; buffers recycle on payload release).
  BufferPool rx_pool_;
  // This process's shm segment (null: disabled, setup failed, or single-
  // process mesh). Created in the constructor, before any dispatcher runs.
  std::unique_ptr<ShmTransport> shm_;
  // Some link negotiated a ring, so a peer writes ours: the primary's
  // dispatcher drains (false -> true once, in RegisterPeer).
  std::atomic<bool> rings_live_{false};
  std::uint64_t host_id_ = 0;
  // Wire-write syscall latency, recorded by reactor threads (which never
  // hold an agent lock) — hence its own mutex, merged at snapshot time.
  mutable std::mutex write_lat_mu_;
  stats::Histogram write_latency_;
  std::chrono::steady_clock::time_point epoch_;
};

}  // namespace hmdsm::netio
