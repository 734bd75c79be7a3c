// netio::ShmTransport — a zero-syscall same-host data path for co-located
// mesh processes (the other half of ROADMAP item 3).
//
// Every process that enables --shm creates ONE POSIX shared-memory segment
// when its transport is constructed: its *inbound* segment, holding one
// SPSC byte-stream ring per potential writer process plus futex doorbell
// words. The segment name and a host-identity hash travel in the
// Hello/HelloAck handshake; when both ends of a link enable shm and report
// the same host, each side maps the other's segment and from then on sends
// every DATA frame for that link through the peer's ring — no TCP, no
// syscalls in steady state.
// Control frames (coordinator plane, heartbeats) stay on the TCP link, so
// the liveness plane still measures the real network path.
//
// Ring model: a pipe, not a slot array. Each ring is a fixed-capacity byte
// stream carrying records of [u32 len][frame bytes], copied in and out
// with wraparound. Streaming means a frame larger than the ring still
// flows (writer fills, drainer empties, repeat) — there is no oversize
// fallback path that could reorder traffic, which is what makes the ring
// the *single* FIFO data channel per direction — the per-sender FIFO
// delivery contract (net/transport.h) holds on the ring exactly as on TCP.
//
// Synchronization: head/tail are release/acquire atomics in the mapped
// region — they carry the happens-before for the plain-byte copies, so the
// protocol is correct (and TSan-clean) independent of the futexes. The
// futexes are pure sleep/wake.
//
// Receive side: no thread of its own. The segment owner's *drainer* —
// the primary rank's dispatcher once a link has a ring
// (netio/socket_transport.h) — calls Drain()
// between mailbox pops, so a frame is decoded and handled on the thread
// that runs its handler, with no hand-off in between. When both its
// mailbox and its rings are empty it polls for kReceivePollWindow
// (netio/poll_window.h, 200 us), then advertises itself in
// drainer_waiting and waits on the segment doorbell (Park). A ring writer
// bumps the doorbell after publishing, and so does every push into the
// drainer's mailbox (Knock); either issues FUTEX_WAKE only when the
// drainer is actually parked, so inside the window neither side makes a
// syscall and no frame pays a thread wake-up.
//
// Liveness: the drainer is also a sender, so it must never block while its
// own rings hold bytes — a peer blocked writing into them may be exactly
// what it waits on. WriteFrame on the drainer's thread therefore drains
// while it waits for ring space instead of parking (other writers park on
// a per-ring space doorbell); the agent-lock and link-lock waits follow
// the same rule (runtime/runtime.cc DispatchLoop, SocketTransport::
// SendData). All waits are timeout-bounded so teardown can never hang on
// a lost wakeup or a killed peer.
//
// Single-writer contract: WriteFrame(peer, ...) must be externally
// serialized per peer (SocketTransport calls it under the link mutex that
// already orders that link's sends). Drain() is single-consumer: one
// thread at a time, and the last thread that called it is the drainer.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/util/bufpool.h"
#include "src/util/bytes.h"

namespace hmdsm::netio {

struct ShmTransportOptions {
  std::size_t group_count = 0;  // processes in the mesh
  std::size_t self_group = 0;   // this process's index
  /// Capacity of each inbound ring. A full ring blocks the writer until the
  /// owner's drainer makes room; it never drops or reorders.
  std::size_t ring_bytes = 256 * 1024;
};

class ShmTransport {
 public:
  /// Creates this process's inbound segment. Null + diagnostic when the
  /// host cannot (shm_open/mmap failure) — the caller degrades to TCP.
  static std::unique_ptr<ShmTransport> Create(
      const ShmTransportOptions& options, std::string* error);

  ~ShmTransport();
  ShmTransport(const ShmTransport&) = delete;
  ShmTransport& operator=(const ShmTransport&) = delete;

  /// The /dev/shm name peers pass to AttachPeer, advertised in the Hello.
  const std::string& segment_name() const { return name_; }

  /// Hash of this machine's identity (hostname + boot id). Two processes
  /// negotiate shm only when their values match — equal hostnames on
  /// different machines must not try to cross-mmap.
  static std::uint64_t HostIdentity();

  /// Maps `peer_group`'s inbound segment for writes toward it. Validates
  /// the name shape, the segment magic, and the geometry before trusting
  /// anything (the name arrived over the wire). False + diagnostic on any
  /// mismatch; the link then stays on TCP.
  bool AttachPeer(std::size_t peer_group, const std::string& name,
                  std::string* error);
  bool attached(std::size_t peer_group) const;

  /// Blocking FIFO write of one frame toward `peer_group` (which must be
  /// attached). Returns false only when this transport is stopping or the
  /// peer's segment is closed — mid-run it always completes. Must be
  /// serialized per peer by the caller (see the single-writer contract).
  bool WriteFrame(std::size_t peer_group, ByteSpan frame);

  /// One decoded inbound frame: the writer process's group and the frame
  /// bytes (storage recycled through `pool`).
  using FrameHandler = std::function<void(std::size_t src_group, Buf frame)>;
  /// An unrecoverable ring violation (bad record length). The transport
  /// treats it like a malformed TCP frame: fatal.
  using FatalHandler = std::function<void(const std::string& why)>;
  /// Per-ring drain gate: Drain leaves ring `g`'s bytes in place until
  /// this returns true. SocketTransport gates on handshake completion so a
  /// peer that attaches and writes the instant it sees our HelloAck cannot
  /// have frames processed before this process adopted the link.
  using RingGate = std::function<bool(std::size_t src_group)>;

  /// Installs the receive side. Call once, before any peer can be sending
  /// (i.e. before the handshake completes). A null `ready` gate means
  /// every ring is always ready.
  void SetReceiver(FrameHandler on_frame, FatalHandler on_fatal,
                   BufferPool* pool, RingGate ready = nullptr);

  /// One pass over every attached inbound ring on the calling thread,
  /// which becomes the drainer: each completed frame goes to on_frame
  /// right here. True if any byte moved. A no-op once stopping.
  bool Drain();

  /// True on the thread that last called Drain().
  bool OnDrainerThread() const {
    return drainer_.load(std::memory_order_relaxed) ==
           std::this_thread::get_id();
  }

  /// The doorbell value to pass to Park(): read it *before* the checks
  /// (mailbox, Drain) whose emptiness decides to park, so an event between
  /// them and the park is never lost.
  std::uint32_t Doorbell() const;

  /// Parks the drainer until the doorbell moves past `seen` — a ring
  /// writer published, or Knock() — or a 50 ms backstop passes.
  void Park(std::uint32_t seen);

  /// Rings the doorbell for an event the drainer waits on besides ring
  /// bytes (a mailbox push, a ring gate opening, a close); wakes it only
  /// when it is parked.
  void Knock();

  /// Times the drainer has parked on the doorbell.
  std::uint64_t parks() const {
    return parks_.load(std::memory_order_relaxed);
  }

  /// Marks the segment closed and wakes every sleeper; from now on Drain
  /// does nothing and WriteFrame calls (ours and peers') return false.
  /// Idempotent. The mappings stay until destruction, so a dispatcher that
  /// is still mid-pass never touches unmapped memory.
  void Stop();

 private:
  struct Mapping {
    void* base = nullptr;
    std::size_t bytes = 0;
    int fd = -1;
  };
  /// Per-ring receive state: a record may arrive across many drains.
  struct RxState {
    Byte len[4] = {};
    std::size_t len_got = 0;
    BufferPool::Box box;  // null until the length header completes
    std::size_t got = 0;
  };

  ShmTransport(const ShmTransportOptions& options, std::string name,
               Mapping own);
  /// Drains whatever is available in ring `g`; true if any byte moved.
  bool DrainRing(std::size_t g);

  ShmTransportOptions options_;
  std::string name_;
  Mapping own_;                     // this process's inbound segment
  std::vector<Mapping> peer_segs_;  // [g] = peer g's segment (tx direction)
  std::vector<RxState> rx_;
  std::atomic<bool> stopping_{false};
  std::atomic<std::uint64_t> parks_{0};
  std::atomic<std::thread::id> drainer_{};
  bool stopped_ = false;
  FrameHandler on_frame_;
  FatalHandler on_fatal_;
  RingGate ready_;
  BufferPool* pool_ = nullptr;
};

}  // namespace hmdsm::netio
