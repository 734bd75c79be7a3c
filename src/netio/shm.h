// netio::ShmTransport — a zero-syscall same-host data path for co-located
// mesh processes (the other half of ROADMAP item 3).
//
// Every process that enables --shm creates ONE POSIX shared-memory segment
// at transport start: its *inbound* segment, holding one SPSC byte-stream
// ring per potential writer process plus futex doorbell words. The segment
// name and a host-identity hash travel in the Hello/HelloAck handshake;
// when both ends of a link enable shm and report the same host, each side
// maps the other's segment and from then on sends every DATA frame for
// that link through the peer's ring — no TCP, no syscalls in steady state.
// Control frames (coordinator plane, heartbeats) stay on the TCP link, so
// the liveness plane still measures the real network path.
//
// Ring model: a pipe, not a slot array. Each ring is a fixed-capacity byte
// stream carrying records of [u32 len][frame bytes], copied in and out
// with wraparound. Streaming means a frame larger than the ring still
// flows (writer fills, reader drains, repeat) — there is no oversize
// fallback path that could reorder traffic, which is what makes the ring
// the *single* FIFO data channel per direction — the per-sender FIFO
// delivery contract (net/transport.h) holds on the ring exactly as on TCP.
//
// Synchronization: head/tail are release/acquire atomics in the mapped
// region — they carry the happens-before for the plain-byte copies, so the
// protocol is correct (and TSan-clean) independent of the futexes. The
// futexes are pure sleep/wake. The reader polls before it parks: after its
// last frame it keeps draining the rings, yielding between passes, for
// kReceivePollWindow (netio/poll_window.h, 200 us), and checks the stop
// flag on every pass. Only then does it advertise itself in
// reader_waiting and wait on the segment doorbell. A writer bumps the
// doorbell after publishing and issues FUTEX_WAKE only when a reader is
// actually parked — so inside the window neither side makes a syscall
// and no frame pays a thread wake-up. The price is the reader's CPU while
// traffic flows (README, "Receive threads poll before they park"). The
// full-ring path mirrors the park with a per-ring space doorbell. All
// waits are timeout-bounded so teardown can never hang on a lost wakeup
// or a killed peer.
//
// Single-writer contract: WriteFrame(peer, ...) must be externally
// serialized per peer (SocketTransport calls it under the link mutex that
// already orders that link's sends). The reader side is one thread owned by
// this object.
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
  /// Capacity of each inbound ring. A full ring blocks the writer briefly
  /// (the reader drains continuously), it never drops or reorders.
  std::size_t ring_bytes = 256 * 1024;
  /// Frames above this are a protocol violation (same bound the TCP reader
  /// enforces).
  std::uint32_t max_frame_bytes = 64u << 20;
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
  /// Per-ring drain gate: the reader leaves ring `g`'s bytes in place until
  /// this returns true. SocketTransport gates on handshake completion so a
  /// peer that attaches and writes the instant it sees our HelloAck cannot
  /// have frames processed before this process adopted the link.
  using RingGate = std::function<bool(std::size_t src_group)>;

  /// Starts the reader thread draining every attached inbound ring. Call
  /// once, before any peer can be sending (i.e. before the handshake
  /// completes). A null `ready` gate means every ring is always ready.
  void StartReader(FrameHandler on_frame, FatalHandler on_fatal,
                   BufferPool* pool, RingGate ready = nullptr);

  /// Wakes the reader thread (e.g. after a RingGate flips open, so gated
  /// bytes are drained now instead of at the next timeout).
  void KickReader();

  /// Times the reader thread has parked on the doorbell (it parks only
  /// after a kReceivePollWindow without frames).
  std::uint64_t parks() const {
    return parks_.load(std::memory_order_relaxed);
  }

  /// Marks the segment closed, wakes every sleeper, joins the reader.
  /// Idempotent. In-flight WriteFrame calls (ours and peers') unblock and
  /// return false.
  void Stop();

 private:
  struct Mapping {
    void* base = nullptr;
    std::size_t bytes = 0;
    int fd = -1;
  };
  /// Per-ring reader state: a record may arrive across many drains.
  struct RxState {
    Byte len[4] = {};
    std::size_t len_got = 0;
    BufferPool::Box box;  // null until the length header completes
    std::size_t got = 0;
  };

  ShmTransport(const ShmTransportOptions& options, std::string name,
               Mapping own);
  void ReaderMain();
  /// Drains whatever is available in ring `g`; true if any byte moved.
  bool DrainRing(std::size_t g);

  ShmTransportOptions options_;
  std::string name_;
  Mapping own_;                     // this process's inbound segment
  std::vector<Mapping> peer_segs_;  // [g] = peer g's segment (tx direction)
  std::vector<RxState> rx_;
  std::atomic<bool> stopping_{false};
  std::atomic<std::uint64_t> parks_{0};
  bool reader_started_ = false;
  bool stopped_ = false;
  std::thread reader_;
  FrameHandler on_frame_;
  FatalHandler on_fatal_;
  RingGate ready_;
  BufferPool* pool_ = nullptr;
};

}  // namespace hmdsm::netio
