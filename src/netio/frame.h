// Wire frames for the multi-process socket transport.
//
// Everything that crosses a socket is one length-prefixed frame:
//
//     [u32 length][payload]        (little-endian, length = payload bytes)
//
// where payload[0] is the FrameType. Data frames carry one serialized DSM
// protocol message (exactly the bytes the in-process transports deliver);
// control frames carry the mesh handshake and the coordinator's
// control-plane: remote thread start/completion, distributed quiescence
// probes, stats gather, stats reset, and the shutdown barrier.
//
// Peer input is untrusted: every decoder here returns false with a
// diagnostic on truncated, oversized, out-of-range, or trailing-garbage
// input, and the frame reader enforces a maximum frame length before
// allocating. A malformed frame tears the connection down loudly — it
// never becomes UB or an unbounded allocation.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/net/transport.h"
#include "src/stats/stats.h"
#include "src/util/bytes.h"
#include "src/util/serde.h"

namespace hmdsm::netio {

/// Bumped whenever any frame layout changes; the handshake rejects peers
/// speaking a different version. v2: Batch frames (writer-side coalescing
/// of queued small frames into one wire write). v3: latency histograms in
/// the recorder serialization plus the StatsPoll live-metrics frames.
/// v4: migration decision ledger + windowed time-series samples in the
/// recorder serialization (recorder serde v3). v5: multi-rank hosting —
/// one connection per *process* pair (Hello.node is the dialing process's
/// primary rank) and Hello carries ranks_per_proc so a mesh with
/// inconsistent process shapes refuses to form. v6: Heartbeat/HeartbeatAck
/// link-liveness frames exchanged per process pair on the reactor's timer.
/// v7: shared-memory transport negotiation (feature flags, segment name +
/// host identity in the handshake); the recorder serialization also grew
/// new event counters. v8: the v7 wire delta encoding is gone (its frame
/// type byte is now unknown) and the recorder drops its three counters.
constexpr std::uint32_t kProtocolVersion = 8;

/// Hello/HelloAck feature flags. A feature is active on a link only when
/// *both* ends advertise it, so mixed command lines degrade to the common
/// denominator instead of desynchronizing.
constexpr std::uint32_t kHelloFlagShm = 1u << 1;

/// Frames larger than this are rejected before allocation. Generous: the
/// largest legitimate frame is an object reply for the biggest shared
/// object plus fixed headers.
constexpr std::uint32_t kMaxFrameBytes = 64u << 20;

enum class FrameType : std::uint8_t {
  kHello = 1,      // dialer -> listener: version, rank, cluster size
  kHelloAck,       // listener -> dialer: version, rank
  kData,           // one DSM protocol message
  kStartThread,    // lead -> host: run spawned thread `seq` now
  kThreadDone,     // host -> lead: thread `seq` finished (error + result)
  kQuiesceProbe,   // lead -> all: report your counters for `round`
  kQuiesceReply,   // rank -> lead: wire/mailbox counters at probe time
  kStatsRequest,   // lead -> all: send your recorder
  kStatsReply,     // rank -> lead: serialized stats::Recorder
  kResetStats,     // lead -> all: zero your recorder, mark your epoch
  kResetAck,       // rank -> lead
  kShutdown,       // lead -> all: run over (abort flag for error unwinds)
  kShutdownAck,    // rank -> lead: my local threads are done, nothing more
  kShutdownDone,   // lead -> all: every rank acked — safe to close sockets
  kBatch,          // several coalesced frames in one wire write
  kStatsPoll,      // lead -> all: mid-run live-metrics sample `seq`
  kStatsPollReply, // rank -> lead: counters+histograms at sample time
  kHeartbeat,      // either direction: link-liveness probe `seq`
  kHeartbeatAck,   // echo of a Heartbeat: same seq + sender's send stamp
};

/// Peeks the type byte; kData-vs-control routing in the reader loop.
inline bool PeekType(ByteSpan frame, FrameType* out) {
  if (frame.empty()) return false;
  *out = static_cast<FrameType>(frame[0]);
  return *out >= FrameType::kHello && *out <= FrameType::kHeartbeatAck;
}

struct HelloFrame {
  std::uint32_t version = kProtocolVersion;
  /// The dialing process's primary (lowest hosted) rank.
  net::NodeId node = 0;
  std::uint32_t node_count = 0;
  /// Ranks hosted per process; every process in a mesh must agree (the
  /// connection-per-process-pair topology is keyed on it).
  std::uint32_t ranks_per_proc = 1;
  /// kHelloFlag* bits this process is willing to speak.
  std::uint32_t flags = 0;
  /// Identity of the machine this process runs on (hostname + boot id
  /// hash); the shared-memory transport only forms between processes that
  /// report the same value.
  std::uint64_t host_id = 0;
  /// Name of this process's inbound shared-memory segment (empty when shm
  /// is off or segment creation failed).
  std::string shm_name;
};

struct HelloAckFrame {
  std::uint32_t version = kProtocolVersion;
  net::NodeId node = 0;
  std::uint32_t flags = 0;
  std::uint64_t host_id = 0;
  std::string shm_name;
};

struct DataFrame {
  net::NodeId src = 0;
  net::NodeId dst = 0;
  stats::MsgCat cat = stats::MsgCat::kObj;
  /// With the Buf-decode overload this is a zero-copy view of the wire
  /// frame the message arrived in; with the span overload it owns a copy.
  Buf payload;
};

struct StartThreadFrame {
  std::uint64_t seq = 0;
};

struct ThreadDoneFrame {
  std::uint64_t seq = 0;
  std::string error;  // empty = completed normally
  Bytes result;       // Env::PublishResult payload (may be empty)
};

struct QuiesceProbeFrame {
  std::uint64_t round = 0;
};

/// One rank's activity counters. The cluster is quiescent when, across two
/// consecutive probe rounds, every rank reports identical counters with
/// sum(wire_sent) == sum(wire_received) and enqueued == dispatched
/// everywhere (counters are monotone, so any activity between the two
/// probe rounds perturbs at least one of them).
struct QuiesceReplyFrame {
  std::uint64_t round = 0;
  std::uint64_t wire_sent = 0;      // data frames handed to the wire
  std::uint64_t wire_received = 0;  // data frames pushed into the mailbox
  std::uint64_t enqueued = 0;       // local mailbox pushes (self-sends too)
  std::uint64_t dispatched = 0;     // local handlers completed
};

struct StatsRequestFrame {
  std::uint64_t tag = 0;
};

struct StatsReplyFrame {
  std::uint64_t tag = 0;
  net::NodeId node = 0;
  stats::Recorder recorder;
};

struct ResetStatsFrame {
  std::uint64_t tag = 0;
};

struct ResetAckFrame {
  std::uint64_t tag = 0;
};

struct ShutdownFrame {
  bool abort = false;  // true: lead is unwinding an error, skip quiescence
};

struct ShutdownAckFrame {};

/// Without this second phase a fast rank could close its sockets before a
/// slow rank had even *received* the shutdown announcement — the slow
/// rank's reader would see the EOF as a died peer. Closing only after
/// every rank acked means every EOF lands on a rank that already knows
/// the run is over.
struct ShutdownDoneFrame {};

/// Live-metrics sample request: unlike kStatsRequest (end-of-window gather
/// at quiescence), polls fire mid-run on a timer and replies are best-
/// effort snapshots — the live metrics plane, and the groundwork for rank
/// heartbeating (a rank that stops answering polls is in trouble).
struct StatsPollFrame {
  std::uint64_t seq = 0;
};

struct StatsPollReplyFrame {
  std::uint64_t seq = 0;
  net::NodeId node = 0;
  /// The replying rank's transport clock (ns since its epoch) at snapshot
  /// time; consecutive replies give the lead a per-rank ops/s rate.
  std::uint64_t now_ns = 0;
  stats::Recorder recorder;
};

/// Link-liveness probe, exchanged once per process pair on the reactor's
/// periodic timer. The ack echoes both fields, so the prober computes the
/// round-trip from its own clock without trusting the peer's — a hostile
/// or skewed send_ns in an unsolicited ack cannot poison the histogram
/// beyond its own link's numbers.
struct HeartbeatFrame {
  std::uint64_t seq = 0;
  /// Prober's transport clock (ns since its epoch) at send time.
  std::uint64_t send_ns = 0;
};

struct HeartbeatAckFrame {
  std::uint64_t seq = 0;
  std::uint64_t send_ns = 0;  // echoed from the probe
};

Bytes Encode(const HelloFrame&);
Bytes Encode(const HelloAckFrame&);
Bytes Encode(const DataFrame&);
Bytes Encode(const StartThreadFrame&);
Bytes Encode(const ThreadDoneFrame&);
Bytes Encode(const QuiesceProbeFrame&);
Bytes Encode(const QuiesceReplyFrame&);
Bytes Encode(const StatsRequestFrame&);
Bytes Encode(const StatsReplyFrame&);
Bytes Encode(const ResetStatsFrame&);
Bytes Encode(const ResetAckFrame&);
Bytes Encode(const ShutdownFrame&);
Bytes Encode(const ShutdownAckFrame&);
Bytes Encode(const ShutdownDoneFrame&);
Bytes Encode(const StatsPollFrame&);
Bytes Encode(const StatsPollReplyFrame&);
Bytes Encode(const HeartbeatFrame&);
Bytes Encode(const HeartbeatAckFrame&);

/// Coalesces several already-encoded frames into one Batch frame:
///
///     [kBatch][u32 count][u32 len, frame bytes] * count
///
/// The writer queues build these under load so many small frames cost one
/// wire write (and one syscall) instead of count of them. Inner frames are
/// complete frames (own type byte); a Batch may not nest.
Bytes EncodeBatch(const std::vector<Bytes>& frames);

/// Defensively splits a Batch frame into aliased views of `frame` (zero
/// copy — each inner frame Buf shares the batch buffer). Rejects: count of
/// 0 or 1 (the writer never coalesces fewer than two frames), a count that
/// cannot fit in the remaining bytes (pre-allocation bound), truncated
/// inner frames, nested batches, and trailing garbage.
bool TryDecodeBatch(const Buf& frame, std::vector<Buf>* out,
                    std::string* error);

// Defensive decoders: false + diagnostic on any malformed input.
bool TryDecode(ByteSpan frame, HelloFrame* out, std::string* error);
bool TryDecode(ByteSpan frame, HelloAckFrame* out, std::string* error);
bool TryDecode(ByteSpan frame, DataFrame* out, std::string* error);
/// Zero-copy variant: `out->payload` aliases `frame` (no byte copy). The
/// socket reader uses this so a received payload is never re-copied between
/// the wire and the mailbox.
bool TryDecode(const Buf& frame, DataFrame* out, std::string* error);
bool TryDecode(ByteSpan frame, StartThreadFrame* out, std::string* error);
bool TryDecode(ByteSpan frame, ThreadDoneFrame* out, std::string* error);
bool TryDecode(ByteSpan frame, QuiesceProbeFrame* out, std::string* error);
bool TryDecode(ByteSpan frame, QuiesceReplyFrame* out, std::string* error);
bool TryDecode(ByteSpan frame, StatsRequestFrame* out, std::string* error);
bool TryDecode(ByteSpan frame, StatsReplyFrame* out, std::string* error);
bool TryDecode(ByteSpan frame, ResetStatsFrame* out, std::string* error);
bool TryDecode(ByteSpan frame, ResetAckFrame* out, std::string* error);
bool TryDecode(ByteSpan frame, ShutdownFrame* out, std::string* error);
bool TryDecode(ByteSpan frame, ShutdownAckFrame* out, std::string* error);
bool TryDecode(ByteSpan frame, ShutdownDoneFrame* out, std::string* error);
bool TryDecode(ByteSpan frame, StatsPollFrame* out, std::string* error);
bool TryDecode(ByteSpan frame, StatsPollReplyFrame* out, std::string* error);
bool TryDecode(ByteSpan frame, HeartbeatFrame* out, std::string* error);
bool TryDecode(ByteSpan frame, HeartbeatAckFrame* out, std::string* error);

}  // namespace hmdsm::netio
