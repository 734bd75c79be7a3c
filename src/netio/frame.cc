#include "src/netio/frame.h"

#include <utility>

namespace hmdsm::netio {

namespace {

Writer Begin(FrameType type) {
  Writer w;
  w.u8(static_cast<std::uint8_t>(type));
  return w;
}

/// Shared defensive-decode scaffold: checks the type byte, runs `body`
/// against a Reader over the rest, converts truncation/range CheckErrors
/// into a false return, and rejects trailing bytes. Decoders stay simple
/// field readers; nothing a peer sends can unwind past here.
template <typename Fn>
bool Defensive(ByteSpan frame, FrameType expected, std::string* error,
               Fn&& body) {
  FrameType type;
  if (!PeekType(frame, &type) || type != expected) {
    if (error != nullptr) {
      *error = "bad frame type (expected " +
               std::to_string(static_cast<int>(expected)) + ")";
    }
    return false;
  }
  try {
    Reader r(frame.subspan(1));
    body(r);
    if (!r.done()) {
      if (error != nullptr) {
        *error = "trailing garbage: " + std::to_string(r.remaining()) +
                 " bytes after the frame";
      }
      return false;
    }
    return true;
  } catch (const CheckError& e) {
    if (error != nullptr) *error = e.what();
    return false;
  }
}

}  // namespace

Bytes Encode(const HelloFrame& f) {
  Writer w = Begin(FrameType::kHello);
  w.u32(f.version);
  w.u32(f.node);
  w.u32(f.node_count);
  w.u32(f.ranks_per_proc);
  w.u32(f.flags);
  w.u64(f.host_id);
  w.str(f.shm_name);
  return w.take();
}

bool TryDecode(ByteSpan frame, HelloFrame* out, std::string* error) {
  return Defensive(frame, FrameType::kHello, error, [&](Reader& r) {
    out->version = r.u32();
    out->node = r.u32();
    out->node_count = r.u32();
    out->ranks_per_proc = r.u32();
    out->flags = r.u32();
    out->host_id = r.u64();
    out->shm_name = r.str();
  });
}

Bytes Encode(const HelloAckFrame& f) {
  Writer w = Begin(FrameType::kHelloAck);
  w.u32(f.version);
  w.u32(f.node);
  w.u32(f.flags);
  w.u64(f.host_id);
  w.str(f.shm_name);
  return w.take();
}

bool TryDecode(ByteSpan frame, HelloAckFrame* out, std::string* error) {
  return Defensive(frame, FrameType::kHelloAck, error, [&](Reader& r) {
    out->version = r.u32();
    out->node = r.u32();
    out->flags = r.u32();
    out->host_id = r.u64();
    out->shm_name = r.str();
  });
}

Bytes Encode(const DataFrame& f) {
  Writer w = Begin(FrameType::kData);
  w.u32(f.src);
  w.u32(f.dst);
  w.u8(static_cast<std::uint8_t>(f.cat));
  w.bytes(f.payload);
  return w.take();
}

namespace {

/// Shared by both DataFrame decoders: everything but the payload
/// materialization (owned copy vs aliased view), so the span and Buf
/// overloads cannot drift apart. Returns the payload span inside the frame.
ByteSpan DecodeDataHeader(Reader& r, DataFrame* out) {
  out->src = r.u32();
  out->dst = r.u32();
  const std::uint8_t cat = r.u8();
  HMDSM_CHECK_MSG(cat < stats::kNumMsgCats,
                  "message category " << static_cast<int>(cat)
                                      << " out of range");
  out->cat = static_cast<stats::MsgCat>(cat);
  const std::uint32_t len = r.u32();
  return r.raw(len);  // bounds-checked by the Reader
}

}  // namespace

bool TryDecode(ByteSpan frame, DataFrame* out, std::string* error) {
  return Defensive(frame, FrameType::kData, error, [&](Reader& r) {
    out->payload = Buf::Copy(DecodeDataHeader(r, out));
  });
}

bool TryDecode(const Buf& frame, DataFrame* out, std::string* error) {
  const ByteSpan span = frame.span();
  return Defensive(span, FrameType::kData, error, [&](Reader& r) {
    const ByteSpan payload = DecodeDataHeader(r, out);
    out->payload = frame.View(
        static_cast<std::size_t>(payload.data() - span.data()),
        payload.size());
  });
}

Bytes EncodeBatch(const std::vector<Bytes>& frames) {
  HMDSM_CHECK_MSG(frames.size() >= 2, "a batch coalesces at least 2 frames");
  std::size_t total = 1 + 4;
  for (const Bytes& f : frames) total += 4 + f.size();
  Bytes out;
  out.reserve(total);
  Writer w(std::move(out));
  w.u8(static_cast<std::uint8_t>(FrameType::kBatch));
  w.u32(static_cast<std::uint32_t>(frames.size()));
  for (const Bytes& f : frames) w.bytes(f);
  return w.take();
}

bool TryDecodeBatch(const Buf& frame, std::vector<Buf>* out,
                    std::string* error) {
  const ByteSpan span = frame.span();
  return Defensive(span, FrameType::kBatch, error, [&](Reader& r) {
    const std::uint32_t count = r.u32();
    // Each inner frame costs at least its length prefix plus a type byte,
    // so a count the remaining bytes cannot hold is hostile — reject it
    // before reserving anything.
    HMDSM_CHECK_MSG(count >= 2, "batch of " << count << " frames");
    HMDSM_CHECK_MSG(count <= r.remaining() / 5,
                    "batch count " << count << " cannot fit in "
                                   << r.remaining() << " bytes");
    out->clear();
    out->reserve(count);
    for (std::uint32_t i = 0; i < count; ++i) {
      const std::uint32_t len = r.u32();
      const ByteSpan inner = r.raw(len);  // bounds-checked by the Reader
      FrameType type;
      HMDSM_CHECK_MSG(PeekType(inner, &type),
                      "batched frame " << i << " has no valid type");
      HMDSM_CHECK_MSG(type != FrameType::kBatch, "nested batch frame");
      out->push_back(frame.View(
          static_cast<std::size_t>(inner.data() - span.data()), len));
    }
  });
}

Bytes Encode(const StartThreadFrame& f) {
  Writer w = Begin(FrameType::kStartThread);
  w.u64(f.seq);
  return w.take();
}

bool TryDecode(ByteSpan frame, StartThreadFrame* out, std::string* error) {
  return Defensive(frame, FrameType::kStartThread, error,
                   [&](Reader& r) { out->seq = r.u64(); });
}

Bytes Encode(const ThreadDoneFrame& f) {
  Writer w = Begin(FrameType::kThreadDone);
  w.u64(f.seq);
  w.str(f.error);
  w.bytes(f.result);
  return w.take();
}

bool TryDecode(ByteSpan frame, ThreadDoneFrame* out, std::string* error) {
  return Defensive(frame, FrameType::kThreadDone, error, [&](Reader& r) {
    out->seq = r.u64();
    out->error = r.str();
    out->result = r.bytes();
  });
}

Bytes Encode(const QuiesceProbeFrame& f) {
  Writer w = Begin(FrameType::kQuiesceProbe);
  w.u64(f.round);
  return w.take();
}

bool TryDecode(ByteSpan frame, QuiesceProbeFrame* out, std::string* error) {
  return Defensive(frame, FrameType::kQuiesceProbe, error,
                   [&](Reader& r) { out->round = r.u64(); });
}

Bytes Encode(const QuiesceReplyFrame& f) {
  Writer w = Begin(FrameType::kQuiesceReply);
  w.u64(f.round);
  w.u64(f.wire_sent);
  w.u64(f.wire_received);
  w.u64(f.enqueued);
  w.u64(f.dispatched);
  return w.take();
}

bool TryDecode(ByteSpan frame, QuiesceReplyFrame* out, std::string* error) {
  return Defensive(frame, FrameType::kQuiesceReply, error, [&](Reader& r) {
    out->round = r.u64();
    out->wire_sent = r.u64();
    out->wire_received = r.u64();
    out->enqueued = r.u64();
    out->dispatched = r.u64();
  });
}

Bytes Encode(const StatsRequestFrame& f) {
  Writer w = Begin(FrameType::kStatsRequest);
  w.u64(f.tag);
  return w.take();
}

bool TryDecode(ByteSpan frame, StatsRequestFrame* out, std::string* error) {
  return Defensive(frame, FrameType::kStatsRequest, error,
                   [&](Reader& r) { out->tag = r.u64(); });
}

Bytes Encode(const StatsReplyFrame& f) {
  Writer w = Begin(FrameType::kStatsReply);
  w.u64(f.tag);
  w.u32(f.node);
  f.recorder.Encode(w);
  return w.take();
}

bool TryDecode(ByteSpan frame, StatsReplyFrame* out, std::string* error) {
  return Defensive(frame, FrameType::kStatsReply, error, [&](Reader& r) {
    out->tag = r.u64();
    out->node = r.u32();
    out->recorder = stats::Recorder::Decode(r);
  });
}

Bytes Encode(const ResetStatsFrame& f) {
  Writer w = Begin(FrameType::kResetStats);
  w.u64(f.tag);
  return w.take();
}

bool TryDecode(ByteSpan frame, ResetStatsFrame* out, std::string* error) {
  return Defensive(frame, FrameType::kResetStats, error,
                   [&](Reader& r) { out->tag = r.u64(); });
}

Bytes Encode(const ResetAckFrame& f) {
  Writer w = Begin(FrameType::kResetAck);
  w.u64(f.tag);
  return w.take();
}

bool TryDecode(ByteSpan frame, ResetAckFrame* out, std::string* error) {
  return Defensive(frame, FrameType::kResetAck, error,
                   [&](Reader& r) { out->tag = r.u64(); });
}

Bytes Encode(const ShutdownFrame& f) {
  Writer w = Begin(FrameType::kShutdown);
  w.u8(f.abort ? 1 : 0);
  return w.take();
}

bool TryDecode(ByteSpan frame, ShutdownFrame* out, std::string* error) {
  return Defensive(frame, FrameType::kShutdown, error,
                   [&](Reader& r) { out->abort = r.u8() != 0; });
}

Bytes Encode(const ShutdownAckFrame&) {
  return Begin(FrameType::kShutdownAck).take();
}

bool TryDecode(ByteSpan frame, ShutdownAckFrame* out, std::string* error) {
  (void)out;
  return Defensive(frame, FrameType::kShutdownAck, error, [](Reader&) {});
}

Bytes Encode(const ShutdownDoneFrame&) {
  return Begin(FrameType::kShutdownDone).take();
}

bool TryDecode(ByteSpan frame, ShutdownDoneFrame* out, std::string* error) {
  (void)out;
  return Defensive(frame, FrameType::kShutdownDone, error, [](Reader&) {});
}

Bytes Encode(const StatsPollFrame& f) {
  Writer w = Begin(FrameType::kStatsPoll);
  w.u64(f.seq);
  return w.take();
}

bool TryDecode(ByteSpan frame, StatsPollFrame* out, std::string* error) {
  return Defensive(frame, FrameType::kStatsPoll, error,
                   [&](Reader& r) { out->seq = r.u64(); });
}

Bytes Encode(const StatsPollReplyFrame& f) {
  Writer w = Begin(FrameType::kStatsPollReply);
  w.u64(f.seq);
  w.u32(f.node);
  w.u64(f.now_ns);
  f.recorder.Encode(w);
  return w.take();
}

bool TryDecode(ByteSpan frame, StatsPollReplyFrame* out, std::string* error) {
  return Defensive(frame, FrameType::kStatsPollReply, error, [&](Reader& r) {
    out->seq = r.u64();
    out->node = r.u32();
    out->now_ns = r.u64();
    out->recorder = stats::Recorder::Decode(r);
  });
}

Bytes Encode(const HeartbeatFrame& f) {
  Writer w = Begin(FrameType::kHeartbeat);
  w.u64(f.seq);
  w.u64(f.send_ns);
  return w.take();
}

bool TryDecode(ByteSpan frame, HeartbeatFrame* out, std::string* error) {
  return Defensive(frame, FrameType::kHeartbeat, error, [&](Reader& r) {
    out->seq = r.u64();
    out->send_ns = r.u64();
  });
}

Bytes Encode(const HeartbeatAckFrame& f) {
  Writer w = Begin(FrameType::kHeartbeatAck);
  w.u64(f.seq);
  w.u64(f.send_ns);
  return w.take();
}

bool TryDecode(ByteSpan frame, HeartbeatAckFrame* out, std::string* error) {
  return Defensive(frame, FrameType::kHeartbeatAck, error, [&](Reader& r) {
    out->seq = r.u64();
    out->send_ns = r.u64();
  });
}

}  // namespace hmdsm::netio
