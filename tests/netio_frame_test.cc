// The socket transport's frame codec: round trips for every frame type and
// — because frames come off a wire from an untrusted peer — the defensive
// decode paths: truncation, wrong type, trailing garbage, out-of-range
// enums, and hostile embedded lengths must all come back as errors, never
// as exceptions, UB, or giant allocations.
#include "src/netio/frame.h"

#include <gtest/gtest.h>

namespace hmdsm::netio {
namespace {

template <typename F>
F RoundTrip(const F& in) {
  const Bytes wire = Encode(in);
  F out;
  std::string error;
  EXPECT_TRUE(TryDecode(ByteSpan(wire), &out, &error)) << error;
  return out;
}

TEST(NetioFrame, HelloRoundTrip) {
  const HelloFrame out = RoundTrip(HelloFrame{kProtocolVersion, 3, 8});
  EXPECT_EQ(out.version, kProtocolVersion);
  EXPECT_EQ(out.node, 3u);
  EXPECT_EQ(out.node_count, 8u);
}

TEST(NetioFrame, DataRoundTrip) {
  DataFrame in;
  in.src = 2;
  in.dst = 5;
  in.cat = stats::MsgCat::kDiff;
  in.payload = Bytes{1, 2, 3, 4};
  const DataFrame out = RoundTrip(in);
  EXPECT_EQ(out.src, 2u);
  EXPECT_EQ(out.dst, 5u);
  EXPECT_EQ(out.cat, stats::MsgCat::kDiff);
  EXPECT_EQ(out.payload, in.payload);
}

TEST(NetioFrame, ThreadDoneRoundTripCarriesErrorAndResult) {
  ThreadDoneFrame in;
  in.seq = 42;
  in.error = "boom";
  in.result = Bytes{9, 9};
  const ThreadDoneFrame out = RoundTrip(in);
  EXPECT_EQ(out.seq, 42u);
  EXPECT_EQ(out.error, "boom");
  EXPECT_EQ(out.result, in.result);
}

TEST(NetioFrame, QuiesceReplyRoundTrip) {
  const QuiesceReplyFrame out =
      RoundTrip(QuiesceReplyFrame{7, 100, 99, 50, 50});
  EXPECT_EQ(out.round, 7u);
  EXPECT_EQ(out.wire_sent, 100u);
  EXPECT_EQ(out.wire_received, 99u);
  EXPECT_EQ(out.enqueued, 50u);
  EXPECT_EQ(out.dispatched, 50u);
}

TEST(NetioFrame, ShutdownRoundTripCarriesAbort) {
  EXPECT_TRUE(RoundTrip(ShutdownFrame{true}).abort);
  EXPECT_FALSE(RoundTrip(ShutdownFrame{false}).abort);
}

TEST(NetioFrame, StatsPollRoundTrip) {
  EXPECT_EQ(RoundTrip(StatsPollFrame{77}).seq, 77u);
}

TEST(NetioFrame, StatsPollReplyRoundTripsRecorderWithHistograms) {
  StatsPollReplyFrame in;
  in.seq = 9;
  in.recorder.SetNodeCount(4);
  in.recorder.RecordMessage(stats::MsgCat::kObj, 64);
  in.recorder.RecordSent(2, 64);
  in.recorder.Bump(stats::Ev::kMigrations, 5);
  in.recorder.RecordRtt(stats::MsgCat::kObj, 1500);
  in.recorder.RecordLatency(stats::Lat::kMailboxDwell, 250);
  const StatsPollReplyFrame out = RoundTrip(in);
  EXPECT_EQ(out.seq, 9u);
  EXPECT_EQ(out.recorder.Cat(stats::MsgCat::kObj).messages, 1u);
  EXPECT_EQ(out.recorder.Cat(stats::MsgCat::kObj).bytes, 64u);
  EXPECT_EQ(out.recorder.SentBy(2).messages, 1u);
  EXPECT_EQ(out.recorder.Count(stats::Ev::kMigrations), 5u);
  EXPECT_EQ(out.recorder.Rtt(stats::MsgCat::kObj).count(), 1u);
  EXPECT_EQ(out.recorder.Rtt(stats::MsgCat::kObj).max(), 1500u);
  EXPECT_EQ(out.recorder.Latency(stats::Lat::kMailboxDwell).count(), 1u);
}

// ---------------------------------------------------------------------------
// Defensive decoding
// ---------------------------------------------------------------------------

TEST(NetioFrameDefense, EmptyAndUnknownTypeAreRejected) {
  FrameType type;
  EXPECT_FALSE(PeekType(ByteSpan(), &type));
  // 20 is the retired v7 delta frame's type byte, and 18 and 19 were
  // freed when v12 dropped the gather's own request/reply pair: such
  // frames must be rejected as unknown, never misparsed as another frame.
  for (const Byte unknown : {Byte{0xEE}, Byte{18}, Byte{19}, Byte{20}}) {
    const Bytes junk{unknown, 1, 2, 3};
    EXPECT_FALSE(PeekType(ByteSpan(junk), &type)) << int{unknown};
    DataFrame out;
    std::string error;
    EXPECT_FALSE(TryDecode(ByteSpan(junk), &out, &error));
    EXPECT_FALSE(error.empty());
  }
}

TEST(NetioFrameDefense, WrongTypeIsRejected) {
  const Bytes wire = Encode(StartThreadFrame{1});
  ThreadDoneFrame out;
  std::string error;
  EXPECT_FALSE(TryDecode(ByteSpan(wire), &out, &error));
}

TEST(NetioFrameDefense, TruncationIsAnErrorNotACrash) {
  DataFrame in;
  in.payload = Bytes(64, Byte{7});
  const Bytes wire = Encode(in);
  for (std::size_t cut = 1; cut < wire.size(); ++cut) {
    DataFrame out;
    std::string error;
    EXPECT_FALSE(
        TryDecode(ByteSpan(wire.data(), wire.size() - cut), &out, &error))
        << "cut " << cut;
    EXPECT_FALSE(error.empty());
  }
}

TEST(NetioFrameDefense, TrailingGarbageIsRejected) {
  Bytes wire = Encode(QuiesceProbeFrame{3});
  wire.push_back(0xAB);
  QuiesceProbeFrame out;
  std::string error;
  EXPECT_FALSE(TryDecode(ByteSpan(wire), &out, &error));
  EXPECT_NE(error.find("trailing"), std::string::npos);
}

TEST(NetioFrameDefense, HostileEmbeddedLengthIsRejected) {
  // A data frame whose payload length claims 4 GiB but carries 4 bytes.
  Writer w;
  w.u8(static_cast<std::uint8_t>(FrameType::kData));
  w.u32(0);
  w.u32(1);
  w.u8(0);
  w.u32(0xFFFFFFFFu);  // length prefix
  w.u32(0xDEADBEEFu);  // only 4 actual bytes
  const Bytes wire = w.take();
  DataFrame out;
  std::string error;
  EXPECT_FALSE(TryDecode(ByteSpan(wire), &out, &error));
}

TEST(NetioFrameDefense, OutOfRangeCategoryIsRejected) {
  Writer w;
  w.u8(static_cast<std::uint8_t>(FrameType::kData));
  w.u32(0);
  w.u32(1);
  w.u8(0xFF);  // category far outside MsgCat
  w.bytes(Bytes{1});
  const Bytes wire = w.take();
  DataFrame out;
  std::string error;
  EXPECT_FALSE(TryDecode(ByteSpan(wire), &out, &error));
  EXPECT_NE(error.find("category"), std::string::npos);
}

TEST(NetioFrameDefense, CorruptRecorderTableIsRejected) {
  // A hand-built poll reply whose recorder claims a 2^32-entry per-node
  // table: decode must fail before allocating anything of that size.
  Writer w;
  w.u8(static_cast<std::uint8_t>(FrameType::kStatsPollReply));
  w.u64(1);  // seq
  w.u8(3);   // recorder serde version (v3: + decision ledger, timeseries)
  w.u32(static_cast<std::uint32_t>(stats::kNumMsgCats));
  for (std::size_t i = 0; i < stats::kNumMsgCats; ++i) {
    w.u64(0);
    w.u64(0);
  }
  w.u32(static_cast<std::uint32_t>(stats::kNumEvs));
  for (std::size_t i = 0; i < stats::kNumEvs; ++i) w.u64(0);
  w.u32(0xFFFFFFFFu);  // hostile sent-by table size, no data behind it
  const Bytes wire = w.take();
  StatsPollReplyFrame out;
  std::string error;
  EXPECT_FALSE(TryDecode(ByteSpan(wire), &out, &error));
}

TEST(NetioFrameDefense, StatsPollReplyTruncationIsAnErrorNotACrash) {
  StatsPollReplyFrame in;
  in.seq = 4;
  in.recorder.SetNodeCount(2);
  in.recorder.RecordRtt(stats::MsgCat::kObj, 1000);
  const Bytes wire = Encode(in);
  for (std::size_t cut = 1; cut < wire.size(); ++cut) {
    StatsPollReplyFrame out;
    std::string error;
    EXPECT_FALSE(
        TryDecode(ByteSpan(wire.data(), wire.size() - cut), &out, &error))
        << "cut " << cut;
    EXPECT_FALSE(error.empty());
  }
}

TEST(NetioFrameDefense, StatsPollTrailingGarbageIsRejected) {
  Bytes wire = Encode(StatsPollFrame{1});
  wire.push_back(0xAB);
  StatsPollFrame out;
  std::string error;
  EXPECT_FALSE(TryDecode(ByteSpan(wire), &out, &error));
  EXPECT_NE(error.find("trailing"), std::string::npos);
}

TEST(NetioFrameDefense, HostileHistogramBucketCountIsRejected) {
  // A poll reply whose recorder's first RTT histogram claims 255 occupied
  // buckets (the real maximum is 64): rejected at the bound, before the
  // decoder walks 255 phantom bucket entries.
  Writer w;
  w.u8(static_cast<std::uint8_t>(FrameType::kStatsPollReply));
  w.u64(1);  // seq
  w.u8(3);   // recorder serde version
  w.u32(static_cast<std::uint32_t>(stats::kNumMsgCats));
  for (std::size_t i = 0; i < stats::kNumMsgCats; ++i) {
    w.u64(0);
    w.u64(0);
  }
  w.u32(static_cast<std::uint32_t>(stats::kNumEvs));
  for (std::size_t i = 0; i < stats::kNumEvs; ++i) w.u64(0);
  w.u32(0);  // sent-by table
  w.u32(0);  // received-by table
  w.u32(static_cast<std::uint32_t>(stats::kNumMsgCats));
  w.u64(1);    // first histogram: count
  w.u64(1);    // sum
  w.u64(1);    // max
  w.u8(0xFF);  // hostile occupied-bucket count
  const Bytes wire = w.take();
  StatsPollReplyFrame out;
  std::string error;
  EXPECT_FALSE(TryDecode(ByteSpan(wire), &out, &error));
  EXPECT_NE(error.find("bucket"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Batch frames (writer-side coalescing)
// ---------------------------------------------------------------------------

TEST(NetioFrameBatch, RoundTripPreservesOrderAndBytes) {
  DataFrame a;
  a.src = 1;
  a.dst = 0;
  a.cat = stats::MsgCat::kObj;
  a.payload = Bytes{1, 2, 3};
  const std::vector<Bytes> frames = {Encode(a), Encode(QuiesceProbeFrame{7}),
                                     Encode(ShutdownAckFrame{})};
  const Buf batch = Bytes(EncodeBatch(frames));
  std::vector<Buf> inner;
  std::string error;
  ASSERT_TRUE(TryDecodeBatch(batch, &inner, &error)) << error;
  ASSERT_EQ(inner.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i)
    EXPECT_EQ(inner[i], frames[i]) << "frame " << i;
  // The inner data frame decodes like it was never batched.
  DataFrame out;
  ASSERT_TRUE(TryDecode(inner[0], &out, &error)) << error;
  EXPECT_EQ(out.src, 1u);
  EXPECT_EQ(out.payload, a.payload);
}

TEST(NetioFrameBatch, DataPayloadDecodedFromABatchAliasesNoCopy) {
  // Large payloads decoded out of a batch are views of the batch buffer,
  // not copies — the pointer identity is the zero-copy receive path.
  DataFrame big;
  big.payload = Bytes(4096, Byte{0x5A});
  const Buf batch =
      Bytes(EncodeBatch({Encode(big), Encode(QuiesceProbeFrame{1})}));
  std::vector<Buf> inner;
  std::string error;
  ASSERT_TRUE(TryDecodeBatch(batch, &inner, &error)) << error;
  DataFrame out;
  ASSERT_TRUE(TryDecode(inner[0], &out, &error)) << error;
  EXPECT_EQ(out.payload.size(), 4096u);
  EXPECT_GE(out.payload.data(), batch.data());
  EXPECT_LT(out.payload.data(), batch.data() + batch.size());
}

TEST(NetioFrameBatch, TruncatedInnerFrameIsRejected) {
  Bytes wire = EncodeBatch({Encode(QuiesceProbeFrame{1}),
                            Encode(QuiesceProbeFrame{2})});
  for (std::size_t cut = 1; cut < 12; ++cut) {
    const Buf cut_frame = Buf::Copy(ByteSpan(wire.data(), wire.size() - cut));
    std::vector<Buf> inner;
    std::string error;
    EXPECT_FALSE(TryDecodeBatch(cut_frame, &inner, &error)) << "cut " << cut;
    EXPECT_FALSE(error.empty());
  }
}

TEST(NetioFrameBatch, HostileCountIsRejectedBeforeAllocation) {
  // count = 2^32-1 with a handful of actual bytes: the per-entry minimum
  // bound must reject it before any reserve.
  Writer w;
  w.u8(static_cast<std::uint8_t>(FrameType::kBatch));
  w.u32(0xFFFFFFFFu);
  w.u32(1);
  w.u8(static_cast<std::uint8_t>(FrameType::kShutdownAck));
  std::vector<Buf> inner;
  std::string error;
  EXPECT_FALSE(TryDecodeBatch(Buf(w.take()), &inner, &error));
  EXPECT_NE(error.find("batch count"), std::string::npos);
}

TEST(NetioFrameBatch, DegenerateCountsAreRejected) {
  // The writer never coalesces fewer than two frames, so 0 and 1 are
  // protocol violations, not valid encodings.
  for (const std::uint32_t count : {0u, 1u}) {
    Writer w;
    w.u8(static_cast<std::uint8_t>(FrameType::kBatch));
    w.u32(count);
    const Bytes ack = Encode(ShutdownAckFrame{});
    for (std::uint32_t i = 0; i < count; ++i) w.bytes(ack);
    std::vector<Buf> inner;
    std::string error;
    EXPECT_FALSE(TryDecodeBatch(Buf(w.take()), &inner, &error))
        << "count " << count;
  }
}

TEST(NetioFrameBatch, TrailingGarbageIsRejected) {
  Bytes wire = EncodeBatch({Encode(QuiesceProbeFrame{1}),
                            Encode(QuiesceProbeFrame{2})});
  wire.push_back(0xAB);
  std::vector<Buf> inner;
  std::string error;
  EXPECT_FALSE(TryDecodeBatch(Buf(std::move(wire)), &inner, &error));
  EXPECT_NE(error.find("trailing"), std::string::npos);
}

TEST(NetioFrameBatch, NestedBatchIsRejected) {
  const Bytes inner_batch = EncodeBatch(
      {Encode(QuiesceProbeFrame{1}), Encode(QuiesceProbeFrame{2})});
  const Bytes wire =
      EncodeBatch({inner_batch, Encode(ShutdownAckFrame{})});
  std::vector<Buf> inner;
  std::string error;
  EXPECT_FALSE(TryDecodeBatch(Buf(Bytes(wire)), &inner, &error));
  EXPECT_NE(error.find("nested"), std::string::npos);
}

TEST(NetioFrameBatch, InnerFrameWithNoValidTypeIsRejected) {
  Writer w;
  w.u8(static_cast<std::uint8_t>(FrameType::kBatch));
  w.u32(2);
  w.u32(0);  // zero-length inner frame: no type byte at all
  w.bytes(Encode(QuiesceProbeFrame{1}));  // big enough to pass count bound
  std::vector<Buf> inner;
  std::string error;
  EXPECT_FALSE(TryDecodeBatch(Buf(w.take()), &inner, &error));
  EXPECT_NE(error.find("type"), std::string::npos);
}

// ---------------------------------------------------------------------------
// v6 heartbeats
// ---------------------------------------------------------------------------

TEST(NetioFrame, HeartbeatRoundTrip) {
  const HeartbeatFrame out = RoundTrip(HeartbeatFrame{42, 123456789});
  EXPECT_EQ(out.seq, 42u);
  EXPECT_EQ(out.send_ns, 123456789u);
}

TEST(NetioFrame, HeartbeatAckEchoesProbeTimestamp) {
  // The ack carries the prober's own send timestamp back, so RTT is
  // computed against one clock — the ack must preserve both fields bit
  // for bit.
  const HeartbeatAckFrame out =
      RoundTrip(HeartbeatAckFrame{7, 0xFFFFFFFFFFFFFFFFull});
  EXPECT_EQ(out.seq, 7u);
  EXPECT_EQ(out.send_ns, 0xFFFFFFFFFFFFFFFFull);
}

TEST(NetioFrameDefense, HeartbeatTruncationIsAnErrorNotACrash) {
  const Bytes wire = Encode(HeartbeatFrame{9, 987654321});
  for (std::size_t cut = 1; cut < wire.size(); ++cut) {
    HeartbeatFrame out;
    std::string error;
    EXPECT_FALSE(
        TryDecode(ByteSpan(wire.data(), wire.size() - cut), &out, &error))
        << "cut " << cut;
    EXPECT_FALSE(error.empty());
  }
}

TEST(NetioFrameDefense, HeartbeatTrailingGarbageIsRejected) {
  Bytes wire = Encode(HeartbeatAckFrame{3, 5});
  wire.push_back(0xAB);
  HeartbeatAckFrame out;
  std::string error;
  EXPECT_FALSE(TryDecode(ByteSpan(wire), &out, &error));
  EXPECT_NE(error.find("trailing"), std::string::npos);
}

TEST(NetioFrameDefense, HeartbeatWrongTypeIsRejected) {
  // A heartbeat must never decode as an ack (and vice versa): the prober
  // matches acks by sequence and a confused type would corrupt RTTs.
  const Bytes hb = Encode(HeartbeatFrame{1, 2});
  HeartbeatAckFrame ack;
  std::string error;
  EXPECT_FALSE(TryDecode(ByteSpan(hb), &ack, &error));
  const Bytes wire = Encode(HeartbeatAckFrame{1, 2});
  HeartbeatFrame probe;
  EXPECT_FALSE(TryDecode(ByteSpan(wire), &probe, &error));
}

TEST(NetioFrame, PeekTypeSeesHeartbeats) {
  FrameType type;
  ASSERT_TRUE(PeekType(ByteSpan(Encode(HeartbeatFrame{1, 2})), &type));
  EXPECT_EQ(type, FrameType::kHeartbeat);
  ASSERT_TRUE(PeekType(ByteSpan(Encode(HeartbeatAckFrame{1, 2})), &type));
  EXPECT_EQ(type, FrameType::kHeartbeatAck);
}

// ---------------------------------------------------------------------------
// v7: shm handshake negotiation
// ---------------------------------------------------------------------------

TEST(NetioFrame, HelloRoundTripCarriesV7Negotiation) {
  HelloFrame in;
  in.node = 4;
  in.node_count = 8;
  in.ranks_per_proc = 2;
  in.flags = kHelloFlagShm;
  in.host_id = 0xDEADBEEFCAFEF00Dull;
  in.shm_name = "/hmdsm-1234-2-abc";
  const HelloFrame out = RoundTrip(in);
  EXPECT_EQ(out.flags, kHelloFlagShm);
  EXPECT_EQ(out.host_id, 0xDEADBEEFCAFEF00Dull);
  EXPECT_EQ(out.shm_name, "/hmdsm-1234-2-abc");
}

TEST(NetioFrame, HelloAckRoundTripCarriesV7Negotiation) {
  HelloAckFrame in;
  in.node = 0;
  in.flags = kHelloFlagShm;
  in.host_id = 7;
  in.shm_name = "/hmdsm-99-0-1";
  const HelloAckFrame out = RoundTrip(in);
  EXPECT_EQ(out.flags, kHelloFlagShm);
  EXPECT_EQ(out.host_id, 7u);
  EXPECT_EQ(out.shm_name, "/hmdsm-99-0-1");
}

}  // namespace
}  // namespace hmdsm::netio
