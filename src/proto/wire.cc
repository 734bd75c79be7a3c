#include "src/proto/wire.h"

namespace hmdsm::proto {

namespace {

Writer Begin(Kind kind) {
  Writer w;
  w.u8(static_cast<std::uint8_t>(kind));
  return w;
}

void PutDiffList(Writer& w,
                 const std::vector<std::pair<ObjectId, Bytes>>& diffs) {
  w.u32(static_cast<std::uint32_t>(diffs.size()));
  for (const auto& [obj, diff] : diffs) {
    w.u64(obj.value);
    w.bytes(diff);
  }
}

std::vector<std::pair<ObjectId, Bytes>> GetDiffList(Reader& r) {
  std::vector<std::pair<ObjectId, Bytes>> diffs;
  const std::uint32_t n = r.u32();
  // Each entry needs at least an id (8) plus a length prefix (4); a count
  // exceeding what the remaining bytes could hold is corrupt. Checking
  // before reserve() keeps a hostile count from turning into a giant
  // allocation instead of a decode error.
  HMDSM_CHECK_MSG(n <= r.remaining() / 12,
                  "diff list count " << n << " exceeds remaining bytes");
  diffs.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    ObjectId obj{r.u64()};
    diffs.emplace_back(obj, r.bytes());
  }
  return diffs;
}

}  // namespace

Bytes Encode(const ObjRequest& m) {
  Writer w = Begin(Kind::kObjRequest);
  w.u64(m.obj.value);
  w.u32(m.hops);
  w.u8(m.for_write ? 1 : 0);
  return w.take();
}

Bytes Encode(const ObjReply& m) {
  Writer w = Begin(Kind::kObjReply);
  w.u64(m.obj.value);
  w.bytes(m.data);
  w.u32(m.home_epoch);
  return w.take();
}

Bytes Encode(const MigrateReply& m) {
  Writer w = Begin(Kind::kMigrateReply);
  w.u64(m.obj.value);
  w.bytes(m.data);
  m.policy_state.Encode(w);
  return w.take();
}

Bytes Encode(const Redirect& m) {
  Writer w = Begin(Kind::kRedirect);
  w.u64(m.obj.value);
  w.u32(m.new_home);
  w.u8(m.ask_manager ? 1 : 0);
  return w.take();
}

Bytes Encode(const DiffMsg& m) {
  Writer w = Begin(Kind::kDiff);
  w.u64(m.obj.value);
  w.bytes(m.diff);
  w.u64(m.ack_tag);
  w.u8(m.ack_required ? 1 : 0);
  w.u32(m.writer);
  w.u32(m.ack_to);
  return w.take();
}

Bytes Encode(const DiffAck& m) {
  Writer w = Begin(Kind::kDiffAck);
  w.u64(m.ack_tag);
  return w.take();
}

Bytes Encode(const LockAcquireMsg& m) {
  Writer w = Begin(Kind::kLockAcquire);
  w.u64(m.lock.value);
  PutDiffList(w, m.piggybacked_diffs);
  return w.take();
}

Bytes Encode(const LockGrantMsg& m) {
  Writer w = Begin(Kind::kLockGrant);
  w.u64(m.lock.value);
  PutDiffList(w, m.copies);
  w.u8(m.cacheable ? 1 : 0);
  return w.take();
}

Bytes Encode(const LockReleaseMsg& m) {
  Writer w = Begin(Kind::kLockRelease);
  w.u64(m.lock.value);
  PutDiffList(w, m.piggybacked_diffs);
  return w.take();
}

Bytes Encode(const BarrierArriveMsg& m) {
  Writer w = Begin(Kind::kBarrierArrive);
  w.u64(m.barrier.value);
  w.u32(m.expected);
  PutDiffList(w, m.piggybacked_diffs);
  return w.take();
}

Bytes Encode(const BarrierReleaseMsg& m) {
  Writer w = Begin(Kind::kBarrierRelease);
  w.u64(m.barrier.value);
  return w.take();
}

Bytes Encode(const InitObjectMsg& m) {
  Writer w = Begin(Kind::kInitObject);
  w.u64(m.obj.value);
  w.bytes(m.data);
  w.u64(m.ack_tag);
  return w.take();
}

Bytes Encode(const InitAckMsg& m) {
  Writer w = Begin(Kind::kInitAck);
  w.u64(m.ack_tag);
  return w.take();
}

Bytes Encode(const ManagerUpdateMsg& m) {
  Writer w = Begin(Kind::kManagerUpdate);
  w.u64(m.obj.value);
  w.u32(m.home);
  return w.take();
}

Bytes Encode(const ManagerLookupMsg& m) {
  Writer w = Begin(Kind::kManagerLookup);
  w.u64(m.obj.value);
  return w.take();
}

Bytes Encode(const ManagerReplyMsg& m) {
  Writer w = Begin(Kind::kManagerReply);
  w.u64(m.obj.value);
  w.u32(m.home);
  return w.take();
}

Bytes Encode(const HomeBroadcastMsg& m) {
  Writer w = Begin(Kind::kHomeBroadcast);
  w.u64(m.obj.value);
  w.u32(m.home);
  return w.take();
}

Bytes Encode(const ChainUpdateMsg& m) {
  Writer w = Begin(Kind::kChainUpdate);
  w.u64(m.obj.value);
  w.u32(m.home);
  w.u32(m.home_epoch);
  return w.take();
}

Bytes Encode(const SyncFenceMsg& m) {
  Writer w = Begin(Kind::kSyncFence);
  w.u64(m.ack_tag);
  return w.take();
}

Bytes Encode(const LockRecallMsg& m) {
  Writer w = Begin(Kind::kLockRecall);
  w.u64(m.lock.value);
  return w.take();
}

Kind PeekKind(ByteSpan wire) {
  HMDSM_CHECK(!wire.empty());
  return static_cast<Kind>(wire[0]);
}

namespace {

AnyMsg DecodeImpl(Reader& r) {
  const Kind kind = static_cast<Kind>(r.u8());
  switch (kind) {
    case Kind::kObjRequest: {
      ObjRequest m;
      m.obj = ObjectId{r.u64()};
      m.hops = r.u32();
      m.for_write = r.u8() != 0;
      return m;
    }
    case Kind::kObjReply: {
      ObjReply m;
      m.obj = ObjectId{r.u64()};
      m.data = r.bytes();
      m.home_epoch = r.u32();
      return m;
    }
    case Kind::kMigrateReply: {
      MigrateReply m;
      m.obj = ObjectId{r.u64()};
      m.data = r.bytes();
      m.policy_state = core::ObjPolicyState::Decode(r);
      return m;
    }
    case Kind::kRedirect: {
      Redirect m;
      m.obj = ObjectId{r.u64()};
      m.new_home = r.u32();
      m.ask_manager = r.u8() != 0;
      return m;
    }
    case Kind::kDiff: {
      DiffMsg m;
      m.obj = ObjectId{r.u64()};
      m.diff = r.bytes();
      m.ack_tag = r.u64();
      m.ack_required = r.u8() != 0;
      m.writer = r.u32();
      m.ack_to = r.u32();
      return m;
    }
    case Kind::kDiffAck: {
      DiffAck m;
      m.ack_tag = r.u64();
      return m;
    }
    case Kind::kLockAcquire: {
      LockAcquireMsg m;
      m.lock = LockId{r.u64()};
      m.piggybacked_diffs = GetDiffList(r);
      return m;
    }
    case Kind::kLockGrant: {
      LockGrantMsg m;
      m.lock = LockId{r.u64()};
      m.copies = GetDiffList(r);
      std::size_t total = 0;
      for (const auto& copy : m.copies) total += copy.second.size();
      HMDSM_CHECK_MSG(total <= kMaxGrantCopyBytes,
                      "grant carries " << total << " object bytes, over the "
                                       << kMaxGrantCopyBytes << " cap");
      m.cacheable = r.u8() != 0;
      return m;
    }
    case Kind::kLockRelease: {
      LockReleaseMsg m;
      m.lock = LockId{r.u64()};
      m.piggybacked_diffs = GetDiffList(r);
      return m;
    }
    case Kind::kBarrierArrive: {
      BarrierArriveMsg m;
      m.barrier = BarrierId{r.u64()};
      m.expected = r.u32();
      m.piggybacked_diffs = GetDiffList(r);
      return m;
    }
    case Kind::kBarrierRelease: {
      BarrierReleaseMsg m;
      m.barrier = BarrierId{r.u64()};
      return m;
    }
    case Kind::kInitObject: {
      InitObjectMsg m;
      m.obj = ObjectId{r.u64()};
      m.data = r.bytes();
      m.ack_tag = r.u64();
      return m;
    }
    case Kind::kInitAck: {
      InitAckMsg m;
      m.ack_tag = r.u64();
      return m;
    }
    case Kind::kManagerUpdate: {
      ManagerUpdateMsg m;
      m.obj = ObjectId{r.u64()};
      m.home = r.u32();
      return m;
    }
    case Kind::kManagerLookup: {
      ManagerLookupMsg m;
      m.obj = ObjectId{r.u64()};
      return m;
    }
    case Kind::kManagerReply: {
      ManagerReplyMsg m;
      m.obj = ObjectId{r.u64()};
      m.home = r.u32();
      return m;
    }
    case Kind::kHomeBroadcast: {
      HomeBroadcastMsg m;
      m.obj = ObjectId{r.u64()};
      m.home = r.u32();
      return m;
    }
    case Kind::kChainUpdate: {
      ChainUpdateMsg m;
      m.obj = ObjectId{r.u64()};
      m.home = r.u32();
      m.home_epoch = r.u32();
      return m;
    }
    case Kind::kSyncFence: {
      SyncFenceMsg m;
      m.ack_tag = r.u64();
      return m;
    }
    case Kind::kLockRecall: {
      LockRecallMsg m;
      m.lock = LockId{r.u64()};
      return m;
    }
  }
  HMDSM_CHECK_MSG(false, "unknown message kind "
                             << static_cast<int>(kind));
  return ObjRequest{};
}

}  // namespace

AnyMsg Decode(ByteSpan wire) {
  Reader r(wire);
  AnyMsg msg = DecodeImpl(r);
  HMDSM_CHECK_MSG(r.done(),
                  "trailing garbage: " << r.remaining()
                                       << " bytes after the message");
  return msg;
}

bool TryDecode(ByteSpan wire, AnyMsg* out, std::string* error) {
  HMDSM_CHECK(out != nullptr);
  if (wire.empty()) {
    if (error != nullptr) *error = "empty message";
    return false;
  }
  // Reader throws CheckError on truncation, absurd embedded lengths throw
  // via the pre-reserve bounds checks; an untrusted peer must get a decode
  // error back, never an unwound process.
  try {
    Reader r(wire);
    AnyMsg msg = DecodeImpl(r);
    if (!r.done()) {
      if (error != nullptr) {
        *error = "trailing garbage: " + std::to_string(r.remaining()) +
                 " bytes after the message";
      }
      return false;
    }
    *out = std::move(msg);
    return true;
  } catch (const CheckError& e) {
    if (error != nullptr) *error = e.what();
    return false;
  }
}

}  // namespace hmdsm::proto
