#include "meshbench/launch.h"

#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <optional>
#include <utility>

#include "src/gos/vm.h"
#include "src/netio/launcher.h"
#include "src/util/fnv.h"
#include "src/util/json.h"
#include "src/util/serde.h"
#include "src/workload/recorder.h"

namespace hmdsm::meshbench {

using workload::Scenario;

namespace {

// A rank still running after this long is hung; SIGALRM turns the hang
// into a failed rank instead of a benchmark that never returns.
constexpr unsigned kRankTimeoutS = 60;
// Per-rank capacity of the shared result mapping. MAP_NORESERVE: only the
// pages a rank actually writes are backed.
constexpr std::size_t kSlotBytes = std::size_t{256} << 20;

/// One result slot per rank in an anonymous shared mapping made before
/// fork: children write, the parent reads after reaping them.
class SharedSlots {
 public:
  explicit SharedSlots(std::size_t count)
      : count_(count), bytes_(count * kSlotBytes) {
    void* p = ::mmap(nullptr, bytes_, PROT_READ | PROT_WRITE,
                     MAP_SHARED | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    HMDSM_CHECK_MSG(p != MAP_FAILED, "mmap of the result slots failed");
    base_ = static_cast<Byte*>(p);
  }
  ~SharedSlots() { ::munmap(base_, bytes_); }
  SharedSlots(const SharedSlots&) = delete;
  SharedSlots& operator=(const SharedSlots&) = delete;

  /// The length word goes in last, so a rank that dies mid-copy leaves an
  /// empty slot rather than a torn one.
  bool Store(std::size_t i, const Bytes& payload) {
    if (i >= count_ || payload.size() > kSlotBytes - 8) return false;
    Byte* slot = base_ + i * kSlotBytes;
    std::memcpy(slot + 8, payload.data(), payload.size());
    const std::uint64_t n = payload.size();
    std::memcpy(slot, &n, sizeof n);
    return true;
  }

  ByteSpan Load(std::size_t i) const {
    const Byte* slot = base_ + i * kSlotBytes;
    std::uint64_t n = 0;
    std::memcpy(&n, slot, sizeof n);
    return ByteSpan(slot + 8, std::min<std::uint64_t>(n, kSlotBytes - 8));
  }

 private:
  std::size_t count_;
  std::size_t bytes_;
  Byte* base_ = nullptr;
};

/// Times calls into one lane; spans only when the launch is traced.
class Recorder {
 public:
  Recorder(Lane& lane, bool traced) : lane_(lane), traced_(traced) {}

  /// Opens a root span; returns its parent handle for children (0 when
  /// untraced).
  std::uint32_t Begin(Call call) {
    if (!traced_) return 0;
    lane_.spans.push_back({NowNs(), 0, static_cast<std::uint32_t>(call), 0});
    return static_cast<std::uint32_t>(lane_.spans.size());
  }
  void End(std::uint32_t root) {
    if (root != 0) lane_.spans[root - 1].end_ns = NowNs();
  }

  template <typename F>
  void Time(Call call, std::uint32_t parent, F&& f) {
    const std::int64_t start = NowNs();
    f();
    const std::int64_t end = NowNs();
    lane_.samples[static_cast<std::size_t>(call)].push_back(
        static_cast<std::uint64_t>(end - start));
    lane_.last_end_ns = end;
    if (traced_)
      lane_.spans.push_back(
          {start, end, static_cast<std::uint32_t>(call), parent});
  }

 private:
  Lane& lane_;
  bool traced_;
};

/// The gos::Env op surface AgentShimT drives, each call timed.
class TimedEnv {
 public:
  TimedEnv(gos::Env& env, Recorder& rec, std::uint32_t parent)
      : env_(env), rec_(rec), parent_(parent) {}

  void Read(gos::ObjectId obj, const std::function<void(ByteSpan)>& fn) {
    rec_.Time(Call::kRead, parent_, [&] { env_.Read(obj, fn); });
  }
  void Write(gos::ObjectId obj, const std::function<void(MutByteSpan)>& fn) {
    rec_.Time(Call::kWrite, parent_, [&] { env_.Write(obj, fn); });
  }
  void Acquire(gos::LockId lock) {
    rec_.Time(Call::kAcquire, parent_, [&] { env_.Acquire(lock); });
  }
  void Release(gos::LockId lock) {
    rec_.Time(Call::kRelease, parent_, [&] { env_.Release(lock); });
  }
  void Barrier(gos::BarrierId barrier, std::uint32_t participants) {
    rec_.Time(Call::kBarrier, parent_,
              [&] { env_.Barrier(barrier, participants); });
  }
  void PhaseMark() {
    rec_.Time(Call::kPhaseMark, parent_, [&] { env_.PhaseMark(); });
  }
  void Delay(sim::Time ns) { env_.Delay(ns); }

 private:
  gos::Env& env_;
  Recorder& rec_;
  std::uint32_t parent_;
};

/// What only the lead rank knows.
struct LeadResult {
  bool reported = false;
  std::uint64_t digest = 0;
  std::uint64_t ops = 0;
  std::int64_t reset_ns = 0;
  std::int64_t joined_ns = 0;
  std::int64_t quiesced_ns = 0;
  std::map<std::string, std::uint64_t> counters;
};

std::map<std::string, std::uint64_t> Counters(const gos::RunReport& r) {
  std::map<std::string, std::uint64_t> c;
  c["messages"] = r.messages;
  c["bytes"] = r.bytes;
  for (const stats::MsgCat cat : {stats::MsgCat::kObj, stats::MsgCat::kMig,
                                  stats::MsgCat::kDiff, stats::MsgCat::kRedir,
                                  stats::MsgCat::kSync})
    c["messages." + std::string(stats::MsgCatName(cat))] =
        r.cat[static_cast<std::size_t>(cat)].messages;
  c["fault_ins"] = r.fault_ins;
  c["diffs"] = r.diffs_created;
  c["redirect_hops"] = r.redirect_hops;
  c["exclusive_home_writes"] = r.exclusive_home_writes;
  c["migrations"] = r.migrations;
  c["decisions"] = r.migrations + r.mig_rejections;
  c["socket_writes"] = r.socket_writes;
  c["wire_frames"] = r.wire_frames;
  c["delta_hits"] = r.wire_delta_hits;
  c["delta_misses"] = r.wire_delta_misses;
  c["delta_saved_bytes"] = r.wire_delta_bytes_saved;
  c["shm_msgs"] = r.shm_msgs;
  c["overflow_allocs"] = r.mailbox_overflow_allocs;
  c["rx_buffer_allocs"] = r.rx_buffer_allocs;
  // Power-of-two-bucket quantiles from the program's own histograms.
  const auto rtt_p50 = [&r](stats::MsgCat cat) {
    return r.rtt[static_cast<std::size_t>(cat)].p50;
  };
  c["rtt_obj_p50_ns"] = rtt_p50(stats::MsgCat::kObj);
  c["rtt_mig_p50_ns"] = rtt_p50(stats::MsgCat::kMig);
  c["dwell_p50_ns"] = r.mailbox_dwell.p50;
  c["dwell_p95_ns"] = r.mailbox_dwell.p95;
  c["socket_write_p50_ns"] = r.socket_write_ns.p50;
  c["adapt_p50_ns"] = r.adaptation.p50;
  c["first_access_p50_ns"] = r.migration_first_access.p50;
  std::vector<double> hb;
  for (const gos::RunReport::PeerReport& p : r.peer_health)
    if (p.rtt_p50_us >= 0) hb.push_back(p.rtt_p50_us);
  std::sort(hb.begin(), hb.end());
  c["hb_rtt_p50_ns"] =
      hb.empty() ? 0 : static_cast<std::uint64_t>(hb[hb.size() / 2] * 1e3);
  return c;
}

template <typename T>
void PutRaw(Writer& w, const std::vector<T>& v) {
  w.u32(static_cast<std::uint32_t>(v.size()));
  w.raw(ByteSpan(reinterpret_cast<const Byte*>(v.data()),
                 v.size() * sizeof(T)));
}

template <typename T>
std::vector<T> GetRaw(Reader& r) {
  const std::uint32_t n = r.u32();
  HMDSM_CHECK_MSG(n <= r.remaining() / sizeof(T), "corrupt rank result");
  std::vector<T> v(n);
  const ByteSpan bytes = r.raw(n * sizeof(T));
  if (n > 0) std::memcpy(v.data(), bytes.data(), bytes.size());
  return v;
}

Bytes Encode(const std::vector<Lane>& lanes, const LeadResult& lead) {
  Writer w;
  w.u32(static_cast<std::uint32_t>(lanes.size()));
  for (const Lane& lane : lanes) {
    for (const auto& s : lane.samples) PutRaw(w, s);
    PutRaw(w, lane.spans);
    w.i64(lane.last_end_ns);
  }
  w.u8(lead.reported ? 1 : 0);
  w.u64(lead.digest);
  w.u64(lead.ops);
  w.i64(lead.reset_ns);
  w.i64(lead.joined_ns);
  w.i64(lead.quiesced_ns);
  w.u32(static_cast<std::uint32_t>(lead.counters.size()));
  for (const auto& [name, value] : lead.counters) {
    w.str(name);
    w.u64(value);
  }
  return w.take();
}

void Decode(ByteSpan blob, std::vector<Lane>* lanes, LeadResult* lead) {
  Reader r(blob);
  const std::uint32_t n = r.u32();
  HMDSM_CHECK_MSG(n <= kRanks + 1, "corrupt rank result");
  lanes->resize(n);
  for (Lane& lane : *lanes) {
    for (auto& s : lane.samples) s = GetRaw<std::uint64_t>(r);
    lane.spans = GetRaw<Span>(r);
    lane.last_end_ns = r.i64();
  }
  lead->reported = r.u8() != 0;
  lead->digest = r.u64();
  lead->ops = r.u64();
  lead->reset_ns = r.i64();
  lead->joined_ns = r.i64();
  lead->quiesced_ns = r.i64();
  const std::uint32_t counters = r.u32();
  for (std::uint32_t i = 0; i < counters; ++i) {
    std::string name = r.str();
    lead->counters[std::move(name)] = r.u64();
  }
  HMDSM_CHECK_MSG(r.done(), "trailing bytes in rank result");
}

/// One rank process of the launch (SPMD: every rank runs this; only the
/// lead's main thread does real work, only worker w's rank runs worker w).
int RankMain(const netio::LocalRank& self, const Workload& wl,
             const Scenario& s, bool traced, SharedSlots& slots) {
  ::alarm(kRankTimeoutS);
  std::vector<Lane> lanes(1 + s.workers.size());
  LeadResult lead;
  int status = 0;
  try {
    gos::VmOptions options;
    options.nodes = self.peers.size();
    options.backend = gos::Backend::kSockets;
    options.sockets.rank = self.rank;
    options.sockets.peers = self.peers;
    options.sockets.ranks_per_proc = self.ranks_per_proc;
    options.sockets.listen_fd = self.listen_fd;
    options.sockets.shm = wl.shm;

    Recorder main_lane(lanes[0], traced);
    const std::uint32_t setup = main_lane.Begin(Call::kSetup);
    std::optional<gos::Vm> vm;
    main_lane.Time(Call::kVm, setup, [&] { vm.emplace(options); });
    vm->Run([&](gos::Env& env) {
      workload::Bindings bindings;
      for (const workload::ObjectSpec& o : s.objects)
        main_lane.Time(Call::kCreateObject, setup, [&] {
          bindings.objects.push_back(
              vm->CreateObject(env, o.home, ZeroBytes(o.bytes)));
        });
      for (workload::NodeId m : s.lock_managers)
        bindings.locks.push_back(vm->CreateLock(m));
      for (workload::NodeId m : s.barrier_managers)
        bindings.barriers.push_back(vm->CreateBarrier(m));
      main_lane.Time(Call::kReset, setup, [&] { vm->ResetMeasurement(); });
      main_lane.End(setup);
      lead.reset_ns = NowNs();

      std::vector<gos::Thread*> threads;
      for (std::uint32_t w = 0; w < s.workers.size(); ++w) {
        threads.push_back(vm->Spawn(
            s.workers[w].node,
            [&, w](gos::Env& me) {
              Recorder rec(lanes[1 + w], traced);
              const std::uint32_t root = rec.Begin(Call::kWorker);
              TimedEnv timed(me, rec, root);
              workload::AgentShimT<TimedEnv> shim(timed, bindings, w,
                                                  nullptr);
              for (const workload::Op& op : s.workers[w].program)
                shim.Execute(op);
              rec.End(root);
              Writer res;
              res.u64(shim.ops_executed());
              res.u64(shim.read_checksum());
              me.PublishResult(res.take());
            },
            s.workers[w].name));
      }
      const std::uint32_t drain = main_lane.Begin(Call::kDrain);
      for (gos::Thread* t : threads)
        main_lane.Time(Call::kJoin, drain, [&] { vm->Join(env, t); });
      lead.joined_ns = NowNs();
      main_lane.Time(Call::kQuiesce, drain, [&] { vm->Quiesce(env); });
      main_lane.End(drain);
      lead.quiesced_ns = NowNs();
      gos::RunReport report;
      main_lane.Time(Call::kReport, 0, [&] { report = vm->Report(); });
      if (!vm->reporting()) return;

      // The digest rule of src/workload/runner.cc.
      std::uint64_t digest = kFnvOffsetBasis;
      for (gos::Thread* t : threads) {
        Reader res(t->result());
        lead.ops += res.u64();
        digest = FnvFold64(digest, res.u64());
      }
      for (gos::ObjectId obj : bindings.objects)
        env.Read(obj, [&](ByteSpan bytes) {
          for (Byte b : bytes) digest = FnvFold(digest, b);
        });
      lead.digest = digest;
      lead.counters = Counters(report);
      lead.reported = true;
    });
  } catch (const std::exception& e) {
    std::fprintf(stderr, "meshbench rank %u: %s\n", self.rank, e.what());
    status = 1;
  }
  if (!slots.Store(self.rank, Encode(lanes, lead)) && status == 0) status = 3;
  return status;
}

}  // namespace

std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::string_view CallName(Call call) {
  switch (call) {
    case Call::kRead: return "Env::Read";
    case Call::kWrite: return "Env::Write";
    case Call::kAcquire: return "Env::Acquire";
    case Call::kRelease: return "Env::Release";
    case Call::kBarrier: return "Env::Barrier";
    case Call::kPhaseMark: return "Env::PhaseMark";
    case Call::kVm: return "Vm::Vm";
    case Call::kCreateObject: return "Vm::CreateObject";
    case Call::kReset: return "Vm::ResetMeasurement";
    case Call::kJoin: return "Vm::Join";
    case Call::kQuiesce: return "Vm::Quiesce";
    case Call::kReport: return "Vm::Report";
    case Call::kSetup: return "setup";
    case Call::kWorker: return "worker";
    case Call::kDrain: return "drain";
    case Call::kCount: break;
  }
  return "?";
}

Launch RunLaunch(const Workload& wl, const Scenario& scenario, bool traced) {
  Launch out;
  SharedSlots slots(kRanks);
  out.origin_ns = NowNs();
  int status = 1;
  try {
    status = netio::RunLocalMesh(kRanks, [&](const netio::LocalRank& self) {
      return RankMain(self, wl, scenario, traced, slots);
    });
  } catch (const std::exception& e) {
    out.error = e.what();
    return out;
  }
  if (status != 0)
    out.error = "mesh exited with status " + std::to_string(status);

  LeadResult lead;
  std::int64_t last_op_ns = 0;
  for (std::uint32_t rank = 0; rank < kRanks; ++rank) {
    std::vector<Lane> lanes;
    LeadResult mine;
    try {
      Decode(slots.Load(rank), &lanes, &mine);
    } catch (const CheckError& e) {
      out.error = "rank " + std::to_string(rank) + ": " + e.what();
      continue;
    }
    if (rank == 0) lead = std::move(mine);
    // Lane 0 off the lead is the ghost main replica, whose calls are no-ops.
    for (std::size_t l = rank == 0 ? 0 : 1; l < lanes.size(); ++l)
      for (std::size_t c = 0; c < kNumCalls; ++c)
        out.samples[c].insert(out.samples[c].end(), lanes[l].samples[c].begin(),
                              lanes[l].samples[c].end());
    for (std::size_t l = 1; l < lanes.size(); ++l)
      last_op_ns = std::max(last_op_ns, lanes[l].last_end_ns);
    if (traced) out.rank_lanes.push_back(std::move(lanes));
  }
  if (!lead.reported && out.error.empty()) out.error = "lead did not report";
  out.ok = out.error.empty();
  out.digest = lead.digest;
  out.ops = lead.ops;
  out.setup_s = static_cast<double>(lead.reset_ns - out.origin_ns) * 1e-9;
  out.measured_s = static_cast<double>(lead.joined_ns - lead.reset_ns) * 1e-9;
  out.drain_s = static_cast<double>(lead.quiesced_ns - last_op_ns) * 1e-9;
  out.counters = std::move(lead.counters);
  return out;
}

bool WriteChromeTrace(const Launch& launch, const std::string& path) {
  std::ofstream os(path, std::ios::trunc);
  if (!os) return false;
  {
    JsonWriter j(os);
    j.BeginObject();
    j.Key("traceEvents").BeginArray();
    for (std::size_t rank = 0; rank < launch.rank_lanes.size(); ++rank) {
      j.BeginObject();
      j.Key("name").String("process_name").Key("ph").String("M");
      j.Key("pid").Uint(rank).Key("tid").Uint(0);
      j.Key("args").BeginObject();
      j.Key("name").String("rank " + std::to_string(rank));
      j.EndObject().EndObject();
      const std::vector<Lane>& lanes = launch.rank_lanes[rank];
      for (std::size_t l = 0; l < lanes.size(); ++l) {
        if (lanes[l].spans.empty()) continue;
        j.BeginObject();
        j.Key("name").String("thread_name").Key("ph").String("M");
        j.Key("pid").Uint(rank).Key("tid").Uint(l);
        j.Key("args").BeginObject();
        j.Key("name").String(l == 0 ? (rank == 0 ? "main" : "main replica")
                                    : "worker " + std::to_string(l - 1));
        j.EndObject().EndObject();
        for (std::size_t i = 0; i < lanes[l].spans.size(); ++i) {
          const Span& sp = lanes[l].spans[i];
          j.BeginObject();
          j.Key("name").String(CallName(static_cast<Call>(sp.call)));
          j.Key("ph").String("X");
          j.Key("pid").Uint(rank).Key("tid").Uint(l);
          j.Key("ts").Double(
              static_cast<double>(sp.start_ns - launch.origin_ns) * 1e-3);
          j.Key("dur").Double(
              static_cast<double>(sp.end_ns - sp.start_ns) * 1e-3);
          j.Key("args").BeginObject();
          j.Key("trace_id").Uint(l);
          j.Key("span").Uint(i + 1);
          j.Key("parent").Uint(sp.parent);
          j.EndObject().EndObject();
        }
      }
    }
    j.EndArray().EndObject();
  }
  os << '\n';
  return os.good();
}

}  // namespace hmdsm::meshbench
