#include "meshbench/workloads.h"

#include <sstream>
#include <utility>

#include "src/util/rng.h"

namespace hmdsm::meshbench {

using workload::Op;
using workload::OpKind;
using workload::Scenario;

namespace {

// Sizes are chosen so one mesh launch measures about half a second on a
// 4-core host. Launch-to-launch spread comes mostly from where the
// scheduler places each fresh set of rank processes, so many short
// launches per run give steadier medians than a few long ones.

// hot_home: epochs of locked updates, then a barrier.
constexpr std::uint32_t kHotObjects = 4;
constexpr std::uint32_t kHotBytes = 256;
constexpr std::uint32_t kHotEpochs = 16;
constexpr std::uint32_t kHotUpdatesPerEpoch = 96;

// writer_churn: hand-offs of a sole writer holding kChurnHold epochs.
constexpr std::uint32_t kChurnObjects = 8;
constexpr std::uint32_t kChurnBytes = 1024;
constexpr std::uint32_t kChurnHandoffs = 150;
constexpr std::uint32_t kChurnHold = 4;
constexpr std::uint32_t kChurnWritesPerObject = 2;

// read_share_tcp: one writer dirties kShareDirty bytes per object, then
// everyone re-reads every object kShareReads times.
constexpr std::uint32_t kShareObjects = 8;
constexpr std::uint32_t kShareBytes = 4096;
constexpr std::uint32_t kShareRounds = 500;
constexpr std::uint32_t kShareReads = 3;
constexpr std::uint64_t kShareDirty = 16;

/// An independent generator per (seed, stream): worker w uses stream w,
/// scenario-wide choices use stream kRanks.
Rng StreamRng(std::uint64_t seed, std::uint64_t stream) {
  SplitMix64 mix(seed ^ (0x9E3779B97F4A7C15ull * (stream + 1)));
  return Rng(mix.next());
}

template <typename T>
void Shuffle(Rng& rng, std::vector<T>& v) {
  for (std::size_t i = v.size(); i > 1; --i)
    std::swap(v[i - 1], v[rng.below(i)]);
}

Scenario Skeleton(std::string_view name, std::uint64_t seed,
                  std::uint32_t objects, std::uint32_t bytes,
                  bool homes_spread) {
  Scenario s;
  s.name = std::string(name) + ",seed=" + std::to_string(seed);
  s.nodes = kRanks;
  for (std::uint32_t i = 0; i < objects; ++i)
    s.objects.push_back({bytes, homes_spread ? i % kRanks : 0});
  s.barrier_managers = {0};
  for (std::uint32_t w = 0; w < kRanks; ++w)
    s.workers.push_back({w, "w" + std::to_string(w), {}});
  return s;
}

void LockedWrite(std::vector<Op>& prog, std::uint32_t lock,
                 std::uint32_t obj, std::uint64_t dirty = 0) {
  prog.push_back({OpKind::kAcquire, lock, 0});
  prog.push_back({OpKind::kWrite, obj, dirty});
  prog.push_back({OpKind::kRelease, lock, 0});
}

Scenario HotHome(std::uint64_t seed) {
  Scenario s = Skeleton("hot_home", seed, kHotObjects, kHotBytes,
                        /*homes_spread=*/false);
  s.lock_managers = {0};  // one global lock, managed at the hot home
  for (std::uint32_t w = 0; w < kRanks; ++w) {
    Rng rng = StreamRng(seed, w);
    std::vector<Op>& prog = s.workers[w].program;
    for (std::uint32_t e = 0; e < kHotEpochs; ++e) {
      for (std::uint32_t u = 0; u < kHotUpdatesPerEpoch; ++u)
        LockedWrite(prog, 0,
                    static_cast<std::uint32_t>(rng.below(kHotObjects)));
      prog.push_back({OpKind::kBarrier, 0, kRanks});
    }
    // Settle pass: which worker wrote an object last in an epoch is decided
    // by lock-arrival order, so worker 0 rewrites every object after the
    // final barrier. That pins the final contents the digest reads.
    if (w == 0)
      for (std::uint32_t o = 0; o < kHotObjects; ++o) LockedWrite(prog, 0, o);
  }
  return s;
}

Scenario WriterChurn(std::uint64_t seed) {
  Scenario s = Skeleton("writer_churn", seed, kChurnObjects, kChurnBytes,
                        /*homes_spread=*/true);
  for (std::uint32_t i = 0; i < kChurnObjects; ++i)
    s.lock_managers.push_back(i % kRanks);
  // The seeded rotation: each hand-off goes to one of the other workers.
  Rng rotation = StreamRng(seed, kRanks);
  std::vector<std::uint32_t> writer_of_turn;
  std::uint32_t writer = static_cast<std::uint32_t>(rotation.below(kRanks));
  for (std::uint32_t t = 0; t < kChurnHandoffs; ++t) {
    writer_of_turn.push_back(writer);
    writer = (writer + 1 +
              static_cast<std::uint32_t>(rotation.below(kRanks - 1))) %
             kRanks;
  }
  std::vector<std::uint32_t> order(kChurnObjects);
  for (std::uint32_t w = 0; w < kRanks; ++w) {
    Rng rng = StreamRng(seed, w);
    std::vector<Op>& prog = s.workers[w].program;
    for (std::uint32_t t = 0; t < kChurnHandoffs; ++t) {
      for (std::uint32_t h = 0; h < kChurnHold; ++h) {
        if (writer_of_turn[t] == w) {
          // The incoming writer's first epoch is the phase transition: it
          // starts the adaptation-latency clock on the node homes should
          // now move toward.
          if (t > 0 && h == 0) prog.push_back({OpKind::kPhaseMark, 0, 0});
          for (std::uint32_t o = 0; o < kChurnObjects; ++o) order[o] = o;
          Shuffle(rng, order);
          for (std::uint32_t o : order)
            for (std::uint32_t k = 0; k < kChurnWritesPerObject; ++k)
              LockedWrite(prog, o, o);
        }
        prog.push_back({OpKind::kBarrier, 0, kRanks});
      }
    }
  }
  return s;
}

Scenario ReadShareTcp(std::uint64_t seed) {
  Scenario s = Skeleton("read_share_tcp", seed, kShareObjects, kShareBytes,
                        /*homes_spread=*/true);
  for (std::uint32_t i = 0; i < kShareObjects; ++i)
    s.lock_managers.push_back(i % kRanks);
  std::vector<std::uint32_t> reads;
  for (std::uint32_t k = 0; k < kShareReads; ++k)
    for (std::uint32_t o = 0; o < kShareObjects; ++o) reads.push_back(o);
  for (std::uint32_t w = 0; w < kRanks; ++w) {
    Rng rng = StreamRng(seed, w);
    std::vector<Op>& prog = s.workers[w].program;
    for (std::uint32_t r = 0; r < kShareRounds; ++r) {
      if (w == 0)
        for (std::uint32_t o = 0; o < kShareObjects; ++o)
          LockedWrite(prog, o, o, kShareDirty);
      prog.push_back({OpKind::kBarrier, 0, kRanks});
      Shuffle(rng, reads);
      for (std::uint32_t o : reads) prog.push_back({OpKind::kRead, o, 0});
      prog.push_back({OpKind::kBarrier, 0, kRanks});
    }
  }
  return s;
}

}  // namespace

const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> kWorkloads{
      {"hot_home", /*shm=*/true, HotHome},
      {"writer_churn", /*shm=*/true, WriterChurn},
      {"read_share_tcp", /*shm=*/false, ReadShareTcp},
  };
  return kWorkloads;
}

const Workload* FindWorkload(std::string_view name) {
  for (const Workload& w : Workloads())
    if (w.name == name) return &w;
  return nullptr;
}

std::string CheckOrderIndependent(const Scenario& s) {
  const std::size_t workers = s.workers.size();
  const std::size_t objects = s.objects.size();
  std::ostringstream why;

  // Barrier epochs line up only if every barrier waits for every worker
  // and every worker passes the same number of them.
  std::vector<std::vector<std::size_t>> epoch_end(workers);
  for (std::size_t w = 0; w < workers; ++w) {
    const std::vector<Op>& prog = s.workers[w].program;
    for (std::size_t i = 0; i < prog.size(); ++i) {
      if (prog[i].kind == OpKind::kDelay) {
        why << "worker " << w << " op " << i << " is a delay";
        return why.str();
      }
      if (prog[i].kind == OpKind::kBarrier) {
        if (prog[i].arg != workers) {
          why << "worker " << w << " op " << i << " is a barrier of "
              << prog[i].arg << " with " << workers << " workers";
          return why.str();
        }
        epoch_end[w].push_back(i);
      }
    }
    epoch_end[w].push_back(prog.size());
    if (epoch_end[w].size() != epoch_end[0].size()) {
      why << "worker " << w << " passes " << epoch_end[w].size() - 1
          << " barriers, worker 0 passes " << epoch_end[0].size() - 1;
      return why.str();
    }
  }

  const auto full = [&](const Op& op) {
    return op.arg == 0 || op.arg >= s.objects[op.id].bytes;
  };
  // tainted[o]: o's current contents depend on lock-arrival order.
  std::vector<bool> tainted(objects, false);
  std::vector<std::size_t> begin(workers, 0);
  for (std::size_t e = 0; e < epoch_end[0].size(); ++e) {
    std::vector<std::vector<bool>> writes(objects,
                                          std::vector<bool>(workers));
    std::vector<std::vector<bool>> full_writes = writes;
    for (std::size_t w = 0; w < workers; ++w)
      for (std::size_t i = begin[w]; i < epoch_end[w][e]; ++i) {
        const Op& op = s.workers[w].program[i];
        if (op.kind != OpKind::kWrite) continue;
        writes[op.id][w] = true;
        if (full(op)) full_writes[op.id][w] = true;
      }
    for (std::size_t w = 0; w < workers; ++w) {
      std::vector<bool> own_full(objects, false);
      for (std::size_t i = begin[w]; i < epoch_end[w][e]; ++i) {
        const Op& op = s.workers[w].program[i];
        if (op.kind == OpKind::kWrite && full(op)) own_full[op.id] = true;
        if (op.kind != OpKind::kRead) continue;
        for (std::size_t v = 0; v < workers; ++v)
          if (v != w && writes[op.id][v]) {
            why << "worker " << w << " reads object " << op.id << " in epoch "
                << e << " while worker " << v << " writes it";
            return why.str();
          }
        if (tainted[op.id] && !own_full[op.id]) {
          why << "worker " << w << " reads object " << op.id << " in epoch "
              << e << " after racing same-epoch writers";
          return why.str();
        }
      }
      begin[w] = epoch_end[w][e] + 1;
    }
    for (std::size_t o = 0; o < objects; ++o) {
      std::size_t writers = 0, full_writer = workers;
      for (std::size_t w = 0; w < workers; ++w) {
        writers += writes[o][w];
        if (full_writes[o][w]) full_writer = w;
      }
      if (writers > 1) tainted[o] = true;
      if (writers == 1 && full_writer < workers) tainted[o] = false;
    }
  }
  for (std::size_t o = 0; o < objects; ++o)
    if (tainted[o]) {
      why << "final contents of object " << o
          << " depend on lock-arrival order";
      return why.str();
    }
  return {};
}

}  // namespace hmdsm::meshbench
