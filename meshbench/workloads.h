// The benchmark's three seeded workloads and the determinism rule they obey.
//
// Each workload is a generator from a seed to a workload::Scenario for a
// 4-rank mesh with one closed-loop worker per rank (worker w runs on rank
// w and starts its next op only when the previous one returns). The seed
// picks the access stream itself — which object each update hits, who
// writes next, in what order objects are re-read — not just timing. No
// generator emits kDelay: on the mesh a delay is a real sleep, which would
// measure the clock instead of the protocol.
//
// Why these three (README.md has the layer map):
//   hot_home        — every update goes through one home's agent, lock
//                     manager and mailbox (the serialization wall).
//   writer_churn    — a sole writer hands off in a seeded rotation, so
//                     homes must follow it: policy, migration, forwarding
//                     chains and redirect hops do most of the work.
//   read_share_tcp  — large objects re-read beside small writes with shm
//                     off: loads the TCP reactor, batching and wire deltas.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/workload/scenario.h"

namespace hmdsm::meshbench {

/// Ranks (= OS processes = workers) of every benchmark mesh.
inline constexpr std::uint32_t kRanks = 4;

struct Workload {
  std::string_view name;
  /// Same-host data frames ride the shm rings; false sends every data
  /// frame across the loopback TCP reactor.
  bool shm = true;
  workload::Scenario (*generate)(std::uint64_t seed) = nullptr;
};

const std::vector<Workload>& Workloads();

/// Null when `name` is not a workload.
const Workload* FindWorkload(std::string_view name);

/// Empty when every value a worker reads, and every object's final
/// contents, are fixed by program order and barriers alone — so a mesh run
/// must produce the sim's digest. Otherwise a description of the first
/// violation: a kDelay op, workers with different barrier counts (epochs
/// would not line up), a read of an object another worker writes in the
/// same barrier epoch, or a read (or final contents) whose value depends on
/// which of several same-epoch writers took the lock last.
std::string CheckOrderIndependent(const workload::Scenario& s);

}  // namespace hmdsm::meshbench
