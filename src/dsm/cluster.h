// Cluster: kernel + network + one DSM agent per node, wired together.
#pragma once

#include <memory>
#include <vector>

#include "src/dsm/agent.h"
#include "src/dsm/config.h"
#include "src/net/hockney.h"
#include "src/net/network.h"
#include "src/sim/kernel.h"
#include "src/stats/stats.h"

namespace hmdsm::dsm {

struct ClusterOptions {
  std::size_t nodes = 8;
  net::HockneyModel model{70.0, 12.5};
  DsmConfig dsm;
};

/// A simulated cluster running the home-based DSM on every node.
class Cluster {
 public:
  explicit Cluster(ClusterOptions options);

  std::size_t nodes() const { return agents_.size(); }
  sim::Kernel& kernel() { return kernel_; }
  const sim::Kernel& kernel() const { return kernel_; }
  net::Network& network() { return network_; }
  /// Node-local statistics (each node records under its own serialization).
  stats::Recorder& recorder(NodeId node) { return network_.RecorderFor(node); }
  const stats::Recorder& recorder(NodeId node) const {
    return network_.RecorderFor(node);
  }
  /// Run totals: all per-node recorders merged.
  stats::Recorder Totals() const { return network_.Totals(); }
  /// Zeroes every per-node recorder (start of a measured window).
  void ResetStats() { network_.ResetStats(); }
  /// Protocol event trace (disabled unless Trace::Enable is called).
  trace::Trace& trace() { return trace_; }
  const trace::Trace& trace() const { return trace_; }
  Agent& agent(NodeId node) {
    HMDSM_CHECK(node < agents_.size());
    return *agents_[node];
  }
  const ClusterOptions& options() const { return options_; }

  /// Fresh identifiers. Ids are allocated centrally (deterministic); the
  /// encoded home/manager node is what matters to the protocol.
  ObjectId NewObjectId(NodeId initial_home, NodeId creator);
  LockId NewLockId(NodeId manager);
  BarrierId NewBarrierId(NodeId manager);

 private:
  ClusterOptions options_;
  sim::Kernel kernel_;
  trace::Trace trace_;
  net::Network network_;
  std::vector<std::unique_ptr<Agent>> agents_;
  std::uint32_t next_object_seq_ = 1;
  std::uint64_t next_lock_seq_ = 1;
  std::uint64_t next_barrier_seq_ = 1;
};

}  // namespace hmdsm::dsm
