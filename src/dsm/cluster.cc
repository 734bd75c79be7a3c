#include "src/dsm/cluster.h"

namespace hmdsm::dsm {

namespace {
ClusterOptions Finalize(ClusterOptions options) {
  HMDSM_CHECK_MSG(options.nodes >= 1 && options.nodes <= 0x10000,
                  "node count out of range");
  // Keep the adaptive policy's α consistent with the simulated interconnect.
  options.dsm.adaptive.half_peak_bytes = options.model.half_peak_bytes();
  return options;
}
}  // namespace

Cluster::Cluster(ClusterOptions options)
    : options_(Finalize(std::move(options))),
      network_(kernel_, options_.model, options_.nodes) {
  agents_.reserve(options_.nodes);
  for (NodeId n = 0; n < options_.nodes; ++n) {
    agents_.push_back(
        std::make_unique<Agent>(n, network_, options_.dsm, &trace_));
  }
}

ObjectId Cluster::NewObjectId(NodeId initial_home, NodeId creator) {
  return ObjectId::Make(initial_home, creator, next_object_seq_++);
}

LockId Cluster::NewLockId(NodeId manager) {
  return LockId::Make(manager, next_lock_seq_++);
}

BarrierId Cluster::NewBarrierId(NodeId manager) {
  return BarrierId::Make(manager, next_barrier_seq_++);
}

}  // namespace hmdsm::dsm
