#include "src/runtime/channel.h"

#include <thread>
#include <utility>

namespace hmdsm::runtime {

void PreciseSleepFor(sim::Time dt) {
  if (dt <= 0) return;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::nanoseconds(dt);
  // Leave the typical coarse-sleep overshoot as spin margin.
  constexpr sim::Time kSpinMarginNs = 150'000;
  if (dt > kSpinMarginNs)
    std::this_thread::sleep_for(std::chrono::nanoseconds(dt - kSpinMarginNs));
  while (std::chrono::steady_clock::now() < deadline)
    std::this_thread::yield();
}

ChannelTransport::ChannelTransport(std::size_t node_count)
    : channels_(node_count),
      overflow_alloc_base_(node_count, 0),
      handlers_(node_count),
      recorders_(node_count),
      epoch_(std::chrono::steady_clock::now()) {
  for (stats::Recorder& r : recorders_) r.SetNodeCount(node_count);
}

void ChannelTransport::ResetStats() {
  MailboxTransport::ResetStats();
  for (std::size_t n = 0; n < channels_.size(); ++n)
    overflow_alloc_base_[n] = channels_[n].overflow_allocs();
}

void ChannelTransport::AugmentSnapshot(NodeId node,
                                       stats::Recorder& into) const {
  if (node >= channels_.size()) return;
  into.Bump(stats::Ev::kMailboxOverflowAllocs,
            channels_[node].overflow_allocs() - overflow_alloc_base_[node]);
}

void ChannelTransport::Send(NodeId src, NodeId dst, stats::MsgCat cat,
                            Buf payload) {
  HMDSM_CHECK(src < channels_.size() && dst < channels_.size());
  const std::size_t wire_bytes = payload.size() + kHeaderBytes;
  net::Packet packet{src, dst, cat, std::move(payload)};
  packet.enqueued_at = Now();
  if (src != dst) {
    recorders_[src].RecordMessage(cat, wire_bytes);
    recorders_[src].RecordSent(src, wire_bytes);
    packets_sent_.fetch_add(1, std::memory_order_acq_rel);
    if (inject_scale_ > 0) {
      // Self-sends stay immediate, matching the sim's free local delivery.
      packet.deliver_after =
          Now() + static_cast<sim::Time>(
                      static_cast<double>(inject_model_.Latency(wire_bytes)) *
                      inject_scale_);
    }
  }
  // Count before the push: once the packet is visible to the dispatcher,
  // enqueued() must already cover it, or AwaitQuiescence could observe
  // enqueued == dispatched with a packet still in flight.
  enqueued_.fetch_add(1, std::memory_order_acq_rel);
  channels_[dst].Push(std::move(packet));
}

void ChannelTransport::Dispatch(net::Packet&& packet) {
  Handler& handler = handlers_[packet.dst];
  HMDSM_CHECK_MSG(handler, "no handler registered for node " << packet.dst);
  if (packet.src != packet.dst) {
    recorders_[packet.dst].RecordReceived(
        packet.dst, packet.payload.size() + kHeaderBytes);
  }
  if (packet.enqueued_at > 0) {
    const sim::Time age = Now() - packet.enqueued_at;
    recorders_[packet.dst].RecordLatency(
        stats::Lat::kMailboxDwell,
        static_cast<std::uint64_t>(age > 0 ? age : 0));
  }
  handler(std::move(packet));
  // After the handler: anything it sent has already bumped enqueued_.
  dispatched_.fetch_add(1, std::memory_order_acq_rel);
}

}  // namespace hmdsm::runtime
