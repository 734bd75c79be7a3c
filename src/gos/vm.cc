#include "src/gos/vm.h"

#include "src/runtime/runtime.h"

namespace hmdsm::gos {

std::string_view BackendName(Backend backend) {
  switch (backend) {
    case Backend::kSim: return "sim";
    case Backend::kThreads: return "threads";
    case Backend::kSockets: return "sockets";
  }
  return "?";
}

std::string ValidateBackendRequest(Backend backend, std::string_view app,
                                   bool record, bool inject_latency) {
  (void)app;  // every app (asp/sor/nbody/tsp/synthetic/scenario) runs on
              // every backend since the Vm became a backend facade
  if (backend == Backend::kSim && inject_latency) {
    return "--inject-latency needs --backend=threads: the simulator already "
           "prices every message with the Hockney model in virtual time";
  }
  if (backend == Backend::kSockets && inject_latency) {
    return "--inject-latency needs --backend=threads: the sockets backend "
           "pays real network latency on every message";
  }
  if (backend != Backend::kSim && record) {
    return "--record needs --backend=sim: a trace captured under "
           "real-thread timing is not a reproducible access stream";
  }
  return {};
}

HistSummary Summarize(const stats::Histogram& h) {
  HistSummary s;
  s.count = h.count();
  s.mean = h.Mean();
  s.p50 = h.P50();
  s.p95 = h.P95();
  s.p99 = h.P99();
  s.max = h.max();
  return s;
}

RunReport MakeRunReport(const stats::Recorder& rec, double seconds) {
  RunReport report;
  report.seconds = seconds;
  report.messages = rec.TotalMessages(true);
  report.messages_nosync = rec.TotalMessages(false);
  report.bytes = rec.TotalBytes(true);
  report.bytes_nosync = rec.TotalBytes(false);
  for (std::size_t i = 0; i < stats::kNumMsgCats; ++i)
    report.cat[i] = rec.Cat(static_cast<stats::MsgCat>(i));
  report.migrations = rec.Count(stats::Ev::kMigrations);
  report.mig_rejections = rec.Count(stats::Ev::kMigRejections);
  report.redirect_hops = rec.Count(stats::Ev::kRedirectHops);
  report.diffs_created = rec.Count(stats::Ev::kDiffsCreated);
  report.exclusive_home_writes = rec.Count(stats::Ev::kExclusiveHomeWrites);
  report.fault_ins = rec.Count(stats::Ev::kFaultIns);
  const stats::MsgTotals sent = rec.TotalSent();
  const stats::MsgTotals received = rec.TotalReceived();
  report.sent_messages = sent.messages;
  report.sent_bytes = sent.bytes;
  report.received_messages = received.messages;
  report.received_bytes = received.bytes;
  report.socket_writes = rec.Count(stats::Ev::kSocketWrites);
  report.wire_frames = rec.Count(stats::Ev::kWireFramesEnqueued);
  report.wire_frames_coalesced = rec.Count(stats::Ev::kWireFramesCoalesced);
  report.shm_msgs = rec.Count(stats::Ev::kShmMsgs);
  report.mailbox_overflow_allocs =
      rec.Count(stats::Ev::kMailboxOverflowAllocs);
  report.rx_buffer_allocs = rec.Count(stats::Ev::kRxBufferAllocs);
  for (std::size_t i = 0; i < stats::kNumMsgCats; ++i)
    report.rtt[i] = Summarize(rec.Rtt(static_cast<stats::MsgCat>(i)));
  report.mailbox_dwell = Summarize(rec.Latency(stats::Lat::kMailboxDwell));
  report.socket_write_ns = Summarize(rec.Latency(stats::Lat::kSocketWrite));
  report.migration_first_access =
      Summarize(rec.Latency(stats::Lat::kMigFirstAccess));
  report.adaptation = Summarize(rec.Latency(stats::Lat::kAdaptation));
  report.ledger = rec.Ledger();
  report.series = rec.Series();
  return report;
}

Vm::Vm(VmOptions options) : options_(options) {
  HMDSM_CHECK(options_.start_node < options_.nodes);
  switch (options_.backend) {
    case Backend::kSim:
      impl_ = MakeSimVmBackend(*this, options_);
      break;
    case Backend::kThreads:
      impl_ = MakeThreadsVmBackend(*this, options_);
      break;
    case Backend::kSockets:
      impl_ = MakeSocketsVmBackend(*this, options_);
      break;
  }
  HMDSM_CHECK(impl_ != nullptr);
}

Vm::~Vm() = default;

dsm::Cluster& Vm::cluster() {
  dsm::Cluster* c = impl_->cluster();
  HMDSM_CHECK_MSG(c != nullptr, "Vm::cluster() is sim-backend only");
  return *c;
}

runtime::Runtime& Vm::runtime() {
  runtime::Runtime* rt = impl_->runtime();
  HMDSM_CHECK_MSG(rt != nullptr, "Vm::runtime() is threads-backend only");
  return *rt;
}

}  // namespace hmdsm::gos
