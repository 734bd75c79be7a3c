#include "src/workload/runner.h"

#include <algorithm>
#include <exception>
#include <memory>
#include <optional>
#include <vector>

#include "src/util/bytes.h"
#include "src/util/fnv.h"
#include "src/util/serde.h"
#include "src/workload/recorder.h"

namespace hmdsm::workload {

// One driver for both backends: the gos::Vm facade hides whether workers
// are simulated processes or real std::threads, and the AgentShim issues
// bit-identical op semantics either way. The run reaches quiescence (all
// in-flight protocol messages drained and handled) before the report and
// the final-contents digest are taken: workers may finish with
// unacknowledged traffic still in flight (a release's piggybacked diff, a
// notification broadcast), and the digest must see the settled state — the
// same state on both backends, which is what makes the checksum a
// cross-backend data-integrity witness.
ScenarioResult RunScenario(const gos::VmOptions& vm_options,
                           const Scenario& scenario, bool record) {
  ValidateScenario(scenario);

  gos::VmOptions options = vm_options;
  options.nodes = std::max<std::size_t>(options.nodes, scenario.nodes);

  gos::Vm vm(options);
  ScenarioResult result;
  std::optional<TraceRecorder> recorder;
  if (record) recorder.emplace(scenario);

  vm.Run([&](gos::Env& env) {
    Bindings bindings;
    for (const ObjectSpec& o : scenario.objects)
      bindings.objects.push_back(
          vm.CreateObject(env, o.home, ZeroBytes(o.bytes)));
    for (NodeId m : scenario.lock_managers)
      bindings.locks.push_back(vm.CreateLock(m));
    for (NodeId m : scenario.barrier_managers)
      bindings.barriers.push_back(vm.CreateBarrier(m));

    vm.ResetMeasurement();

    // Each worker owns its shim and publishes (ops, read checksum) as its
    // thread result — on the sockets backend the shim lives in the
    // worker's process, so the result rides the completion frame back to
    // the reporting rank; on the in-process backends Join alone gives the
    // happens-before edge.
    std::vector<gos::Thread*> threads;
    for (std::uint32_t w = 0; w < scenario.workers.size(); ++w) {
      const WorkerSpec& spec = scenario.workers[w];
      threads.push_back(vm.Spawn(
          spec.node,
          [&, w](gos::Env& me) {
            AgentShim shim(me, bindings, w, recorder ? &*recorder : nullptr);
            for (const Op& op : scenario.workers[w].program)
              shim.Execute(op);
            Writer res;
            res.u64(shim.ops_executed());
            res.u64(shim.read_checksum());
            me.PublishResult(res.take());
          },
          spec.name.empty() ? "w" + std::to_string(w) : spec.name));
    }
    // Join every worker before rethrowing the first failure: the others
    // still read `bindings`, which dies with this frame.
    std::exception_ptr error;
    for (gos::Thread* t : threads) {
      try {
        vm.Join(env, t);
      } catch (...) {
        if (!error) error = std::current_exception();
      }
    }
    if (error) std::rethrow_exception(error);
    // Settle in-flight traffic (final releases' piggybacked diffs,
    // notification broadcasts) before reporting and digesting, so the
    // final-contents digest is backend-independent.
    vm.Quiesce(env);

    result.report = vm.Report();

    // Digest: per-worker read checksums combined in worker order, then the
    // final contents of every object (read outside the measured window).
    // Only the reporting rank can compute it — ghost replicas' reads and
    // thread results are empty by design.
    if (!vm.reporting()) return;
    std::uint64_t digest = kFnvOffsetBasis;
    for (gos::Thread* t : threads) {
      Reader res(t->result());
      result.ops_executed += res.u64();
      digest = FnvFold64(digest, res.u64());
    }
    for (gos::ObjectId obj : bindings.objects)
      env.Read(obj, [&](ByteSpan bytes) {
        for (Byte b : bytes) digest = FnvFold(digest, b);
      });
    result.checksum = digest;
  });

  if (recorder) result.recorded = recorder->trace();
  return result;
}

ScenarioResult ReplayTraceFile(const gos::VmOptions& vm_options,
                               const std::string& path, bool record) {
  return RunScenario(vm_options, LoadScenario(path), record);
}

}  // namespace hmdsm::workload
