// The threads execution backend behind the gos::Vm facade: every Spawn is a
// real std::thread entering the DSM through a runtime::Guest, Join is a
// real join, the clock is the wall clock, and Compute is a precise sleep.
//
// The paper apps exercise this through the exact source that runs on the
// simulator — the cross-backend app conformance suite asserts their
// checksums agree with both the sim backend and the serial references.
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "src/gos/guest_env.h"
#include "src/gos/vm.h"
#include "src/runtime/runtime.h"

namespace hmdsm::gos {
namespace {

class ThreadsThread final : public Thread {
 public:
  bool done() const override { return done_.load(std::memory_order_acquire); }

 private:
  friend class ThreadsBackend;
  std::thread th_;
  std::atomic<bool> done_{false};
  bool joined_ = false;          // guarded by ThreadsBackend::mu_
  std::exception_ptr error_;     // written before done_, read after join
};

runtime::RuntimeOptions ToRuntimeOptions(const VmOptions& o,
                                         trace::Trace* trace) {
  runtime::RuntimeOptions r;
  r.nodes = o.nodes;
  r.dsm = o.dsm;
  // Same policy parameterization as dsm::Cluster: the adaptive policy's α
  // tracks the configured interconnect model.
  r.dsm.adaptive.half_peak_bytes = o.model.half_peak_bytes();
  r.model = o.model;
  r.inject_latency_scale = o.inject_latency ? o.inject_scale : 0.0;
  r.trace = trace;
  return r;
}

class ThreadsBackend final : public VmBackend {
 public:
  ThreadsBackend(Vm& vm, const VmOptions& options)
      : vm_(vm), options_(options), rt_(ToRuntimeOptions(options, &trace_)) {
    // Enabled before any dispatcher can record: the runtime's agents exist
    // but traffic only flows once an application thread starts.
    if (!options_.trace_out.empty()) trace_.Enable();
    if (options_.poll_interval_s > 0)
      sampler_ = std::thread([this] { SamplerLoop(); });
  }

  ~ThreadsBackend() override {
    StopSampler();
    // Guests must all be done before the Runtime shuts its mailboxes.
    JoinStragglers(nullptr);
    if (!options_.trace_out.empty()) {
      rt_.AwaitQuiescence();  // no handler still appending events
      const stats::Timeseries series = rt_.Totals().Series();
      trace::WriteChromeTraceFile(options_.trace_out, trace_.events(),
                                  /*pid=*/0, "hmdsm threads", &series);
    }
  }

  std::size_t nodes() const override { return rt_.nodes(); }
  runtime::Runtime* runtime() override { return &rt_; }

  void Run(ThreadBody main) override {
    std::exception_ptr error;
    {
      // The calling thread is the application main thread, guesting on the
      // start node — the counterpart of the simulator's main process.
      runtime::Guest guest(rt_, options_.start_node, "main");
      GuestEnv env(vm_, guest);
      try {
        main(env);
      } catch (...) {
        error = std::current_exception();
      }
    }
    JoinStragglers(error ? nullptr : &error);
    // Settle follow-on traffic so a caller inspecting state after Run sees
    // the quiescent cluster (the kernel's natural end state on the sim).
    rt_.AwaitQuiescence();
    // Stop sampling here, not in the destructor, so the closing window is
    // already in the totals when the caller asks for Report().
    StopSampler();
    if (error) std::rethrow_exception(error);
  }

  Thread* Spawn(NodeId node, ThreadBody body, std::string name) override {
    HMDSM_CHECK(node < rt_.nodes());
    std::lock_guard lock(mu_);
    threads_.emplace_back();
    ThreadsThread* t = &threads_.back();
    if (name.empty()) name = "thread" + std::to_string(next_thread_idx_);
    ++next_thread_idx_;
    name += "@n" + std::to_string(node);
    t->th_ = std::thread(
        [this, t, node, name, body = std::move(body)] {
          runtime::Guest guest(rt_, node, name);
          GuestEnv env(vm_, guest, t);
          try {
            body(env);
          } catch (...) {
            t->error_ = std::current_exception();
          }
          t->done_.store(true, std::memory_order_release);
        });
    return t;
  }

  void Join(Env&, Thread* thread) override {
    HMDSM_CHECK(thread != nullptr);
    auto* t = static_cast<ThreadsThread*>(thread);
    bool owner = false;
    {
      std::lock_guard lock(mu_);
      if (!t->joined_) t->joined_ = owner = true;
    }
    if (owner) {
      t->th_.join();
      if (t->error_) std::rethrow_exception(t->error_);
      return;
    }
    // A concurrent second joiner still blocks until completion (the sim
    // backend wakes every joiner); the owning call does the actual join.
    while (!t->done()) std::this_thread::yield();
  }

  void Quiesce(Env&) override { rt_.AwaitQuiescence(); }

  ObjectId CreateObject(Env& env, NodeId home, ByteSpan initial) override {
    ObjectId id;
    {
      // The id counters are plain (shared with the single-threaded sim
      // sequence); apps may create objects from concurrent workers.
      std::lock_guard lock(mu_);
      id = rt_.NewObjectId(home, env.node());
    }
    AsThreads(env).guest().CreateObject(id, initial);
    return id;
  }

  LockId CreateLock(NodeId manager) override {
    std::lock_guard lock(mu_);
    return rt_.NewLockId(manager);
  }
  BarrierId CreateBarrier(NodeId manager) override {
    std::lock_guard lock(mu_);
    return rt_.NewBarrierId(manager);
  }

  void ResetMeasurement() override { rt_.ResetMeasurement(); }
  double ElapsedSeconds() const override { return rt_.ElapsedSeconds(); }
  RunReport Report() override {
    RunReport r = MakeRunReport(rt_.Totals(), rt_.ElapsedSeconds());
    r.hol_inherited = rt_.transport().hol_inherited();
    return r;
  }

 private:
  /// Every Env this backend hands out is a GuestEnv.
  static GuestEnv& AsThreads(Env& env) {
    return static_cast<GuestEnv&>(env);
  }

  /// Joins every thread the application left unjoined. With `error` set,
  /// the first stored worker exception is moved into it.
  void JoinStragglers(std::exception_ptr* error) {
    std::vector<ThreadsThread*> pending;
    {
      std::lock_guard lock(mu_);
      for (ThreadsThread& t : threads_)
        if (!t.joined_) {
          t.joined_ = true;
          pending.push_back(&t);
        }
    }
    for (ThreadsThread* t : pending) {
      t->th_.join();
      if (error != nullptr && *error == nullptr && t->error_)
        *error = t->error_;
    }
  }

  /// Wall-clock sampler: closes one time-series window per hosted node at
  /// the poll interval until stopped.
  void SamplerLoop() {
    const auto interval =
        std::chrono::duration<double>(options_.poll_interval_s);
    std::unique_lock lock(sampler_mu_);
    for (;;) {
      if (sampler_cv_.wait_for(lock, interval,
                               [this] { return sampler_stop_; }))
        return;
      rt_.SampleTimeseries();
    }
  }

  /// Idempotent; closes one final window so short runs still get a sample.
  void StopSampler() {
    if (!sampler_.joinable()) return;
    {
      std::lock_guard lock(sampler_mu_);
      sampler_stop_ = true;
    }
    sampler_cv_.notify_all();
    sampler_.join();
    rt_.SampleTimeseries();
  }

  Vm& vm_;
  VmOptions options_;
  trace::Trace trace_;  // must outlive rt_ (agents hold a pointer)
  runtime::Runtime rt_;
  std::mutex mu_;  // spawn bookkeeping + id sequences
  std::deque<ThreadsThread> threads_;
  int next_thread_idx_ = 0;
  std::thread sampler_;
  std::mutex sampler_mu_;
  std::condition_variable sampler_cv_;
  bool sampler_stop_ = false;  // guarded by sampler_mu_
};

}  // namespace

std::unique_ptr<VmBackend> MakeThreadsVmBackend(Vm& vm,
                                                const VmOptions& options) {
  return std::make_unique<ThreadsBackend>(vm, options);
}

}  // namespace hmdsm::gos
