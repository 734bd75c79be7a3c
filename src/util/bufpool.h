// BufferPool — a bounded freelist of frame-sized receive buffers.
//
// The socket and shared-memory receive paths used to allocate one exact-size
// Bytes per inbound frame, hand it to a Buf, and free it when the last
// payload view dropped. Under steady protocol traffic that is two heap
// round-trips per message (the data vector and its shared owner). The pool
// removes the dominant one: frame storage is checked out as a Box, filled
// from the wire, wrapped into a Buf whose owner *returns the storage to the
// pool* when the final reference drops, and handed out again for the next
// frame with its capacity intact. Steady state performs zero data-buffer
// allocations; buffer_allocs() counts the misses (pool cold, pool exhausted
// under burst, or a frame larger than any pooled capacity) so a bench can
// assert the claim instead of trusting it.
//
// Concurrency: Acquire/Wrap may be called from any thread; the freelist is
// mutex-guarded (uncontended in practice — a process's reactor threads and
// its shm-draining dispatcher fill it, consumers only touch it through the
// deleter when a payload dies). The pool may be destroyed while wrapped Bufs are still alive:
// deleters share ownership of the freelist state and simply free the
// storage once the pool itself is gone or full.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "src/util/bytes.h"

namespace hmdsm {

class BufferPool {
 public:
  /// A checked-out frame buffer: heap-stable so the wrap step never moves
  /// the bytes a reader already wrote into it.
  using Box = std::unique_ptr<Bytes>;

  explicit BufferPool(std::size_t max_pooled = 64)
      : state_(std::make_shared<State>(max_pooled)) {}

  /// A buffer resized to `size`, reusing pooled capacity when available.
  Box Acquire(std::size_t size) {
    Box box;
    {
      std::lock_guard lock(state_->mu);
      if (!state_->free.empty()) {
        box = std::move(state_->free.back());
        state_->free.pop_back();
      }
    }
    if (box == nullptr) {
      state_->allocs.fetch_add(1, std::memory_order_relaxed);
      box = std::make_unique<Bytes>(size);
      return box;
    }
    if (box->capacity() < size)
      state_->allocs.fetch_add(1, std::memory_order_relaxed);
    box->resize(size);
    return box;
  }

  /// Wraps a filled buffer into a Buf whose storage returns here when the
  /// last reference drops. Small frames re-inline, so the box is recycled
  /// immediately instead of being pinned by a tiny payload.
  Buf Wrap(Box box) {
    if (box == nullptr) return Buf();
    if (box->size() <= Buf::kInlineCapacity) {
      Buf b = Buf::Copy(ByteSpan(*box));
      Recycle(state_, std::move(box));
      return b;
    }
    Bytes* raw = box.release();
    return Buf::Adopt(std::shared_ptr<const Bytes>(
        raw, [state = state_](const Bytes* p) {
          Recycle(state, Box(const_cast<Bytes*>(p)));
        }));
  }

  /// Data-buffer heap allocations so far (freelist misses). A warmed-up
  /// receive path holds this flat — the pool's whole reason to exist.
  std::uint64_t buffer_allocs() const {
    return state_->allocs.load(std::memory_order_relaxed);
  }

 private:
  struct State {
    explicit State(std::size_t max) : max_pooled(max) {}
    std::mutex mu;
    std::vector<Box> free;
    const std::size_t max_pooled;
    std::atomic<std::uint64_t> allocs{0};
  };

  static void Recycle(const std::shared_ptr<State>& state, Box box) {
    std::lock_guard lock(state->mu);
    if (state->free.size() < state->max_pooled)
      state->free.push_back(std::move(box));
    // Pool full: the box frees on scope exit — the bound is the point.
  }

  std::shared_ptr<State> state_;
};

}  // namespace hmdsm
