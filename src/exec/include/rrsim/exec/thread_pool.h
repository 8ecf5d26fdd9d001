// Fixed-size worker pool for campaign-level parallelism. The pool is
// deliberately simple: a locked FIFO of type-erased tasks and N worker
// threads. Determinism is not the pool's job — callers that need
// reproducible results must make each task independent and reduce task
// outputs in a fixed order (see rrsim/exec/sweep_runner.h).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "rrsim/util/inline_fn.h"

namespace rrsim::exec {

/// A fixed set of worker threads draining a shared task queue. Tasks may
/// not submit to the pool they run on from within wait_idle()'s critical
/// window and must not throw out of the pool (wrap work that can throw —
/// parallel_for_each below does this for you).
class ThreadPool {
 public:
  /// Spawns `threads` workers (clamped to >= 1).
  explicit ThreadPool(int threads);

  /// Drains outstanding tasks, then joins all workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task. Tasks run in FIFO claim order but complete in any
  /// order. Must not be called after shutdown began (i.e. from the
  /// destructor's drain). The task type is move-only with a small-buffer
  /// optimization, so typical campaign tasks (a few captured pointers and
  /// indices) enqueue without allocating and may own move-only state.
  void submit(util::TaskFunction task);

  /// Pre-sizes the task ring for `n` outstanding tasks, so a burst of
  /// that many submits never regrows the queue mid-campaign.
  void reserve(std::size_t n);

  /// Blocks until the queue is empty and every worker is idle.
  void wait_idle();

  /// Number of worker threads.
  int size() const noexcept { return static_cast<int>(workers_.size()); }

 private:
  void worker_loop();

  /// Regrows the ring to at least `min_cap` slots (power of two),
  /// preserving FIFO order. Caller holds mu_.
  void grow_ring(std::size_t min_cap);

  std::mutex mu_;
  std::condition_variable task_cv_;  // signalled when tasks arrive / stop
  std::condition_variable idle_cv_;  // signalled when a worker goes idle
  /// FIFO task queue as a circular buffer over one flat allocation
  /// (power-of-two capacity). Replaces std::deque: no chunk allocation
  /// per enqueue burst, and the storage is reused for the whole campaign.
  std::vector<util::TaskFunction> ring_;
  std::size_t ring_head_ = 0;   // index of the oldest task
  std::size_t ring_count_ = 0;  // tasks currently queued
  std::vector<std::thread> workers_;
  std::size_t active_ = 0;  // workers currently running a task
  bool stop_ = false;
};

/// Runs `fn(i)` for every i in [0, n) on the pool and blocks until all
/// calls finished. Exceptions are captured per index; after completion the
/// exception of the *lowest* failing index is rethrown, so error reporting
/// is deterministic regardless of completion order.
template <typename Fn>
void parallel_for_each(ThreadPool& pool, int n, Fn&& fn) {
  if (n <= 0) return;
  struct Sync {
    std::mutex mu;
    std::condition_variable cv;
    int remaining;
  };
  auto sync = std::make_shared<Sync>();
  sync->remaining = n;
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    pool.submit([sync, i, &errors, &fn] {
      try {
        fn(i);
      } catch (...) {
        errors[static_cast<std::size_t>(i)] = std::current_exception();
      }
      std::lock_guard<std::mutex> lock(sync->mu);
      if (--sync->remaining == 0) sync->cv.notify_all();
    });
  }
  std::unique_lock<std::mutex> lock(sync->mu);
  sync->cv.wait(lock, [&] { return sync->remaining == 0; });
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

}  // namespace rrsim::exec
