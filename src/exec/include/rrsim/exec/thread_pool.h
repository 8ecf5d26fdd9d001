// Fixed-size fork-join worker pool shared by both parallel layers: the
// sweep engine (rrsim/exec/sweep_runner.h) and the PDES window executor
// (rrsim/exec/pdes.h). The pool runs one loop at a time and nothing else:
// parallel_for_each publishes a body and an index count, the workers
// claim indices from one counter, and the call returns once every worker
// has left the loop. Determinism is not the pool's job — callers that need
// reproducible results must make each index independent and reduce the
// outputs in a fixed order.
#pragma once

#include <atomic>
#include <climits>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace rrsim::exec {

class ThreadPool;

/// Runs `fn(i)` for every i in [0, n) on the pool and blocks until all
/// calls finished. Workers claim indices in ascending order. Every index
/// runs even when some throw; after completion the exception of the
/// *lowest* failing index is rethrown, so error reporting is deterministic
/// regardless of completion order. Loops on one pool must not overlap
/// (call from one thread, never from inside a loop body).
template <typename Fn>
void parallel_for_each(ThreadPool& pool, int n, Fn&& fn);

/// A fixed set of worker threads that run one parallel_for_each loop at a
/// time. Between loops the workers sleep on the pool's condition variable.
class ThreadPool {
 public:
  /// Spawns `threads` workers (clamped to >= 1).
  explicit ThreadPool(int threads);

  /// Joins all workers. No loop can be in progress: loops block their
  /// caller until done.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of worker threads.
  int size() const noexcept { return static_cast<int>(workers_.size()); }

 private:
  template <typename Fn>
  friend void parallel_for_each(ThreadPool& pool, int n, Fn&& fn);

  using Body = void (*)(void* ctx, int i);

  /// Publishes (body, ctx, n) and blocks until every worker has left the
  /// loop. `body` must not throw.
  void run(int n, Body body, void* ctx);

  void worker_loop();

  std::mutex mu_;
  std::condition_variable start_cv_;  // a loop was published, or stop
  std::condition_variable done_cv_;   // the last worker left the loop
  // The published loop; read by workers under mu_ when they wake.
  Body body_ = nullptr;
  void* ctx_ = nullptr;
  int n_ = 0;
  std::uint64_t generation_ = 0;  // bumped once per published loop
  int busy_ = 0;                  // workers that have not left the loop
  bool stop_ = false;
  std::atomic<int> next_{0};  // next unclaimed index
  std::vector<std::thread> workers_;
};

template <typename Fn>
void parallel_for_each(ThreadPool& pool, int n, Fn&& fn) {
  if (n <= 0) return;
  struct Loop {
    std::remove_reference_t<Fn>& fn;
    std::mutex mu{};
    int failed_at = INT_MAX;  // lowest failing index so far
    std::exception_ptr error{};
  } loop{fn};
  pool.run(n,
           [](void* ctx, int i) {
             Loop& l = *static_cast<Loop*>(ctx);
             try {
               l.fn(i);
             } catch (...) {
               std::lock_guard<std::mutex> lock(l.mu);
               if (i < l.failed_at) {
                 l.failed_at = i;
                 l.error = std::current_exception();
               }
             }
           },
           &loop);
  if (loop.error) std::rethrow_exception(loop.error);
}

}  // namespace rrsim::exec
