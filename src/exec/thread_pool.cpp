#include "rrsim/exec/thread_pool.h"

namespace rrsim::exec {

ThreadPool::ThreadPool(int threads) {
  const int n = threads < 1 ? 1 : threads;
  workers_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  start_cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::run(int n, Body body, void* ctx) {
  std::unique_lock<std::mutex> lock(mu_);
  body_ = body;
  ctx_ = ctx;
  n_ = n;
  next_ = 0;
  busy_ = size();
  ++generation_;
  start_cv_.notify_all();
  done_cv_.wait(lock, [this] { return busy_ == 0; });
}

void ThreadPool::worker_loop() {
  std::uint64_t seen = 0;
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    start_cv_.wait(lock, [&] { return stop_ || generation_ != seen; });
    if (stop_) return;
    seen = generation_;
    const Body body = body_;
    void* const ctx = ctx_;
    const int n = n_;
    lock.unlock();
    // One shared counter: indices are claimed in ascending order, and an
    // index is claimed by exactly one worker.
    for (int i = next_++; i < n; i = next_++) body(ctx, i);
    lock.lock();
    if (--busy_ == 0) done_cv_.notify_one();
  }
}

}  // namespace rrsim::exec
