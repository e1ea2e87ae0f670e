// Minimal fixed-size thread pool used to farm out independent simulation
// work items (tournament encounters, performance runs). Results must not
// depend on scheduling: callers seed each work item independently (see
// Rng::derive) and write to disjoint output slots.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <utility>
#include <vector>

namespace dsa::util {

/// Fixed pool of worker threads executing void() jobs FIFO.
class ThreadPool {
 public:
  /// Spawns `threads` workers (at least one). Defaults to the hardware
  /// concurrency, which may be 1 on constrained machines.
  explicit ThreadPool(std::size_t threads = default_thread_count()) {
    if (threads == 0) threads = 1;
    workers_.reserve(threads);
    for (std::size_t i = 0; i < threads; ++i) {
      workers_.emplace_back([this] { worker_loop(); });
    }
  }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  ~ThreadPool() {
    {
      std::lock_guard lock(mutex_);
      stopping_ = true;
    }
    work_available_.notify_all();
    for (auto& worker : workers_) worker.join();
  }

  /// Enqueues a job. Must not be called after destruction has begun.
  void submit(std::function<void()> job) {
    {
      std::lock_guard lock(mutex_);
      jobs_.push(std::move(job));
      ++pending_;
    }
    work_available_.notify_one();
  }

  /// Blocks until every submitted job has finished executing. If any job
  /// threw, rethrows the first captured exception (later ones are dropped)
  /// and clears it so the pool stays usable.
  void wait_idle() {
    std::unique_lock lock(mutex_);
    idle_.wait(lock, [this] { return pending_ == 0; });
    if (first_error_) {
      std::exception_ptr error = std::exchange(first_error_, nullptr);
      lock.unlock();
      std::rethrow_exception(error);
    }
  }

  [[nodiscard]] std::size_t thread_count() const noexcept {
    return workers_.size();
  }

  /// Jobs submitted but not yet finished (queued + executing). Lock-free and
  /// approximate by nature — meant for observers (telemetry queue-depth
  /// gauges), not for synchronization; use wait_idle() for that.
  [[nodiscard]] std::size_t pending_jobs() const noexcept {
    return pending_.load(std::memory_order_relaxed);
  }

  /// Hardware concurrency with a floor of one.
  static std::size_t default_thread_count() noexcept {
    const unsigned n = std::thread::hardware_concurrency();
    return n == 0 ? 1 : n;
  }

  /// Convenience: runs fn(i) for i in [0, count) across the pool and waits.
  /// fn must be safe to invoke concurrently for distinct indices. Workers
  /// grab `grain` consecutive indices per atomic increment, so cheap work
  /// items (e.g. flattened per-run simulation tasks) amortize the shared
  /// counter instead of contending on it; grain 1 preserves the original
  /// one-index-at-a-time behavior. If any invocation throws, the rest of
  /// that chunk is skipped, other chunks still run, and the first exception
  /// is rethrown here after the lanes drain.
  template <typename Fn>
  void parallel_for(std::size_t count, Fn&& fn, std::size_t grain = 1) {
    if (count == 0) return;
    if (grain == 0) grain = 1;
    if (thread_count() == 1) {
      // Avoid queueing overhead entirely on single-core machines.
      for (std::size_t i = 0; i < count; ++i) fn(i);
      return;
    }
    std::atomic<std::size_t> next{0};
    const std::size_t chunks = (count + grain - 1) / grain;
    const std::size_t lanes = std::min(thread_count(), chunks);
    for (std::size_t lane = 0; lane < lanes; ++lane) {
      submit([&next, count, grain, &fn] {
        for (std::size_t begin = next.fetch_add(grain); begin < count;
             begin = next.fetch_add(grain)) {
          const std::size_t end = std::min(begin + grain, count);
          for (std::size_t i = begin; i < end; ++i) fn(i);
        }
      });
    }
    wait_idle();
  }

 private:
  void worker_loop() {
    for (;;) {
      std::function<void()> job;
      {
        std::unique_lock lock(mutex_);
        work_available_.wait(lock,
                             [this] { return stopping_ || !jobs_.empty(); });
        if (jobs_.empty()) return;  // stopping_ and drained
        job = std::move(jobs_.front());
        jobs_.pop();
      }
      std::exception_ptr error;
      try {
        job();
      } catch (...) {
        error = std::current_exception();
      }
      {
        std::lock_guard lock(mutex_);
        if (error && !first_error_) first_error_ = error;
        // Drop this worker's reference before wait_idle() can return, so
        // the caller that rethrows ends up freeing the exception.
        error = nullptr;
        if (--pending_ == 0) idle_.notify_all();
      }
    }
  }

  std::mutex mutex_;
  std::condition_variable work_available_;
  std::condition_variable idle_;
  std::queue<std::function<void()>> jobs_;
  // Atomic so observers can read it without the mutex; all writes still
  // happen under mutex_, preserving the idle_ wait/notify protocol.
  std::atomic<std::size_t> pending_{0};
  bool stopping_ = false;
  std::exception_ptr first_error_;
  std::vector<std::thread> workers_;
};

}  // namespace dsa::util
