// Minimal fixed-size thread pool used to farm out independent simulation
// work items (tournament encounters, performance runs). Results must not
// depend on scheduling: callers seed each work item independently (see
// Rng::derive) and write to disjoint output slots.
//
// parallel_for's caller is one of the computing lanes: it takes chunks from
// the same counter as the workers, so a pool of N - 1 workers runs N items
// at once, and a pool of zero workers runs everything on the caller.
#pragma once

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <latch>
#include <memory>
#include <mutex>
#include <queue>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

namespace dsa::util {

/// Fixed pool of worker threads executing void() jobs FIFO.
class ThreadPool {
 public:
  /// Spawns `threads` workers. Defaults to the hardware concurrency, which
  /// may be 1 on constrained machines. Zero workers is valid for
  /// parallel_for, which then runs on its caller alone; submit needs one.
  explicit ThreadPool(std::size_t threads = default_thread_count()) {
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
  /// Throws std::logic_error on a pool without workers, where the job
  /// could never run.
  void submit(std::function<void()> job) {
    if (workers_.empty()) {
      throw std::logic_error("ThreadPool::submit: the pool has no workers");
    }
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

  /// Runs fn(i) for i in [0, count) and returns when every index has run.
  /// fn must be safe to invoke concurrently for distinct indices. Indices
  /// are taken `grain` consecutive ones per atomic increment, so cheap work
  /// items amortize the shared counter instead of contending on it.
  ///
  /// The calling thread takes chunks itself, next to at most
  /// min(thread_count(), chunks - 1) helper lanes submitted to the pool.
  /// It waits only for chunks of this call that another thread has started,
  /// never for the pool as a whole: a helper lane still queued behind other
  /// jobs when the counter runs out finds nothing left and returns. So the
  /// call completes with every worker busy, from inside a pool job, and next
  /// to other callers; unrelated submit jobs' exceptions stay with
  /// wait_idle(). If an invocation throws, the rest of that chunk is
  /// skipped, other chunks still run, and this call's first exception is
  /// rethrown once all of them have finished.
  template <typename Fn>
  void parallel_for(std::size_t count, Fn&& fn, std::size_t grain = 1) {
    if (count == 0) return;
    if (grain == 0) grain = 1;
    const std::size_t chunks = (count + grain - 1) / grain;
    // Shared with the helper lanes, which may outlive this call while
    // queued; they dereference fn only after claiming a chunk, which they
    // cannot once this call has returned.
    auto call = std::make_shared<Call>(count, grain, chunks);
    const std::size_t helpers = std::min(thread_count(), chunks - 1);
    for (std::size_t lane = 0; lane < helpers; ++lane) {
      submit([call, f = &fn] { call->run(f); });
    }
    call->run(&fn);
    call->unfinished.wait();
    // Take the exception out: a helper lane may drop the last reference to
    // `call`, and the rethrown object must be freed by this thread.
    if (std::exception_ptr error = std::exchange(call->error, nullptr)) {
      std::rethrow_exception(error);
    }
  }

 private:
  /// The state of one parallel_for call.
  struct Call {
    Call(std::size_t count, std::size_t grain, std::size_t chunks)
        : count(count),
          grain(grain),
          unfinished(static_cast<std::ptrdiff_t>(chunks)) {}

    /// Claims and runs chunks until none is left, then counts the ones it
    /// ran off the latch.
    template <typename Fn>
    void run(Fn* fn) {
      std::ptrdiff_t finished = 0;
      for (std::size_t begin = next.fetch_add(grain); begin < count;
           begin = next.fetch_add(grain)) {
        const std::size_t end = std::min(begin + grain, count);
        try {
          for (std::size_t i = begin; i < end; ++i) (*fn)(i);
        } catch (...) {
          // The latch's count_down publishes `error` to the waiting caller.
          if (!failed.exchange(true)) error = std::current_exception();
        }
        ++finished;
      }
      if (finished > 0) unfinished.count_down(finished);
    }

    const std::size_t count;
    const std::size_t grain;
    std::atomic<std::size_t> next{0};
    std::latch unfinished;  // chunks not yet run to the end
    std::atomic<bool> failed{false};
    std::exception_ptr error;
  };

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
