// Work-stealing thread pool shared by the serving gateway (retrain queue,
// deferred-work replay) and the experiment harness.
//
// Each worker owns a deque: it pushes/pops its own work LIFO (cache-warm) and
// steals FIFO from siblings when idle, so uneven per-user training costs
// balance automatically. parallel_for() has the calling thread participate in
// draining the iteration space, which makes it safe to call from inside a
// pool task (no thread blocks waiting for a worker that never comes).
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace sy::util {

class ThreadPool {
 public:
  // 0 = hardware concurrency.
  explicit ThreadPool(unsigned threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  unsigned size() const { return static_cast<unsigned>(workers_.size()); }

  // Cumulative execution telemetry, merged across workers on read. Counts
  // cover submit()ted tasks only (parallel_for iterations drain inside one
  // such task). queue_wait_ns is time spent enqueued before a worker picked
  // the task up — the saturation signal. obs::bind_thread_pool() exports
  // these as callback gauges on a metrics registry.
  struct Stats {
    std::uint64_t submitted{0};
    std::uint64_t executed{0};
    std::uint64_t stolen{0};  // tasks acquired from a sibling's queue
    std::uint64_t queue_wait_ns{0};
  };
  Stats stats() const;

  // Enqueues a task for asynchronous execution. Tasks still queued (not yet
  // started) when the pool is destroyed are dropped; started tasks always
  // finish before the destructor returns.
  void submit(std::function<void()> task);

  // Runs fn(i) for i in [0, n) across the pool plus the calling thread.
  // Blocks until every iteration finished; the first exception (if any) is
  // rethrown in the caller. `max_workers` caps helper tasks (0 = pool size).
  void parallel_for(std::size_t n, std::function<void(std::size_t)> fn,
                    unsigned max_workers = 0);

  // Process-wide pool, created on first use with hardware concurrency.
  static ThreadPool& shared();

 private:
  struct Task {
    std::function<void()> fn;
    std::chrono::steady_clock::time_point enqueued;
  };
  struct WorkQueue {
    std::mutex mutex;
    std::deque<Task> tasks;
  };
  // Written by the owning worker only, read by stats(); relaxed atomics keep
  // the cross-thread reads race-free without contending (cells are padded).
  struct alignas(64) WorkerStats {
    std::atomic<std::uint64_t> executed{0};
    std::atomic<std::uint64_t> stolen{0};
    std::atomic<std::uint64_t> queue_wait_ns{0};
  };

  void worker_loop(std::size_t self);
  bool try_acquire(std::size_t self, Task& task, bool& stolen);
  void account(std::size_t self, const Task& task, bool stolen);

  std::vector<std::unique_ptr<WorkQueue>> queues_;
  std::vector<std::unique_ptr<WorkerStats>> worker_stats_;
  std::vector<std::thread> workers_;
  std::mutex sleep_mutex_;
  std::condition_variable wake_;
  std::atomic<std::size_t> next_queue_{0};
  std::atomic<std::uint64_t> submitted_{0};
  std::atomic<bool> stop_{false};
};

}  // namespace sy::util
