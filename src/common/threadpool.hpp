// Work-stealing thread pool + parallel_for, the execution engine behind the
// quantised matmul hot path and bbal::SweepRunner.
//
// Design rules, in order of importance:
//
//  1. Determinism. parallel_for partitions an index range into chunks and
//     runs each chunk exactly once; bodies write disjoint outputs, so the
//     numeric result is bit-identical at any thread count (enforced by the
//     BENCH_table2.json regression gate in CI).
//  2. No deadlocks under nesting. The calling thread always participates in
//     its own loop: helper tasks pushed to the pool are an *optimisation*,
//     and a parallel_for completes even if no worker ever picks one up. A
//     worker blocked at the end of a nested loop only waits on chunks that
//     other threads are already executing.
//  3. Exceptions propagate. The first exception thrown by a body is
//     captured, remaining chunks are cancelled, and the exception is
//     rethrown on the calling thread.
//
// Thread-count policy: ThreadPool(n) means n executors — the caller plus
// n-1 pooled workers — so ThreadPool(1) spawns no threads and runs every
// loop inline (the degenerate case tests rely on this). The process-wide
// pool (ThreadPool::global()) sizes itself from BBAL_THREADS, falling back
// to std::thread::hardware_concurrency(); tools expose the same knob as
// --threads N via set_global_threads(), which must be called before the
// first global() use (it replaces the pool, and concurrent loops on the old
// pool would be orphaned).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace bbal::common {

class ThreadPool {
 public:
  /// n executors (caller + n-1 workers); n <= 0 picks env_threads().
  explicit ThreadPool(int threads = 0);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Executors available to a parallel_for (including the caller).
  [[nodiscard]] int thread_count() const {
    return static_cast<int>(workers_.size()) + 1;
  }

  /// Run body(i) for every i in [begin, end). Blocks until done; rethrows
  /// the first body exception. Safe to call from inside another
  /// parallel_for body (the nested loop reuses the same pool).
  void parallel_for(std::int64_t begin, std::int64_t end,
                    const std::function<void(std::int64_t)>& body);

  /// Chunked variant: body(c0, c1) receives half-open sub-ranges of size
  /// <= grain. Lets bodies hoist per-chunk scratch buffers out of the
  /// element loop. grain <= 0 picks end-begin over ~4 chunks per executor.
  void parallel_for_chunks(
      std::int64_t begin, std::int64_t end, std::int64_t grain,
      const std::function<void(std::int64_t, std::int64_t)>& body);

  /// The process-wide pool, created on first use with env_threads().
  [[nodiscard]] static ThreadPool& global();
  /// Replace the global pool with an n-executor one (the --threads knob).
  /// Call before the first global() use; not safe mid-sweep.
  static void set_global_threads(int threads);
  /// BBAL_THREADS when set and > 0, else hardware_concurrency (min 1).
  [[nodiscard]] static int env_threads();

 private:
  // One mutex-guarded deque per worker. Owners pop from the back (LIFO,
  // cache-warm); thieves and the external enqueue use the front (FIFO) —
  // the classic Chase-Lev asymmetry without the lock-free machinery, which
  // the helper-task granularity here does not need.
  struct WorkerQueue {
    std::mutex mutex;
    std::deque<std::function<void()>> tasks;
  };

  /// Push a helper task into the first *empty* worker queue (round-robin
  /// start). Returns false — dropping the task — when every queue already
  /// holds work: helpers are pure optimisations (the caller drains its own
  /// loop regardless), and the one-per-queue bound keeps saturated sweeps
  /// from piling up closures no idle worker exists to run.
  bool try_enqueue_helper(std::function<void()> task);
  void worker_main(std::size_t self);
  [[nodiscard]] bool try_pop(std::size_t self, std::function<void()>& task);

  std::vector<std::unique_ptr<WorkerQueue>> queues_;
  std::vector<std::thread> workers_;
  std::mutex sleep_mutex_;
  std::condition_variable sleep_cv_;
  bool stop_ = false;
  std::atomic<std::size_t> next_queue_{0};  ///< round-robin enqueue cursor
};

}  // namespace bbal::common
