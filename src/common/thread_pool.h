// Fixed-size thread pool used to parallelize independent Monte-Carlo trials
// and the sharded scheduler's shard solves.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace tsajs {

/// A FIFO pool of workers behind one blocking entry point, parallel_for.
class ThreadPool {
 public:
  /// `num_threads == 0` selects the hardware concurrency (at least 1).
  explicit ThreadPool(std::size_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t num_threads() const noexcept {
    return workers_.size();
  }

  /// Runs `fn(i)` for i in [0, n) across the pool and waits for *all* tasks
  /// to finish. If any calls threw, the exception of the lowest-index
  /// failure is rethrown — a deterministic choice, independent of the
  /// temporal order in which workers hit their errors. Every exception
  /// object is destroyed on the calling thread, after the join.
  ///
  /// `grain` sets the chunk size: one pool task covers `grain` consecutive
  /// indices, run in ascending order. The default (1) queues one task per
  /// index — right for heavy bodies like a shard solve; a larger grain
  /// amortizes the queue overhead when the per-index body is tiny and the
  /// index count is large (see BM_ParallelForGrain). `grain == 0` picks an
  /// even split over the workers automatically. Within a chunk a throwing
  /// index skips the chunk's remaining indices (chunks are all-or-nothing
  /// past the failure); with the default grain of 1 every index runs
  /// regardless.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn,
                    std::size_t grain = 1);

 private:
  void worker_loop();

  std::mutex mutex_;
  /// Guarded by mutex_.
  std::queue<std::function<void()>> queue_;
  bool stopping_ = false;
  /// Signals workers: a task was queued or the pool is stopping.
  std::condition_variable cv_;
  /// Signals parallel_for callers: a call's last chunk finished.
  std::condition_variable done_;
  /// Declared last: the workers use every member above.
  std::vector<std::thread> workers_;
};

}  // namespace tsajs
