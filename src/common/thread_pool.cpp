#include "common/thread_pool.h"

#include <algorithm>
#include <exception>

namespace tsajs {

ThreadPool::ThreadPool(std::size_t num_threads) {
  if (num_threads == 0) {
    num_threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (stopping_ && queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop();
    }
    task();
  }
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& fn,
                              std::size_t grain) {
  if (n == 0) return;
  if (grain == 0) {
    // Auto grain: an even split across the workers. Fine for uniform tiny
    // bodies; callers with skewed work should pick a smaller grain.
    grain = (n + num_threads() - 1) / num_threads();
  }
  const std::size_t num_chunks = (n + grain - 1) / grain;
  // One error slot per chunk. A worker only stores into its own slot, the
  // slots change hands under the mutex below, and every exception object is
  // rethrown or destroyed on this thread — never touched by two at once.
  std::vector<std::exception_ptr> errors(num_chunks);
  std::size_t pending = num_chunks;  // guarded by mutex_
  const auto run_chunk = [&](std::size_t chunk) {
    const std::size_t begin = chunk * grain;
    const std::size_t end = std::min(n, begin + grain);
    try {
      // Ascending within the chunk, so its slot holds the chunk's
      // lowest-index failure.
      for (std::size_t i = begin; i < end; ++i) fn(i);
    } catch (...) {
      errors[chunk] = std::current_exception();
    }
    // Notify under the lock: once `pending` reads 0 the caller may return
    // and end this frame, so nothing of it is touched after the unlock.
    const std::lock_guard<std::mutex> lock(mutex_);
    if (--pending == 0) done_.notify_all();
  };
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    for (std::size_t chunk = 0; chunk < num_chunks; ++chunk) {
      queue_.emplace([&run_chunk, chunk] { run_chunk(chunk); });
    }
  }
  cv_.notify_all();
  {
    std::unique_lock<std::mutex> lock(mutex_);
    done_.wait(lock, [&pending] { return pending == 0; });
  }
  // Chunk order is index order, so the first stored error is the
  // lowest-index failure among the executed calls, no matter which worker
  // threw first on the wall clock.
  for (const std::exception_ptr& error : errors) {
    if (error) std::rethrow_exception(error);
  }
}

}  // namespace tsajs
