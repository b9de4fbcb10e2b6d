#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

namespace tsajs {
namespace {

TEST(ThreadPoolTest, ParallelForRunsAllIndices) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(100);
  pool.parallel_for(100, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ParallelForPropagatesFirstError) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_for(10,
                                 [](std::size_t i) {
                                   if (i == 3) throw std::runtime_error("x");
                                 }),
               std::runtime_error);
}

TEST(ThreadPoolTest, ParallelForPropagatesLowestIndexError) {
  // Index 7 throws immediately; index 3 sleeps first so it is (almost
  // certainly) the *later* failure on the wall clock. The propagated
  // exception must still be index 3's: parallel_for picks the lowest-index
  // failure, not the first one encountered by a worker.
  ThreadPool pool(4);
  for (int repeat = 0; repeat < 5; ++repeat) {
    try {
      pool.parallel_for(10, [](std::size_t i) {
        if (i == 3) {
          std::this_thread::sleep_for(std::chrono::milliseconds(20));
          throw std::runtime_error("slow-low");
        }
        if (i == 7) throw std::runtime_error("fast-high");
      });
      FAIL() << "parallel_for should have thrown";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "slow-low");
    }
  }
}

TEST(ThreadPoolTest, ParallelForFinishesAllTasksDespiteError) {
  // Even when a task throws, every other task must have completed by the
  // time parallel_for returns: callers free captured state right after.
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(50);
  EXPECT_THROW(pool.parallel_for(50,
                                 [&](std::size_t i) {
                                   hits[i].fetch_add(1);
                                   if (i == 0) throw std::runtime_error("x");
                                 }),
               std::runtime_error);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ParallelForChunkedRunsAllIndices) {
  ThreadPool pool(3);
  // Grain sizes spanning one-per-task, uneven tail chunks, a grain larger
  // than n (single chunk), and the even-split mode (grain 0) must all
  // visit every index exactly once.
  for (const std::size_t grain : {std::size_t{1}, std::size_t{7},
                                  std::size_t{64}, std::size_t{1000},
                                  std::size_t{0}}) {
    std::vector<std::atomic<int>> hits(100);
    pool.parallel_for(100, [&](std::size_t i) { hits[i].fetch_add(1); },
                      grain);
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1) << "grain " << grain;
  }
}

TEST(ThreadPoolTest, ParallelForChunkedPropagatesLowestIndexError) {
  // Same lowest-index guarantee as the unchunked path: index 9 fails fast
  // in a late chunk, index 2 fails slow in the first chunk — the reported
  // failure must be index 2's.
  ThreadPool pool(4);
  for (int repeat = 0; repeat < 5; ++repeat) {
    try {
      pool.parallel_for(
          12,
          [](std::size_t i) {
            if (i == 2) {
              std::this_thread::sleep_for(std::chrono::milliseconds(20));
              throw std::runtime_error("slow-low");
            }
            if (i == 9) throw std::runtime_error("fast-high");
          },
          3);
      FAIL() << "parallel_for should have thrown";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "slow-low");
    }
  }
}

TEST(ThreadPoolTest, ParallelForChunkedSkipsRestOfChunkAfterThrow) {
  // A throwing index abandons the remainder of its own chunk (documented),
  // while every other chunk still runs to completion.
  ThreadPool pool(2);
  std::vector<std::atomic<int>> hits(12);
  EXPECT_THROW(pool.parallel_for(
                   12,
                   [&](std::size_t i) {
                     if (i == 5) throw std::runtime_error("x");
                     hits[i].fetch_add(1);
                   },
                   4),
               std::runtime_error);
  // Chunk [4,8) stops at 5; chunks [0,4) and [8,12) complete.
  for (std::size_t i = 0; i < 12; ++i) {
    if (i == 5 || i == 6 || i == 7) {
      EXPECT_EQ(hits[i].load(), 0) << "index " << i;
    } else {
      EXPECT_EQ(hits[i].load(), 1) << "index " << i;
    }
  }
}

TEST(ThreadPoolTest, ZeroThreadsUsesHardwareConcurrency) {
  ThreadPool pool(0);
  EXPECT_GE(pool.num_threads(), 1u);
}

TEST(ThreadPoolTest, ManyTasksComplete) {
  ThreadPool pool(3);
  std::atomic<long> sum{0};
  pool.parallel_for(500, [&sum](std::size_t i) {
    sum.fetch_add(static_cast<long>(i) + 1);
  });
  EXPECT_EQ(sum.load(), 500L * 501L / 2);
}

}  // namespace
}  // namespace tsajs
