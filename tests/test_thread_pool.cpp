// Tests for the thread pool (common/thread_pool).

#include "common/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

namespace bw {
namespace {

TEST(ThreadPool, RunsSubmittedTask) {
  ThreadPool pool(2);
  auto future = pool.submit([] { return 21 * 2; });
  EXPECT_EQ(future.get(), 42);
}

TEST(ThreadPool, DefaultsToAtLeastOneWorker) {
  ThreadPool pool;
  EXPECT_GE(pool.size(), 1u);
}

TEST(ThreadPool, PropagatesExceptions) {
  ThreadPool pool(2);
  auto future = pool.submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(future.get(), std::runtime_error);
}

TEST(ThreadPool, ManyTasksAllComplete) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 200; ++i) {
    futures.push_back(pool.submit([&counter] { counter.fetch_add(1); }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(counter.load(), 200);
}

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(0, 1000, [&hits](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForRespectsRangeOffsets) {
  ThreadPool pool(3);
  std::atomic<long> sum{0};
  pool.parallel_for(10, 20, [&sum](std::size_t i) { sum.fetch_add(static_cast<long>(i)); });
  EXPECT_EQ(sum.load(), 145);  // 10 + 11 + ... + 19
}

TEST(ThreadPool, ParallelForEmptyRangeIsNoop) {
  ThreadPool pool(2);
  std::atomic<int> calls{0};
  pool.parallel_for(5, 5, [&calls](std::size_t) { calls.fetch_add(1); });
  pool.parallel_for(6, 5, [&calls](std::size_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 0);
}

TEST(ThreadPool, ParallelForRethrowsWorkerException) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_for(0, 10,
                                 [](std::size_t i) {
                                   if (i == 7) throw std::runtime_error("bad index");
                                 }),
               std::runtime_error);
}

TEST(ThreadPool, ParallelForRethrowsOnlyAfterEveryBlockFinished) {
  // Block 0 throws at once while block 1 is still sleeping. The exception
  // must not reach the caller before block 1 is done: unwinding would
  // destroy the fn (and whatever it captures) that block 1 still calls.
  ThreadPool pool(2);
  std::atomic<bool> slow_block_done{false};
  const auto block = [&slow_block_done](std::size_t i) {
    if (i == 0) throw std::runtime_error("fast failure");
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    slow_block_done.store(true);
  };
  EXPECT_THROW(pool.parallel_for(0, 2, block), std::runtime_error);
  EXPECT_TRUE(slow_block_done.load());
}

TEST(ThreadPool, SingleWorkerStillCorrect) {
  ThreadPool pool(1);
  std::vector<int> order;
  std::mutex m;
  pool.parallel_for(0, 10, [&](std::size_t i) {
    std::lock_guard lock(m);
    order.push_back(static_cast<int>(i));
  });
  std::vector<int> expected(10);
  std::iota(expected.begin(), expected.end(), 0);
  EXPECT_EQ(order, expected);  // one worker executes in order
}

// --- contention coverage: the serving engine submits batches to one shared
// --- pool from many request threads at once, so the pool must stay correct
// --- when the submission side itself is parallel.

TEST(ThreadPool, ManyProducersManySmallTasks) {
  ThreadPool pool(4);
  constexpr int kProducers = 8;
  constexpr int kTasksPerProducer = 500;
  std::atomic<int> counter{0};
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&pool, &counter] {
      std::vector<std::future<void>> futures;
      futures.reserve(kTasksPerProducer);
      for (int i = 0; i < kTasksPerProducer; ++i) {
        futures.push_back(pool.submit([&counter] { counter.fetch_add(1); }));
      }
      for (auto& f : futures) f.get();
    });
  }
  for (auto& producer : producers) producer.join();
  EXPECT_EQ(counter.load(), kProducers * kTasksPerProducer);
}

TEST(ThreadPool, ConcurrentParallelForCallsStayIsolated) {
  ThreadPool pool(4);
  constexpr int kCallers = 4;
  constexpr std::size_t kRange = 400;
  std::vector<std::vector<std::atomic<int>>> hits(kCallers);
  for (auto& caller_hits : hits) {
    caller_hits = std::vector<std::atomic<int>>(kRange);
  }
  std::vector<std::thread> callers;
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&pool, &hits, c] {
      pool.parallel_for(0, kRange, [&hits, c](std::size_t i) {
        hits[c][i].fetch_add(1);
      });
    });
  }
  for (auto& caller : callers) caller.join();
  for (int c = 0; c < kCallers; ++c) {
    for (std::size_t i = 0; i < kRange; ++i) EXPECT_EQ(hits[c][i].load(), 1);
  }
}

TEST(ThreadPool, MixedProducersSurviveTaskExceptions) {
  ThreadPool pool(3);
  std::atomic<int> ok{0};
  std::atomic<int> failed{0};
  std::vector<std::thread> producers;
  for (int p = 0; p < 6; ++p) {
    producers.emplace_back([&pool, &ok, &failed, p] {
      for (int i = 0; i < 100; ++i) {
        auto future = pool.submit([p, i]() -> int {
          if ((p + i) % 7 == 0) throw std::runtime_error("injected");
          return i;
        });
        try {
          future.get();
          ok.fetch_add(1);
        } catch (const std::runtime_error&) {
          failed.fetch_add(1);
        }
      }
    });
  }
  for (auto& producer : producers) producer.join();
  EXPECT_EQ(ok.load() + failed.load(), 600);
  EXPECT_GT(failed.load(), 0);  // the injected failures really propagated
}

TEST(ThreadPool, NestedSubmitFromTaskDoesNotDeadlock) {
  ThreadPool pool(2);
  auto outer = pool.submit([&pool] {
    auto inner = pool.submit([] { return 7; });
    return inner.get();
  });
  EXPECT_EQ(outer.get(), 7);
}

}  // namespace
}  // namespace bw
