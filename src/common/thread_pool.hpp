#pragma once
// Fixed-size thread pool with future-returning submission and a blocking
// parallel_for. Used by the multi-simulation runner (one simulation per
// task), the tiled matmul workload (one tile-row per task) and the serving
// engine's batch fan-out (one shard per task).

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <future>
#include <mutex>
#include <queue>
#include <thread>
#include <type_traits>
#include <vector>

namespace bw {

class ThreadPool {
 public:
  /// Spawns `num_threads` workers (>= 1). Defaults to hardware concurrency.
  explicit ThreadPool(std::size_t num_threads = 0);

  /// Drains outstanding tasks, then joins all workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  /// Enqueues a callable; the returned future propagates exceptions.
  template <typename F>
  auto submit(F&& fn) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> result = task->get_future();
    {
      std::lock_guard lock(mutex_);
      if (stopping_) throw std::runtime_error("ThreadPool::submit after shutdown");
      queue_.emplace([task] { (*task)(); });
    }
    cv_.notify_one();
    return result;
  }

  /// Runs fn(i) for i in [begin, end), partitioned into `size()` blocks.
  /// Blocks until every block has finished, then rethrows the first
  /// exception (see wait_all). Safe to call with begin == end (no-op).
  void parallel_for(std::size_t begin, std::size_t end,
                    const std::function<void(std::size_t)>& fn);

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stopping_ = false;
};

/// Waits for every future, then rethrows the first failure. Rethrowing at
/// the first failed get() would unwind the caller's frame while later
/// tasks still run against the state it owns.
void wait_all(std::vector<std::future<void>>& futures);

}  // namespace bw
