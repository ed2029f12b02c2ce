#ifndef OPENIMA_UTIL_THREAD_POOL_H_
#define OPENIMA_UTIL_THREAD_POOL_H_

#include <condition_variable>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace openima {

/// Fixed-size worker pool. Tasks are `void()` callables; `Wait()` blocks
/// until the queue drains and all in-flight tasks finish. Every pool starts
/// real threads, even a pool of one: `exec::Context` only builds pools of at
/// least two, and a one-thread pool exists to move work OFF the calling
/// thread (the data-parallel trainer's background pseudo-label refresh).
class ThreadPool {
 public:
  /// Starts max(1, num_threads) worker threads.
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task.
  void Submit(std::function<void()> task);

  /// Blocks until all submitted tasks have completed.
  void Wait();

  int num_threads() const { return static_cast<int>(workers_.size()); }

 private:
  void WorkerLoop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> queue_;
  std::mutex mu_;
  std::condition_variable work_available_;
  std::condition_variable all_done_;
  int in_flight_ = 0;
  bool shutting_down_ = false;
};

}  // namespace openima

#endif  // OPENIMA_UTIL_THREAD_POOL_H_
