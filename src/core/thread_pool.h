// A small fixed-size thread pool used by the experiment harness to run
// independent repetitions (different seeds / workload classes) in parallel.
//
// The heuristics themselves are sequential — the paper's algorithms are — so
// parallelism lives at the sweep level, which is embarrassingly parallel.
#pragma once

#include <condition_variable>
#include <functional>
#include <future>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

#include "core/error.h"

namespace sehc {

class ThreadPool {
 public:
  /// Spawns `threads` workers; 0 means hardware_concurrency (min 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  /// Enqueues a task; the returned future yields its result (or rethrows the
  /// exception the task exited with). Throws sehc::Error if the pool is
  /// already shutting down — a task enqueued then would never have its
  /// future satisfied once the workers exit.
  template <typename F>
  auto submit(F&& f) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(f));
    std::future<R> fut = task->get_future();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      SEHC_CHECK(!stop_, "ThreadPool::submit on a stopped pool");
      queue_.emplace([task] { (*task)(); });
    }
    cv_.notify_one();
    return fut;
  }

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
};

}  // namespace sehc
