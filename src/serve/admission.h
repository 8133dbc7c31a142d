// Bounded admission queue: the server's only buffer between connection
// threads and the solver threads.
//
// Admission control is load-shedding by construction: try_push() refuses
// (instead of blocking) once `capacity` requests are waiting, and the
// server answers the refusal with an immediate `overloaded` response — the
// 429 of this protocol — so tail latency under overload stays bounded by
// (queue depth x solve time) instead of growing without limit. Each solver
// thread pop()s one request only when it is free to solve it, so a request
// is either waiting here (at most `capacity` of them) or being solved.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>

namespace sehc {

template <typename T>
class BoundedQueue {
 public:
  explicit BoundedQueue(std::size_t capacity) : capacity_(capacity) {}

  /// Enqueues unless the queue is full or closed; never blocks. Returns
  /// whether the item was admitted.
  bool try_push(T item) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (closed_ || items_.size() >= capacity_) return false;
      items_.push_back(std::move(item));
      if (items_.size() > peak_depth_) peak_depth_ = items_.size();
    }
    cv_.notify_one();
    return true;
  }

  /// Blocks until an item is available (or the queue is closed), then
  /// moves the oldest into `out`. Returns false once the queue is closed
  /// and drained — the consumer's exit signal.
  bool pop(T& out) {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [this] { return closed_ || !items_.empty(); });
    if (items_.empty()) return false;
    out = std::move(items_.front());
    items_.pop_front();
    return true;
  }

  /// Closes the queue: pushes are refused from now on, pop() drains what
  /// remains and then returns false. Idempotent.
  void close() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      closed_ = true;
    }
    cv_.notify_all();
  }

  std::size_t capacity() const { return capacity_; }
  std::size_t depth() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return items_.size();
  }
  /// High-water mark of the depth since construction.
  std::size_t peak_depth() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return peak_depth_;
  }

 private:
  const std::size_t capacity_;
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<T> items_;
  std::size_t peak_depth_ = 0;
  bool closed_ = false;
};

}  // namespace sehc
