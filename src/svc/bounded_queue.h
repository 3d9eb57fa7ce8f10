// Bounded multi-producer/multi-consumer queue with close semantics.
//
// The verifier service's backpressure primitive: producers block (or fail
// fast with try_push) when the queue is at capacity, so a request flood
// turns into producer-side latency instead of unbounded memory growth.
// close() starts the drain: further pushes fail, pops keep succeeding
// until the queue is empty, then return nullopt -- which is how worker
// threads learn they are done without a sentinel element.
//
// Storage is a ring buffer preallocated to capacity at construction --
// the queue never allocates after that, so a full/empty oscillation
// under load costs no allocator traffic (the deque it replaced grew and
// shrank a chunk at a time).
//
// Mutex + two condition variables, deliberately: the queue hands over
// whole requests whose processing cost (a signature verify) is three
// orders of magnitude above the lock hand-off, so a lock-free ring would
// buy nothing measurable here. pop_batch() is the consumer-side
// amortizer: one wakeup and one lock round trip hand over every queued
// request up to the caller's bound, which the worker hands to the SP as
// one batch (one journal commit per drain on a durable shard).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

namespace tp::svc {

template <typename T>
class BoundedQueue {
 public:
  explicit BoundedQueue(std::size_t capacity)
      : slots_(capacity == 0 ? 1 : capacity) {}

  BoundedQueue(const BoundedQueue&) = delete;
  BoundedQueue& operator=(const BoundedQueue&) = delete;

  /// Blocks while full. Returns false iff closed; like try_push, a
  /// failed push leaves `item` intact in the caller (the service re-uses
  /// this to resolve the request's promise instead of breaking it).
  bool push(T&& item) {
    std::unique_lock<std::mutex> lock(mu_);
    not_full_.wait(lock,
                   [this] { return closed_ || count_ < slots_.size(); });
    if (closed_) return false;
    put_back(std::move(item));
    lock.unlock();
    not_empty_.notify_one();
    return true;
  }

  /// Non-blocking push. Returns false when full or closed.
  bool try_push(T&& item) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (closed_ || count_ >= slots_.size()) return false;
      put_back(std::move(item));
    }
    not_empty_.notify_one();
    return true;
  }

  /// Blocks until an item is available or the queue is closed AND empty.
  std::optional<T> pop() {
    std::unique_lock<std::mutex> lock(mu_);
    not_empty_.wait(lock, [this] { return closed_ || count_ > 0; });
    if (count_ == 0) return std::nullopt;  // closed and drained
    T item = take_front();
    lock.unlock();
    not_full_.notify_one();
    return item;
  }

  /// Blocks like pop(), then drains up to `max_n` items (at least one)
  /// into `out` -- cleared first -- under a single lock acquisition.
  /// Returns the number of items delivered; 0 means closed and drained.
  /// One wakeup per batch instead of per item is the point: on a
  /// contended box the condvar round trip and context switch dominate
  /// cheap requests, and the batch also lets a durable SP commit its
  /// journal once per drain (group commit).
  std::size_t pop_batch(std::vector<T>& out, std::size_t max_n) {
    out.clear();
    if (max_n == 0) max_n = 1;
    std::unique_lock<std::mutex> lock(mu_);
    not_empty_.wait(lock, [this] { return closed_ || count_ > 0; });
    const std::size_t n = count_ < max_n ? count_ : max_n;
    out.reserve(n);
    for (std::size_t i = 0; i < n; ++i) out.push_back(take_front());
    lock.unlock();
    // Up to n slots freed at once: wake every blocked producer, not one.
    if (n > 0) not_full_.notify_all();
    return n;
  }

  /// Non-blocking pop; nullopt when nothing is immediately available.
  std::optional<T> try_pop() {
    std::unique_lock<std::mutex> lock(mu_);
    if (count_ == 0) return std::nullopt;
    T item = take_front();
    lock.unlock();
    not_full_.notify_one();
    return item;
  }

  /// Rejects future pushes and wakes every waiter. Queued items remain
  /// poppable (drain); pending blocked pushes fail.
  void close() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_ = true;
    }
    not_empty_.notify_all();
    not_full_.notify_all();
  }

  /// Re-admits pushes after a close() + drain cycle (the service's
  /// stop-the-world rebalance stops workers, moves state, then restarts).
  /// The caller guarantees no producer or consumer is concurrently
  /// blocked on the queue when reopening.
  void reopen() {
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = false;
  }

  bool closed() const {
    std::lock_guard<std::mutex> lock(mu_);
    return closed_;
  }
  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return count_;
  }
  std::size_t capacity() const { return slots_.size(); }

 private:
  // Ring operations; callers hold mu_. Slots are optional<T> so the
  // element type needs no default constructor and vacated slots destroy
  // their payload eagerly.
  void put_back(T&& item) {
    std::size_t tail = head_ + count_;
    if (tail >= slots_.size()) tail -= slots_.size();
    slots_[tail].emplace(std::move(item));
    ++count_;
  }
  T take_front() {
    T item = std::move(*slots_[head_]);
    slots_[head_].reset();
    ++head_;
    if (head_ == slots_.size()) head_ = 0;
    --count_;
    return item;
  }

  mutable std::mutex mu_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
  std::vector<std::optional<T>> slots_;  // ring storage, fixed at ctor
  std::size_t head_ = 0;                 // index of the oldest item
  std::size_t count_ = 0;                // live items
  bool closed_ = false;
};

}  // namespace tp::svc
