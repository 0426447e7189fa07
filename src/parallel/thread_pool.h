// The worker pool of one QueryExecutor, and the PoolLane through which every
// caller reaches it. Contract:
//  * one pool per executor — query morsels and sort chunks, continuous-query
//    group batches, Retain/Compact merges and background compaction steps
//    all run on it (standalone LAWA-P instances, tests and benches own pools);
//  * per-call width — callers submit through a PoolLane of their width, which
//    keeps at most that many of its tasks running, so a 2-thread query on a
//    pool that grew to 4 still runs 2 workers;
//  * grow-only — Grow adds workers up to the widest width asked for;
//  * tasks never wait on other pool tasks — every blocking wait (futures,
//    MorselBatch::WaitMorsel) happens on caller threads.
// One FIFO queue, no stealing at this level. Each pool moves the
// tpset_pool_workers gauge by its worker count.
#ifndef TPSET_PARALLEL_THREAD_POOL_H_
#define TPSET_PARALLEL_THREAD_POOL_H_

#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace tpset {

/// A growable set of worker threads draining one task queue.
class ThreadPool {
 public:
  /// Spawns `num_threads` workers (clamped to at least 1).
  explicit ThreadPool(std::size_t num_threads);

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Drains the queue and joins all workers. Pending tasks run to completion,
  /// including tasks that running tasks submit during shutdown.
  ~ThreadPool();

  /// Adds workers until there are at least `num_threads`; never removes any.
  /// Thread-safe.
  void Grow(std::size_t num_threads);

  /// Number of worker threads. Thread-safe.
  std::size_t size() const;

  /// Schedules `fn` and returns a future for its result. An exception thrown
  /// by the task is captured and rethrown by future::get(). Thread-safe.
  template <typename Fn, typename R = std::invoke_result_t<Fn&>>
  std::future<R> Submit(Fn fn) {
    auto task = std::make_shared<std::packaged_task<R()>>(std::move(fn));
    std::future<R> result = task->get_future();
    Enqueue([task]() { (*task)(); });
    return result;
  }

 private:
  void Enqueue(std::function<void()> job);
  void WorkerLoop();

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  bool stopping_ = false;
  /// True while the queue sits above the saturation threshold — edge-detects
  /// the "pool saturated" event so a sustained backlog emits once, not per
  /// enqueue (re-arms when the queue drains below half the threshold).
  bool saturated_ = false;
  std::vector<std::thread> workers_;
};

/// One caller's bounded share of a ThreadPool: at most width() of the tasks
/// submitted through the lane run at once; the rest wait in the lane's own
/// queue, never on a worker. Copies share the bound. A default lane, or one
/// of width <= 1, is sequential: Submit runs the task on the calling thread.
class PoolLane {
 public:
  PoolLane() = default;
  PoolLane(ThreadPool* pool, std::size_t width);

  /// The caller's degree of parallelism; 1 means sequential.
  std::size_t width() const { return width_; }

  /// Schedules `fn` like ThreadPool::Submit. Thread-safe.
  template <typename Fn, typename R = std::invoke_result_t<Fn&>>
  std::future<R> Submit(Fn fn) const {
    auto task = std::make_shared<std::packaged_task<R()>>(std::move(fn));
    std::future<R> result = task->get_future();
    Enqueue([task]() { (*task)(); });
    return result;
  }

 private:
  struct State;
  void Enqueue(std::function<void()> job) const;

  std::size_t width_ = 1;
  std::shared_ptr<State> state_;  // null when sequential
};

}  // namespace tpset

#endif  // TPSET_PARALLEL_THREAD_POOL_H_
