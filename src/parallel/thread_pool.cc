#include "parallel/thread_pool.h"

#include <chrono>
#include <cstdint>

#include "obs/events.h"
#include "obs/metrics.h"

namespace tpset {

namespace {

// Pool-wide metrics, shared by every ThreadPool in the process: worker
// threads, queue depth (pending tasks across pools and lanes), tasks
// executed, and busy time — utilization is busy_usec / (workers * wall) for
// whatever window the scraper tracks.
obs::Gauge& WorkersGauge() {
  static obs::Gauge& g = obs::MetricsRegistry::Global().GetGauge(
      "tpset_pool_workers", "worker threads across all thread pools");
  return g;
}

obs::Gauge& QueueDepthGauge() {
  static obs::Gauge& g = obs::MetricsRegistry::Global().GetGauge(
      "tpset_pool_queue_depth", "pending tasks across all thread pools");
  return g;
}

obs::Counter& TasksCounter() {
  static obs::Counter& c = obs::MetricsRegistry::Global().GetCounter(
      "tpset_pool_tasks_total", "tasks executed by all thread pools");
  return c;
}

obs::Counter& BusyUsecCounter() {
  static obs::Counter& c = obs::MetricsRegistry::Global().GetCounter(
      "tpset_pool_busy_usec_total",
      "wall microseconds thread-pool workers spent running tasks");
  return c;
}

}  // namespace

ThreadPool::ThreadPool(std::size_t num_threads) {
  Grow(num_threads == 0 ? 1 : num_threads);
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
  WorkersGauge().Add(-static_cast<std::int64_t>(workers_.size()));
}

void ThreadPool::Grow(std::size_t num_threads) {
  std::lock_guard<std::mutex> lock(mu_);
  if (stopping_ || num_threads <= workers_.size()) return;
  WorkersGauge().Add(static_cast<std::int64_t>(num_threads - workers_.size()));
  while (workers_.size() < num_threads) {
    workers_.emplace_back([this]() { WorkerLoop(); });
  }
}

std::size_t ThreadPool::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return workers_.size();
}

void ThreadPool::Enqueue(std::function<void()> job) {
  std::size_t depth;
  std::size_t workers;
  bool newly_saturated = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(job));
    depth = queue_.size();
    workers = workers_.size();
    // Saturation: every worker busy and a full round of tasks per worker
    // already waiting. Edge-triggered (see saturated_ in the header).
    const std::size_t threshold = workers * 8;
    if (!saturated_ && depth >= threshold) {
      saturated_ = true;
      newly_saturated = true;
    } else if (saturated_ && depth < threshold / 2) {
      saturated_ = false;
    }
  }
  QueueDepthGauge().Add(1);
  if (newly_saturated) {
    obs::EmitEvent(obs::Severity::kWarn, "pool",
                   "pool saturated depth=%zu workers=%zu", depth, workers);
  }
  cv_.notify_one();
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> job;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this]() { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ and drained
      job = std::move(queue_.front());
      queue_.pop_front();
    }
    QueueDepthGauge().Add(-1);
    const auto t0 = std::chrono::steady_clock::now();
    job();
    BusyUsecCounter().Increment(obs::ElapsedUsec(t0));
    TasksCounter().Increment();
  }
}

struct PoolLane::State {
  ThreadPool* pool;
  std::mutex mu;
  std::deque<std::function<void()>> queue;
  std::size_t running = 0;  // drain tasks submitted to the pool
};

PoolLane::PoolLane(ThreadPool* pool, std::size_t width)
    : width_(pool != nullptr && width > 1 ? width : 1) {
  if (width_ > 1) state_.reset(new State{pool, {}, {}, 0});
}

void PoolLane::Enqueue(std::function<void()> job) const {
  if (state_ == nullptr) {
    job();
    return;
  }
  {
    std::lock_guard<std::mutex> lock(state_->mu);
    state_->queue.push_back(std::move(job));
    QueueDepthGauge().Add(1);  // pending until a drainer takes it
    if (state_->running == width_) return;  // a drainer will take it
    ++state_->running;
  }
  // One drain task per free slot runs the lane's jobs until none is left,
  // so the lane never has more than `width` workers busy.
  state_->pool->Submit([st = state_]() {
    for (;;) {
      std::function<void()> next;
      {
        std::lock_guard<std::mutex> lock(st->mu);
        if (st->queue.empty()) {
          --st->running;
          return;
        }
        next = std::move(st->queue.front());
        st->queue.pop_front();
      }
      QueueDepthGauge().Add(-1);
      next();
    }
  });
}

}  // namespace tpset
