#include "util/thread_pool.h"

#include <stdexcept>

#include "obs/trace.h"

namespace carousel::util {

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0)
    throw std::invalid_argument("thread pool needs at least one worker");
  auto& reg = obs::MetricsRegistry::global();
  queue_depth_ = &reg.gauge("carousel_threadpool_queue_depth");
  task_seconds_ = &reg.histogram("carousel_threadpool_task_seconds");
  tasks_total_ = &reg.counter("carousel_threadpool_tasks_total");
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::submit(std::function<void()> task) {
  {
    MutexLock lock(mu_);
    if (stop_) throw std::logic_error("submit after shutdown");
    queue_.push_back(std::move(task));
    ++in_flight_;
  }
  queue_depth_->add(1.0);
  work_cv_.notify_one();
}

void ThreadPool::wait_idle() {
  MutexLock lock(mu_);
  while (in_flight_ != 0) idle_cv_.wait(mu_);
  if (first_error_) {
    auto e = first_error_;
    first_error_ = nullptr;
    std::rethrow_exception(e);
  }
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      MutexLock lock(mu_);
      while (!stop_ && queue_.empty()) work_cv_.wait(mu_);
      if (queue_.empty()) return;  // stop_ and drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    queue_depth_->add(-1.0);
    try {
      obs::ScopedTimer timer(*task_seconds_);
      task();
    } catch (...) {
      MutexLock lock(mu_);
      if (!first_error_) first_error_ = std::current_exception();
    }
    tasks_total_->inc();
    {
      MutexLock lock(mu_);
      if (--in_flight_ == 0) idle_cv_.notify_all();
    }
  }
}

}  // namespace carousel::util
