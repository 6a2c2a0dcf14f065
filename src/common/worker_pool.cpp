#include "common/worker_pool.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>

namespace bmg {

/// One dispatch.  Lives on the submitter's stack; run_erased() returns
/// only after every pool worker has retired from it.
struct WorkerPool::Job {
  const void* task;
  Thunk thunk;
  std::size_t n;
  std::atomic<std::size_t> next{0};
  /// Pool workers that drained the counter and will not touch this job
  /// again.  A retired worker has finished every index it claimed.
  std::size_t retired = 0;
  std::vector<std::exception_ptr> errors;  // indexed by task index

  Job(const void* t, Thunk th, std::size_t count) : task(t), thunk(th), n(count), errors(count) {}

  void drain(std::size_t worker) noexcept {
    for (std::size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) {
      try {
        thunk(task, i, worker);
      } catch (...) {
        errors[i] = std::current_exception();
      }
    }
  }
};

WorkerPool::~WorkerPool() {
  std::lock_guard<std::mutex> lock(config_mutex_);
  stop_workers_locked();
}

std::size_t WorkerPool::size() {
  std::lock_guard<std::mutex> lock(config_mutex_);
  ensure_started_locked();
  return size_;
}

void WorkerPool::resize(std::size_t n) {
  std::lock_guard<std::mutex> submit(submit_mutex_);  // not during a dispatch
  std::lock_guard<std::mutex> lock(config_mutex_);
  stop_workers_locked();
  size_ = n == 0 ? default_size() : std::min(n, kMaxWorkers);
  started_ = true;
  spawn_workers_locked();
}

void WorkerPool::run_erased(std::size_t n, const void* task, Thunk thunk, bool inline_only) {
  if (n == 0) return;
  Job job(task, thunk, n);
  if (inline_only || size() <= 1) {
    job.drain(0);
  } else {
    std::lock_guard<std::mutex> submit(submit_mutex_);
    std::size_t helpers;
    {
      std::lock_guard<std::mutex> lock(config_mutex_);
      helpers = workers_.size();
    }
    {
      std::lock_guard<std::mutex> lock(job_mutex_);
      job_ = &job;
      ++generation_;
    }
    job_cv_.notify_all();

    job.drain(0);  // the submitter works the same counter as worker 0

    std::unique_lock<std::mutex> lock(job_mutex_);
    done_cv_.wait(lock, [&] { return job.retired == helpers; });
    job_ = nullptr;
  }

  // Deterministic error propagation: the lowest failing index wins.
  for (const std::exception_ptr& e : job.errors)
    if (e) std::rethrow_exception(e);
}

std::size_t WorkerPool::default_size() const {
  if (const char* env = std::getenv(env_var_)) {
    char* end = nullptr;
    const long v = std::strtol(env, &end, 10);
    if (end != env && v > 0) return std::min(static_cast<std::size_t>(v), kMaxWorkers);
  }
  return std::clamp<std::size_t>(std::thread::hardware_concurrency(), 1, kMaxWorkers);
}

void WorkerPool::ensure_started_locked() {
  if (started_) return;
  size_ = default_size();
  started_ = true;
  spawn_workers_locked();
}

void WorkerPool::spawn_workers_locked() {
  stopping_ = false;
  for (std::size_t worker = 1; worker < size_; ++worker)
    workers_.emplace_back([this, worker] { worker_loop(worker); });
}

void WorkerPool::stop_workers_locked() {
  {
    std::lock_guard<std::mutex> lock(job_mutex_);
    stopping_ = true;
    ++generation_;
  }
  job_cv_.notify_all();
  for (std::thread& w : workers_) w.join();
  workers_.clear();
}

void WorkerPool::worker_loop(std::size_t worker) {
  std::uint64_t seen = 0;
  while (true) {
    Job* job = nullptr;
    {
      std::unique_lock<std::mutex> lock(job_mutex_);
      job_cv_.wait(lock, [&] { return generation_ != seen || stopping_; });
      if (stopping_) return;
      seen = generation_;
      job = job_;
    }
    // job_ is nullptr only for a generation this worker was not part
    // of (spawned after it was dispatched); nothing to do then.
    if (job == nullptr) continue;
    job->drain(worker);
    {
      std::lock_guard<std::mutex> lock(job_mutex_);
      ++job->retired;
    }
    done_cv_.notify_all();
  }
}

}  // namespace bmg
