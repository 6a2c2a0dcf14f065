// Persistent worker pool behind both executors: the fork-join
// executor (parallel.hpp, kernel shards) and the shard pool
// (shard_pool.hpp, whole-simulation grid cells) are thin front ends,
// each over its own instance.  The pool owns what they share: lazy
// spawn, the env-var default size, one generation-counted job slot,
// the submitter taking part as worker 0, indices dealt from an atomic
// counter (which worker runs which index is the only scheduling
// freedom), a join that waits for every worker to retire from the
// job, and per-index exception capture with the lowest failing index
// rethrown.  Instances share no threads and no job slot, so a
// fork-join dispatch never waits behind a grid running on another
// thread.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

namespace bmg {

class WorkerPool {
 public:
  /// Neither executor has a use for more: quorum batches top out at a
  /// few hundred signatures, and grid cells are whole simulations that
  /// run out of memory long before they run out of cores.
  static constexpr std::size_t kMaxWorkers = 64;

  /// `env_var` names the environment variable read for the default
  /// size.  No thread starts until the pool is first used.
  explicit WorkerPool(const char* env_var) noexcept : env_var_(env_var) {}
  ~WorkerPool();
  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// Participants in a dispatch (>= 1), the submitting thread included,
  /// so size() == 1 means no pool threads at all.
  [[nodiscard]] std::size_t size();

  /// Joins the workers and respawns the pool at exactly `n`
  /// participants (0 → the environment/hardware default).  Waits for a
  /// running dispatch to finish; must not be called from inside a task.
  void resize(std::size_t n);

  /// Runs task(index, worker) for every index in [0, n) and blocks
  /// until all have finished.  `worker` is 0 on the calling thread and
  /// 1..size()-1 on pool threads.  With `inline_only`, or at size 1,
  /// the calling thread runs every index itself, in index order,
  /// without touching the pool.  Dispatches on one pool run one at a
  /// time; a task must not dispatch on its own pool.
  template <class Task>
  void run(std::size_t n, const Task& task, bool inline_only = false) {
    run_erased(
        n, &task,
        [](const void* t, std::size_t index, std::size_t worker) {
          (*static_cast<const Task*>(t))(index, worker);
        },
        inline_only);
  }

 private:
  /// Non-owning type erasure: unlike std::function it never allocates.
  using Thunk = void (*)(const void* task, std::size_t index, std::size_t worker);
  struct Job;

  void run_erased(std::size_t n, const void* task, Thunk thunk, bool inline_only);
  [[nodiscard]] std::size_t default_size() const;
  void ensure_started_locked();
  void spawn_workers_locked();
  void stop_workers_locked();
  void worker_loop(std::size_t worker);

  const char* env_var_;

  std::mutex submit_mutex_;  ///< one dispatch (or resize) at a time
  std::mutex config_mutex_;
  bool started_ = false;
  std::size_t size_ = 1;

  std::mutex job_mutex_;
  std::condition_variable job_cv_;
  std::condition_variable done_cv_;
  Job* job_ = nullptr;
  std::uint64_t generation_ = 0;
  bool stopping_ = false;

  std::vector<std::thread> workers_;  ///< guarded by config_mutex_
};

}  // namespace bmg
