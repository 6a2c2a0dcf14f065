#include "common/parallel.hpp"

#include <algorithm>

#include "common/worker_pool.hpp"

namespace bmg::parallel {

namespace {

thread_local bool t_in_region = false;

WorkerPool& pool() {
  static WorkerPool instance("BMG_THREADS");
  return instance;
}

}  // namespace

std::size_t thread_count() { return pool().size(); }

void set_thread_count(std::size_t n) { pool().resize(n); }

bool in_parallel_region() noexcept { return t_in_region; }

SerialRegion::SerialRegion() noexcept : prev_(t_in_region) { t_in_region = true; }

SerialRegion::~SerialRegion() { t_in_region = prev_; }

void parallel_for(std::size_t n, std::size_t min_per_shard, const ShardFn& fn) {
  if (n == 0) return;
  if (min_per_shard == 0) min_per_shard = 1;

  // Serial path: one thread, too little work to split, or a nested
  // call from inside a shard (which serializes by design).  Runs the
  // body inline — with threads == 1 this is the exact pre-executor
  // code path, no pool machinery involved.
  const std::size_t threads = t_in_region ? 1 : thread_count();
  const std::size_t max_shards =
      std::min(threads, (n + min_per_shard - 1) / min_per_shard);
  if (max_shards <= 1) {
    SerialRegion serial;
    fn(0, n, 0);
    return;
  }

  // Near-equal contiguous shards; which worker runs a shard never
  // changes what it computes or where it writes.
  const std::size_t shard_size = (n + max_shards - 1) / max_shards;
  const std::size_t num_shards = (n + shard_size - 1) / shard_size;
  pool().run(num_shards, [&](std::size_t s, std::size_t /*worker*/) {
    SerialRegion serial;
    const std::size_t begin = s * shard_size;
    fn(begin, std::min(begin + shard_size, n), s);
  });
}

}  // namespace bmg::parallel
