#include "common/shard_pool.hpp"

#include <time.h>

#include <chrono>
#include <exception>

#include "common/parallel.hpp"
#include "common/worker_pool.hpp"

namespace bmg::shard {

namespace {

/// Set for a cell's whole extent, so a nested run_cells runs inline.
thread_local bool t_in_cell = false;

WorkerPool& pool() {
  static WorkerPool instance("BMG_SHARD_WORKERS");
  return instance;
}

[[nodiscard]] double thread_cpu_seconds() noexcept {
#if defined(CLOCK_THREAD_CPUTIME_ID)
  timespec ts{};
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) == 0)
    return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
#endif
  return 0.0;
}

/// Runs one cell and records its stats.  A throwing cell is still
/// timed; its exception then goes to the pool, which keeps it in the
/// cell's slot.
void run_cell(const CellFn& fn, CellStats& st, std::size_t cell, std::size_t worker) {
  st.cell = cell;
  st.worker = worker;
  const auto wall0 = std::chrono::steady_clock::now();
  const double cpu0 = thread_cpu_seconds();
  std::exception_ptr error;
  {
    // Intra-cell fork-join regions run inline: the cell is the unit
    // of parallelism and must compute the same bytes on any worker.
    parallel::SerialRegion serial;
    const bool outer = t_in_cell;
    t_in_cell = true;
    try {
      fn(cell);
    } catch (...) {
      error = std::current_exception();
    }
    t_in_cell = outer;
  }
  st.cpu_s = thread_cpu_seconds() - cpu0;
  st.wall_s = std::chrono::duration_cast<std::chrono::duration<double>>(
                  std::chrono::steady_clock::now() - wall0)
                  .count();
  if (error) std::rethrow_exception(error);
}

}  // namespace

std::size_t worker_count() { return pool().size(); }

void set_worker_count(std::size_t n) { pool().resize(n); }

std::vector<CellStats> run_cells(std::size_t n, const CellFn& fn) {
  std::vector<CellStats> stats(n);
  // One worker, or a nested run_cells from inside a cell: the exact
  // serial path, cells inline in grid order.
  pool().run(
      n,
      [&](std::size_t cell, std::size_t worker) { run_cell(fn, stats[cell], cell, worker); },
      /*inline_only=*/t_in_cell);
  return stats;
}

}  // namespace bmg::shard
