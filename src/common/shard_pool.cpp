#include "common/shard_pool.hpp"

#include <time.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <exception>

#include "common/arena.hpp"
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

/// Cell-boundary guard over the thread_local surfaces.  A non-empty
/// scratch arena at a cell boundary means an ArenaScope (or a bare
/// alloc_bytes) leaked across the boundary — the next cell would bump
/// over live bytes of the previous owner, a silent cross-shard bleed.
/// That is a programming error, never data-dependent, so fail loudly.
void guard_scratch_arena(const char* when, std::size_t cell) {
  Arena& a = scratch_arena();
  if (a.bytes_used() != 0) {
    std::fprintf(stderr,
                 "shard_pool: scratch arena holds %zu bytes %s cell %zu — an "
                 "ArenaScope leaked across a shard boundary\n",
                 a.bytes_used(), when, cell);
    std::abort();
  }
  // Reclaim wholesale but keep chunk storage: successive cells on this
  // worker reuse the same slabs (no heap churn between grid cells).
  a.reset();
}

/// Runs one cell between the arena guards and records its stats.  A
/// throwing cell is still timed and guarded; its exception then goes
/// to the pool, which keeps it in the cell's slot.
void run_cell(const CellFn& fn, CellStats& st, std::size_t cell, std::size_t worker) {
  guard_scratch_arena("entering", cell);
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
  guard_scratch_arena("leaving", cell);
  if (error) std::rethrow_exception(error);
}

}  // namespace

std::size_t worker_count() { return pool().size(); }

void set_worker_count(std::size_t n) { pool().resize(n); }

std::vector<CellStats> run_cells(std::size_t n, const CellFn& fn) {
  std::vector<CellStats> stats(n);
  // One worker, or a nested run_cells from inside a cell: the exact
  // serial path, cells inline in grid order with the same guards.
  pool().run(
      n,
      [&](std::size_t cell, std::size_t worker) { run_cell(fn, stats[cell], cell, worker); },
      /*inline_only=*/t_in_cell);
  return stats;
}

}  // namespace bmg::shard
