// Deterministic fork-join executor.
//
// The guest chain's two CPU-bound hot paths — stake-weighted Ed25519
// quorum verification and sealable-trie root recomputation — are both
// embarrassingly parallel *within* one call, but every public result
// (root hashes, verify bitmaps, bench CSVs) must stay byte-identical
// for any thread count: the chaos suite, the seed figures and the
// empty-FaultPlan identity check all diff raw output.
//
// The executor guarantees that by construction:
//
//   * static index-range sharding — [0, n) is split into contiguous
//     shards; which *worker* executes a shard never influences what
//     the shard computes or where it writes,
//   * index-ordered reduction — shard s writes only indices in
//     [begin_s, end_s), so the merged output is the concatenation in
//     index order regardless of completion order,
//   * `threads == 1` runs the loop inline on the calling thread with
//     no pool machinery at all — the exact serial code path.
//
// The threads are a process-wide WorkerPool (common/worker_pool.hpp)
// of their own, separate from the shard pool's.  Its size comes from
// the BMG_THREADS environment variable (unset/0 → hardware
// concurrency); tests may reconfigure it with set_thread_count().
// Nested fork-join (parallel_for from inside a shard) is *supported
// by serialization*: the nested call runs its shards inline on the
// calling worker, so composed parallel code (e.g. the trie commit
// calling the batch SHA-256 API) stays deadlock-free and
// deterministic without a shard-count explosion.
#pragma once

#include <cstddef>
#include <functional>

namespace bmg::parallel {

/// A shard body: process indices [begin, end).  `shard` is the shard's
/// position in the static partition (0-based) — useful for indexing
/// per-shard scratch space.
using ShardFn = std::function<void(std::size_t begin, std::size_t end, std::size_t shard)>;

/// Number of threads the executor will use (>= 1).  First call reads
/// BMG_THREADS and builds the pool.
[[nodiscard]] std::size_t thread_count();

/// Reconfigures the pool to exactly `n` threads (0 → re-read the
/// BMG_THREADS/hardware default).  Joins existing workers first; must
/// not be called from inside a parallel region.  Intended for tests
/// and benchmark drivers.
void set_thread_count(std::size_t n);

/// True while the calling thread is executing a shard body (a nested
/// parallel_for would serialize).
[[nodiscard]] bool in_parallel_region() noexcept;

/// RAII: marks the calling thread as inside a parallel region, so any
/// parallel_for issued while the guard lives runs its body inline on
/// this thread (the exact serial path).  The shard pool wraps every
/// whole-simulation cell in one of these: cells are the scaling axis,
/// and W cells funnelling their intra-block kernels through the single
/// fork-join dispatch slot would serialize anyway — pinning a cell's
/// kernels to its own worker also keeps its working set on one core.
/// Guards may nest (restores the previous state on destruction).
class SerialRegion {
 public:
  SerialRegion() noexcept;
  ~SerialRegion();
  SerialRegion(const SerialRegion&) = delete;
  SerialRegion& operator=(const SerialRegion&) = delete;

 private:
  bool prev_;
};

/// Runs `fn` over [0, n) in contiguous shards of ceil(n / k) indices
/// (the last may be shorter), where k = min(thread_count(),
/// ceil(n / min_per_shard)).  `min_per_shard` caps the shard count; it
/// does not bound each shard's size: (n = 17, min_per_shard = 16) at 2
/// threads runs [0, 9) and [9, 17).  Blocks until all shards finish.
/// If any shard throws, the exception from the *lowest-indexed*
/// failing shard is rethrown (deterministic error propagation);
/// remaining shards still run to completion.
///
/// The shard partition depends only on (n, min_per_shard,
/// thread_count()) — never on scheduling — and shards write disjoint
/// index ranges, so output is byte-identical across runs.  With one
/// thread, n == 0, or a single shard, `fn(0, n, 0)` runs inline.
void parallel_for(std::size_t n, std::size_t min_per_shard, const ShardFn& fn);

}  // namespace bmg::parallel
