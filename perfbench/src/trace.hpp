// Span ledger of the traced build (bmg_perf_traced).
//
// The wrappers generated from trace_hooks.def open a span around every
// intercepted call.  Spans nest per thread; a span's self time is its
// duration minus its direct child spans on the same thread.  Only
// calls made while some thread is inside a measured span (between
// begin_measure() and end_measure()) are recorded, so set-up work
// never reaches the per-layer numbers.
//
// Threads that call begin_measure() are the measuring threads (the
// benchmark's main thread, or each shard-pool cell).  Their top-level
// span time is what the layer self times add up to; the rest of their
// measured wall time is sim.untraced_s.  Spans on helper threads (the
// fork-join executor's workers, the ProofService worker) are counted
// in calls and items but kept out of the self times, and reported on
// their own as parallel.helper_s.
//
// In the untraced build every function here is an empty inline, so
// bmg_perf runs the libraries exactly as any other program would.
#pragma once

#include <cstddef>
#include <map>
#include <string>

namespace perfbench::trace {

#ifdef PERFBENCH_TRACE
inline constexpr bool kEnabled = true;
/// Marks the calling thread as measuring until end_measure().
void begin_measure();
void end_measure();
/// Starts a new round: clears the per-round verify repeat memo.
void begin_round();
/// Per-layer metrics from the spans recorded so far, counts and times
/// divided by `rounds`.  Adds the ledger's own entries:
/// sim.untraced_s, parallel.helper_s and trace.accounted_share.
[[nodiscard]] std::map<std::string, double> layer_metrics(std::size_t rounds);
#else
inline constexpr bool kEnabled = false;
inline void begin_measure() {}
inline void end_measure() {}
inline void begin_round() {}
[[nodiscard]] inline std::map<std::string, double> layer_metrics(std::size_t) { return {}; }
#endif

/// RAII form of begin_measure()/end_measure().
class Measured {
 public:
  Measured() { begin_measure(); }
  ~Measured() { end_measure(); }
  Measured(const Measured&) = delete;
  Measured& operator=(const Measured&) = delete;
};

}  // namespace perfbench::trace
