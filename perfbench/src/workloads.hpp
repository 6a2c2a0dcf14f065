// The benchmark's four workloads.  Each one is a pure function of the
// seed: it builds its own deployment or trie from public headers under
// src/ only, and owns its traffic generators, so nothing outside this
// directory can change what the benchmark runs.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// One complete run of a workload's fixed input.
struct Round {
  double setup_s = 0;  ///< time until the measured span starts
  double wall_s = 0;   ///< wall time of the measured span
  double cpu_s = 0;    ///< process user+sys CPU over the measured span
  double sim_s = 0;    ///< simulated seconds covered by the measured span
  std::uint64_t packets = 0;   ///< packets sent + received + acked
  std::uint64_t trie_ops = 0;  ///< trie set + seal + prove (trie_churn) or commits
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Canonical text of the simulated outcome; main.cpp hashes it.
  std::string outcome;
  /// Failed outcome checks (empty when the round is correct).
  std::vector<std::string> errors;
  /// Per-layer numbers read from public accessors (counts per round).
  std::map<std::string, double> layer;
};

struct Pools {
  std::size_t executor_threads = 1;  ///< fork-join executor (bmg::parallel)
  std::size_t shard_workers = 1;     ///< shard pool (bmg::shard)
};

struct Workload {
  const char* name;
  Pools pools;
  const char* page_store;  ///< trie page-store backend the workload stresses
  /// Runs one round.  `scratch_dir` is where file-backed page stores
  /// may spill (inside the benchmark's build directory).
  Round (*run)(std::uint64_t seed, const std::string& scratch_dir);
  /// Performs only the set-up part of a round and returns its seconds.
  double (*setup)(std::uint64_t seed, const std::string& scratch_dir);
  /// Spans that must record calls on this workload (traced runs).
  std::vector<std::string> required_spans;
};

[[nodiscard]] const std::vector<Workload>& workloads();

}  // namespace perfbench
