// bmg_perf / bmg_perf_traced: runs one benchmark workload for a wall
// budget and prints its metrics.
//
//   bmg_perf --workload NAME --seed N --seconds S --scratch DIR
//
// The workload's fixed input (a pure function of the seed) is run in
// rounds until S seconds have passed; every round must reproduce the
// first round's outcome digest.  End-to-end metrics are medians over
// rounds.  The traced build additionally reports the span ledger and
// fails when a span the workload must exercise recorded no calls.
// The last stdout line is one JSON object; the exit code is non-zero
// when any outcome check failed.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>

#include "common/parallel.hpp"
#include "common/shard_pool.hpp"
#include "crypto/sha256.hpp"
#include "trace.hpp"
#include "workloads.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using perfbench::Round;

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "bmg_perf: %s\nusage: bmg_perf --workload NAME --seed N --seconds S "
               "--scratch DIR\n",
               msg);
  std::exit(2);
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::size_t thread_count_now() {
  std::size_t n = 0;
  for ([[maybe_unused]] const auto& e : std::filesystem::directory_iterator("/proc/self/task"))
    ++n;
  return n;
}

void put_metrics(std::string& out, const std::map<std::string, double>& m) {
  out += "{";
  bool first = true;
  char buf[64];
  for (const auto& [k, v] : m) {
    std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
    out += (first ? "\"" : ", \"") + k + "\": " + buf;
    first = false;
  }
  out += "}";
}

}  // namespace

int main(int argc, char** argv) {
  std::string name, scratch;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing flag value");
      return argv[++i];
    };
    const std::string flag = argv[i];
    char* end = nullptr;
    if (flag == "--workload") {
      name = value();
    } else if (flag == "--seed") {
      const std::string v = value();
      seed = std::strtoull(v.c_str(), &end, 10);
      if (v.empty() || *end != '\0') usage("--seed needs a whole number");
      have_seed = true;
    } else if (flag == "--seconds") {
      const std::string v = value();
      seconds = std::strtod(v.c_str(), &end);
      if (v.empty() || *end != '\0' || !(seconds > 0)) usage("--seconds needs a positive number");
    } else if (flag == "--scratch") {
      scratch = value();
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_seed || seconds <= 0 || scratch.empty()) usage("missing flags");
  const perfbench::Workload* w = nullptr;
  for (const auto& c : perfbench::workloads())
    if (name == c.name) w = &c;
  if (w == nullptr) usage(("unknown workload " + name).c_str());

  // Both pools sized explicitly, never from hardware defaults.
  bmg::parallel::set_thread_count(w->pools.executor_threads);
  bmg::shard::set_worker_count(w->pools.shard_workers);

  std::vector<Round> rounds;
  std::vector<std::string> errors;
  std::string digest;
  std::size_t max_threads = thread_count_now();
  const auto t_start = std::chrono::steady_clock::now();
  const auto elapsed = [&] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t_start).count();
  };
  // Set-up probes: the set-up alone, several times, before any round.
  // They also warm the allocator and caches for the first round.
  constexpr std::size_t kSetupProbes = 5;
  std::vector<double> setup;
  constexpr std::size_t kMinRounds = 3;
  try {
    for (std::size_t i = 0; i < kSetupProbes; ++i) setup.push_back(w->setup(seed, scratch));
    while (rounds.size() < kMinRounds || elapsed() < seconds) {
      perfbench::trace::begin_round();
      Round r = w->run(seed, scratch);
      max_threads = std::max(max_threads, thread_count_now());
      const std::string d = bmg::crypto::Sha256::digest(bmg::ByteView{
          reinterpret_cast<const std::uint8_t*>(r.outcome.data()), r.outcome.size()}).hex();
      if (rounds.empty()) {
        digest = d;
        std::printf("outcome (round 1):\n%s\n", r.outcome.c_str());
      } else if (d != digest) {
        errors.push_back("round " + std::to_string(rounds.size() + 1) +
                         " outcome differs from round 1 (nondeterminism)");
      }
      for (const std::string& e : r.errors) errors.push_back(e);
      std::fprintf(stderr,
                   "round %zu: setup %.4f s, span %.4f s wall, %.4f s cpu, %.0f s simulated\n",
                   rounds.size() + 1, r.setup_s, r.wall_s, r.cpu_s, r.sim_s);
      rounds.push_back(std::move(r));
      if (!errors.empty()) break;
    }
  } catch (const std::exception& e) {
    errors.push_back(std::string("the workload threw: ") + e.what());
  }
  if (rounds.empty()) {
    // Nothing to report: set-up or the first round failed.
    for (const std::string& e : errors) std::fprintf(stderr, "CHECK FAILED: %s\n", e.c_str());
    std::printf("{\"workload\": \"%s\", \"correct\": false}\n", w->name);
    return 1;
  }
  const std::size_t nproc = static_cast<std::size_t>(sysconf(_SC_NPROCESSORS_ONLN));
  if (max_threads > nproc)
    errors.push_back("process ran " + std::to_string(max_threads) + " threads on " +
                     std::to_string(nproc) + " CPUs");

  // --- end-to-end --------------------------------------------------------
  std::vector<double> wall_day, cpu_day, pps, tps;
  std::uint64_t attempted = 0, failed = 0;
  double wall_total = 0, sim_total = 0;
  std::map<std::string, double> layer_sum;
  std::vector<double> cell_cpu;
  for (const Round& r : rounds) {
    const double days = r.sim_s / 86400.0;
    wall_day.push_back(r.wall_s / days);
    cpu_day.push_back(r.cpu_s / days);
    pps.push_back(static_cast<double>(r.packets) / r.wall_s);
    tps.push_back(static_cast<double>(r.trie_ops) / r.wall_s);
    setup.push_back(r.setup_s);
    attempted += r.attempted;
    failed += r.failed;
    wall_total += r.wall_s;
    sim_total += r.sim_s;
    for (const auto& [k, v] : r.layer) {
      if (k.rfind("_shard.cell_cpu_s.", 0) == 0)
        cell_cpu.push_back(v);
      else
        layer_sum[k] += v;
    }
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const double failed_share =
      attempted > 0 ? static_cast<double>(failed) / static_cast<double>(attempted) : 1.0;
  const std::map<std::string, double> e2e = {
      {"wall_s_per_sim_day", median(wall_day)},
      {"cpu_s_per_sim_day", median(cpu_day)},
      {"packets_per_s", median(pps)},
      {"trie_ops_per_s", median(tps)},
      {"setup_s", median(setup)},
      {"peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0},
      {"failed_share", failed_share},
  };

  // --- per layer ---------------------------------------------------------
  const double n = static_cast<double>(rounds.size());
  std::map<std::string, double> layer = perfbench::trace::layer_metrics(rounds.size());
  const auto sum = [&](const char* k) {
    const auto it = layer_sum.find(k);
    return it == layer_sum.end() ? 0.0 : it->second;
  };
  const double sim_days = sim_total / 86400.0;
  for (const auto& [k, v] : layer_sum)
    if (k[0] != '_') layer[k] = v / n;
  const double txs = sum("_host.txs");
  const double packets_sent = static_cast<double>(attempted);
  layer["host.txs_per_packet"] = packets_sent > 0 ? txs / packets_sent : 0.0;
  layer["host.tx_success_share"] = txs > 0 ? sum("_host.ok") / txs : 0.0;
  layer["guest.blocks_per_sim_day"] = sum("_guest.blocks") / sim_days;
  layer["relayer.lc_update_txs_mean"] =
      sum("relayer.lc_updates") > 0 ? sum("_relayer.update_txs") / sum("relayer.lc_updates") : 0.0;
  layer["sim.events_per_sim_day"] = sum("_sim.events") / sim_days;
  layer["sim.events_per_wall_s"] = sum("_sim.events") / wall_total;
  // Accessor-derived metrics of layers a workload does not run read 0.
  for (const char* k :
       {"trie.page.faults_per_kop", "trie.page.evictions", "trie.page.freed",
        "trie.page.resident_mb", "trie.page.spill_mb", "trie.page.live_pages",
        "shard.efficiency", "shard.imbalance", "relayer.lc_updates", "relayer.pipeline.retries",
        "relayer.pipeline.timeouts", "relayer.pipeline.dead_letters",
        "relayer.stranded_timeouts", "audit.violations",
        "adversary.actions"})
    layer.try_emplace(k, 0.0);
  std::sort(cell_cpu.begin(), cell_cpu.end());
  layer["shard.cell_cpu_s_p50"] = cell_cpu.empty() ? 0.0 : median(cell_cpu);
  layer["shard.cell_cpu_s_tail"] = cell_cpu.empty() ? 0.0 : cell_cpu.back();

  if (perfbench::trace::kEnabled) {
    for (const std::string& span : w->required_spans)
      if (layer[span.ends_with(".batches") ? span : span + ".calls"] <= 0)
        errors.push_back("span " + span + " recorded no calls (hook unlinked?)");
    const double accounted = layer["trace.accounted_share"];
    if (std::fabs(accounted - 1.0) > 0.05 || layer["sim.untraced_s"] < 0)
      errors.push_back("layer self times + sim.untraced_s cover " +
                       std::to_string(accounted) + " of the measured span");
  }

  for (const std::string& e : errors) std::fprintf(stderr, "CHECK FAILED: %s\n", e.c_str());
  std::printf("workload=%s seed=%llu rounds=%zu digest=%s\n", w->name,
              static_cast<unsigned long long>(seed), rounds.size(), digest.c_str());

  const std::string env =
      "{\"nproc\": " + std::to_string(nproc) + ", \"threads\": " + std::to_string(max_threads) +
      ", \"executor_threads\": " + std::to_string(w->pools.executor_threads) +
      ", \"shard_workers\": " + std::to_string(w->pools.shard_workers) +
      ", \"page_store\": \"" + w->page_store + "\", \"build_type\": \"" PERFBENCH_BUILD_TYPE
      "\", \"compiler\": \"" __VERSION__ "\", \"traced\": " +
      (perfbench::trace::kEnabled ? "true" : "false") + "}";
  std::string out = "{\"workload\": \"" + std::string(w->name) + "\", \"digest\": \"" + digest +
                    "\", \"correct\": " + (errors.empty() ? "true" : "false") +
                    ", \"rounds\": " + std::to_string(rounds.size()) +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) + ", \"env\": " + env + ", \"e2e\": ";
  put_metrics(out, e2e);
  out += ", \"layer\": ";
  put_metrics(out, layer);
  out += "}";
  std::printf("%s\n", out.c_str());
  return errors.empty() ? 0 : 1;
}
