// Adversary campaign grid (PR 8): every shipped AdversaryPlan scenario
// × seeds, one full deployment + Campaign per shard-pool cell, scoring
// three axes per cell:
//
//   safety    — the InvariantAuditor must never trip at sub-quorum
//               stake (violations merge into the grid verdict and flip
//               the exit code);
//   liveness  — cp->guest transfers sent *into* the attack windows
//               must all be received and acknowledged within the
//               drain budget (delivery rate, recv latency mean/p99);
//   slashing  — detection->prosecution economics: offenders banned,
//               time-to-detection, stake slashed / reporter reward /
//               burned, attacker vs. defender fee spend.
//
// Cells are pure functions of (scenario, seed): adversary RNG streams
// derive from the deployment seed, the workload cadence is fixed, and
// rows land in grid-order slots — so the stdout CSV is byte-identical
// at any --shard-workers count (the CI determinism leg diffs 1/2/8).
//
//   adversary_campaign [--seeds N] [--scenario NAME] [--shard-workers W]
//                      [--timing-csv PATH]
//
//   --seeds N          seeds 42..42+N-1 per scenario (default 2)
//   --scenario NAME    run a single shipped scenario (default: all)
//   --shard-workers W  shard workers (default: BMG_SHARD_WORKERS or
//                      hardware)
//   --timing-csv PATH  per-cell wall/CPU timing rows (see grid.hpp)
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "adversary/campaign.hpp"
#include "adversary/scenarios.hpp"
#include "audit/auditor.hpp"
#include "bench_common.hpp"
#include "common/stats.hpp"
#include "grid.hpp"

namespace {

using namespace bmg;

// Campaign phase layout, relative to handshake completion: a short
// settle, the attack, then a drain long enough for withheld acks
// (<= 240 s windows), pipeline retries and prosecutions to land.
constexpr double kSettleS = 30.0;
constexpr double kAttackS = 1200.0;
constexpr double kDrainS = 1800.0;
constexpr double kDeltaS = 300.0;     // guest Δ override: enough blocks
                                      // inside the window to equivocate on
constexpr double kSendEveryS = 90.0;  // cp->guest workload cadence

struct CampaignCell {
  std::string scenario;
  std::uint64_t seed = 0;
};

struct SendRec {
  ibc::Packet packet;
  double sent_at = 0;
  double recv_at = -1;  ///< first seen received on the guest
};

bench::CellOutput run_cell(std::size_t cell, const CampaignCell& cc) {
  relayer::DeploymentConfig cfg = bench::paper_config(cc.seed);
  cfg.guest.delta_seconds = kDeltaS;
  relayer::Deployment d(cfg);
  audit::InvariantAuditor auditor(d.sim(), d.host(), d.guest(), d.cp());
  auditor.start();
  d.open_ibc();
  auditor.watch_client(d.guest_client_on_cp());
  auditor.watch_transfer_lane(
      audit::TransferLane{d.guest_channel(), d.cp_channel(), "SOL", "PICA"});

  const double t0 = d.sim().now();
  const double attack_start = t0 + kSettleS;
  const double attack_end = attack_start + kAttackS;

  const auto all = adversary::campaign_scenarios(attack_start, attack_end);
  const adversary::ScenarioSpec* spec = adversary::find_scenario(all, cc.scenario);
  if (spec == nullptr) {
    std::fprintf(stderr, "adversary_campaign: unknown scenario '%s'\n",
                 cc.scenario.c_str());
    std::exit(2);
  }
  // Crash composition: kill the fisherman for five minutes in the
  // middle of the attack — detection must survive via the on-chain
  // evidence re-derivation path.
  if (spec->crash_fisherman)
    d.host().fault_plan().crash(attack_start + 120.0, attack_start + 420.0,
                                "fisherman");

  adversary::Campaign campaign(d, spec->plan);
  campaign.start();

  // Fixed-cadence cp->guest workload aimed into the attack windows
  // (the direction every griefing/fee attack fires on).
  auto recs = std::make_shared<std::vector<SendRec>>();
  for (int i = 0;; ++i) {
    const double at = attack_start + kSendEveryS * static_cast<double>(i);
    if (at >= attack_end) break;
    const std::uint64_t amount = 10 + static_cast<std::uint64_t>(i);
    d.sim().after(at - t0, [&d, recs, amount] {
      SendRec r;
      r.packet = d.send_transfer_from_cp(amount);
      r.sent_at = d.sim().now();
      recs->push_back(std::move(r));
    });
  }
  // Receipt poller: marks each packet's first-received time (2 s
  // granularity is plenty for latency quantiles in seconds).
  std::function<void()> poll = [&d, recs, &poll, attack_end] {
    for (SendRec& r : *recs) {
      if (r.recv_at >= 0) continue;
      if (d.guest().ibc().packet_received("transfer", d.guest_channel(),
                                          r.packet.sequence))
        r.recv_at = d.sim().now();
    }
    if (d.sim().now() < attack_end + kDrainS) d.sim().after(2.0, poll);
  };
  d.sim().after(2.0, poll);

  // Run the attack window to completion first (every send must fire
  // before the clear-check can mean anything), then drain.
  d.run_for(attack_end - t0);

  // Liveness bar: everything sent into the attack is received AND
  // acknowledged before the drain budget runs out.
  const auto all_clear = [&] {
    for (const SendRec& r : *recs) {
      if (r.recv_at < 0) return false;
      if (d.cp().ibc().packet_pending("transfer", d.cp_channel(), r.packet.sequence))
        return false;
    }
    return !recs->empty();
  };
  const bool live = d.run_until(all_clear, kDrainS);
  auditor.check_now("final");

  Series recv_latency;
  std::size_t delivered = 0, acked = 0;
  for (const SendRec& r : *recs) {
    if (r.recv_at >= 0) {
      ++delivered;
      recv_latency.add(r.recv_at - r.sent_at);
    }
    if (!d.cp().ibc().packet_pending("transfer", d.cp_channel(), r.packet.sequence))
      ++acked;
  }

  const adversary::AdversaryCounters& ctr = campaign.counters();
  const adversary::Campaign::Economics& eco = campaign.economics();
  const Series& det = campaign.detection_latency();

  char buf[768];
  std::snprintf(
      buf, sizeof(buf),
      "%zu,%s,%llu,%zu,%zu,%zu,%.3f,%.3f,%s,%zu,%zu,%llu,%llu,%llu,%llu,%zu,%.3f,%.3f,"
      "%.4f,%.4f,%s\n",
      cell, cc.scenario.c_str(), static_cast<unsigned long long>(cc.seed),
      recs->size(), delivered, acked,
      bench::mean_or_zero(recv_latency), bench::quantile_or_zero(recv_latency, 0.99),
      ctr.csv_row().c_str(), campaign.offenders().size(), campaign.offenders_banned(),
      static_cast<unsigned long long>(eco.slashed_count),
      static_cast<unsigned long long>(eco.stake_slashed),
      static_cast<unsigned long long>(eco.reporter_reward),
      static_cast<unsigned long long>(eco.stake_burned), det.count(),
      bench::mean_or_zero(det), bench::quantile_or_zero(det, 1.0),
      campaign.attacker_fees_usd(), campaign.fisherman_fees_usd(),
      d.guest().store().root_hash().hex().c_str());

  audit::Verdict verdict =
      auditor.verdict(cc.scenario + " seed " + std::to_string(cc.seed));
  if (!live) {
    // A liveness miss is a finding, not a formatting concern: report it
    // through the same verdict channel that gates the exit code.
    verdict.violations += 1;
    verdict.report += "LIVENESS " + cc.scenario + " seed " +
                      std::to_string(cc.seed) + ": " + std::to_string(delivered) +
                      "/" + std::to_string(recs->size()) + " received, " +
                      std::to_string(acked) + " acked within budget\n";
  }
  return bench::CellOutput{buf, std::move(verdict)};
}

}  // namespace

int main(int argc, char** argv) {
  int seeds = 2;
  const char* only = nullptr;
  const char* timing_csv = nullptr;
  bench::parse_flags(argc, argv,
                     {bench::integer("--seeds", seeds), bench::text("--scenario", only),
                      bench::shard_workers(), bench::text("--timing-csv", timing_csv)});

  // Static grid: shipped scenarios × seeds, fixed order.  Window times
  // passed here are placeholders — each cell rebuilds the table against
  // its own deployment's post-handshake clock; only the names matter.
  const auto shipped = adversary::campaign_scenarios(0.0, 1.0);
  std::vector<CampaignCell> grid;
  for (const auto& spec : shipped) {
    if (only != nullptr && spec.name != only) continue;
    for (int s = 0; s < seeds; ++s)
      grid.push_back(CampaignCell{spec.name, 42 + static_cast<std::uint64_t>(s)});
  }
  if (grid.empty()) {
    std::fprintf(stderr, "adversary_campaign: no scenario named '%s'\n", only);
    return 2;
  }

  std::fprintf(stderr, "adversary_campaign: %zu cells, %zu shard workers\n",
               grid.size(), shard::worker_count());

  const bench::GridResult g = bench::run_grid(
      grid.size(), [&](std::size_t i) { return run_cell(i, grid[i]); });

  std::printf("cell,scenario,seed,sends,delivered,acked,recv_mean_s,recv_p99_s,%s,"
              "offenders,banned,slashed,stake_slashed,reporter_reward,stake_burned,"
              "detect_n,detect_mean_s,detect_max_s,attacker_usd,fisherman_usd,"
              "state_root\n",
              adversary::AdversaryCounters::csv_header());
  bench::print_cells(g);

  std::fprintf(stderr, "adversary_campaign: wall=%.3fs\n", g.wall_s);
  bench::write_timing(g, timing_csv, "adversary_campaign");

  if (!g.verdict.clean())
    std::fprintf(stderr, "adversary_campaign: FAIL %s\n", g.verdict.report.c_str());
  return g.verdict.clean() ? 0 : 1;
}
