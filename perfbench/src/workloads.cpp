#include "workloads.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <optional>

#include "adversary/campaign.hpp"
#include "adversary/scenarios.hpp"
#include "audit/auditor.hpp"
#include "common/rng.hpp"
#include "common/shard_pool.hpp"
#include "crypto/sha256.hpp"
#include "ibc/commitment.hpp"
#include "relayer/deployment.hpp"
#include "trace.hpp"
#include "trie/snapshot.hpp"
#include "trie/trie.hpp"

namespace perfbench {
namespace {

using namespace bmg;

double wall_now() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double process_cpu_now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

const ibc::PortId kPort = "transfer";

// --- full-stack workloads --------------------------------------------------

enum class Overlay { kClean, kReorgStorm, kAdversary, kChaos };

struct StackSpec {
  relayer::DeploymentConfig cfg;
  double guest_mean_s = 0;  ///< Poisson mean inter-arrival, simulated seconds
  double cp_mean_s = 0;
  double window_s = 0;  ///< traffic window
  /// After the measured span the simulation runs on, in one-minute
  /// steps, until no packet can still complete or this much simulated
  /// time has passed.  The cap is far beyond any stall the grid's
  /// overlays (reorgs, adversary, relayer crash) cause.
  double drain_cap_s = 48.0 * 3600.0;
  Overlay overlay = Overlay::kClean;
  /// Grid cells count their set-up inside the measured span (the grid's
  /// span is the whole shard-pool run); single deployments do not.
  bool setup_in_span = false;
};

/// §V-A client fee policies: 17% priority fees (~1.40 USD), 83%
/// bundles (~3.02 USD).
host::FeePolicy client_fee(Rng& rng) {
  if (rng.chance(0.17)) return relayer::priority_fee_for_usd(1.40, 61'000);
  return host::FeePolicy::bundle(host::usd_to_lamports(3.02 - 0.001));
}

/// Arrival times of an open-loop Poisson process on [start, end)
/// conditioned on its expected count: given the count, Poisson arrival
/// times are independent and uniform.  Fixing the count keeps the work
/// per round the same across seeds, so a seed changes when packets go
/// out but not how many.
std::vector<double> poisson_arrivals(Rng& rng, double start, double end, double mean_gap) {
  const auto n = static_cast<std::size_t>((end - start) / mean_gap + 0.5);
  std::vector<double> t(n);
  for (double& x : t) x = rng.uniform(start, end);
  std::sort(t.begin(), t.end());
  return t;
}

/// Open-loop transfers from one side at pre-drawn arrival times.
class PoissonSends {
 public:
  PoissonSends(relayer::Deployment& d, bool from_guest, double mean_s, double until)
      : d_(d), from_guest_(from_guest), rng_(d.rng().fork()),
        at_(poisson_arrivals(rng_, d.sim().now(), until, mean_s)) {
    schedule_next();
  }
  PoissonSends(const PoissonSends&) = delete;
  PoissonSends& operator=(const PoissonSends&) = delete;

 private:
  void schedule_next() {
    if (next_ == at_.size()) return;
    d_.sim().at(at_[next_++], [this] {
      if (from_guest_)
        (void)d_.send_transfer_from_guest(100, client_fee(rng_));
      else
        (void)d_.send_transfer_from_cp(10);
      schedule_next();
    });
  }

  relayer::Deployment& d_;
  bool from_guest_;
  Rng rng_;
  std::vector<double> at_;
  std::size_t next_ = 0;
};

/// Table I's 24-validator roster (fees, latency medians and Q3s as in
/// the paper) without the outage tails of validators #1 and #9.  The
/// guest quorum needs all 17 active validators, so one tail sample on a
/// handshake block outlasts Deployment::open_ibc()'s fixed 600 s wait
/// for finalisation and set-up throws "guest block did not finalise in
/// time": with the tails, about one seed in 70 (seed 4294967296 on
/// scenario_grid, for one).
std::vector<relayer::ValidatorProfile> paper_validators_without_outages() {
  std::vector<relayer::ValidatorProfile> roster = relayer::paper_validators();
  for (relayer::ValidatorProfile& p : roster) p.latency.outage_prob = 0.0;
  return roster;
}

/// The paper's §IV–V deployment: Table I roster (without outage tails),
/// 160 counterparty validators at 70–100% participation, 6 s blocks,
/// Δ = 1 h.
relayer::DeploymentConfig paper_deployment(std::uint64_t seed) {
  relayer::DeploymentConfig cfg;
  cfg.seed = seed;
  cfg.guest.delta_seconds = 3600.0;
  cfg.guest.epoch_length_host_slots = 1'000'000'000;
  cfg.validators = paper_validators_without_outages();
  cfg.counterparty.num_validators = 160;
  cfg.counterparty.participation_min = 0.70;
  cfg.counterparty.participation_max = 1.00;
  cfg.counterparty.block_interval_s = 6.0;
  cfg.relayer.sigs_per_update_tx = 4;
  return cfg;
}

struct Cell {
  double setup_s = 0;
  double wall_s = 0;
  double cpu_s = 0;  ///< process CPU over the measured span
  double sim_s = 0;
  std::uint64_t sent = 0, received = 0, acked = 0, pending = 0, commits = 0;
  std::string outcome;
  std::vector<std::string> errors;
  std::map<std::string, double> layer;
};

std::uint64_t count_received(const ibc::IbcModule& dest, const ibc::ChannelId& ch,
                             std::uint64_t sent) {
  std::uint64_t n = 0;
  for (std::uint64_t s = 1; s <= sent; ++s) n += dest.packet_received(kPort, ch, s) ? 1 : 0;
  return n;
}

/// Unresolved outgoing packets of one channel end.  `stranded` ones are
/// past their timeout at the destination without having been received
/// there: nothing relays their timeout back to the source
/// (RelayerAgent::deliver_timeout_to_guest has no caller in src/), so
/// they stay unresolved for good.  They count as failed operations; any
/// other unresolved packet after the drain fails the run.
struct Pending {
  std::uint64_t live = 0;
  std::uint64_t stranded = 0;
};

Pending split_pending(const ibc::IbcModule& src, const ibc::ChannelId& src_ch,
                      const ibc::IbcModule& dst, const ibc::ChannelId& dst_ch, double now) {
  Pending p;
  for (std::uint64_t seq : src.pending_send_sequences(kPort, src_ch)) {
    const ibc::Packet* packet = src.sent_packet(kPort, src_ch, seq);
    const bool expired = packet != nullptr && packet->timeout_timestamp != 0 &&
                         now >= packet->timeout_timestamp;
    if (expired && !dst.packet_received(kPort, dst_ch, seq))
      ++p.stranded;
    else
      ++p.live;
  }
  return p;
}

/// A deployment with its handshake done and the auditor watching: the
/// set-up every full-stack workload pays before its measured span.
struct Stack {
  explicit Stack(const StackSpec& spec)
      : d(config_for(spec)), auditor(d.sim(), d.host(), d.guest(), d.cp()) {
    auditor.start();
    d.open_ibc();
    auditor.watch_client(d.guest_client_on_cp());
    auditor.watch_transfer_lane(
        audit::TransferLane{d.guest_channel(), d.cp_channel(), "SOL", "PICA"});
  }

  static relayer::DeploymentConfig config_for(const StackSpec& spec) {
    relayer::DeploymentConfig cfg = spec.cfg;
    if (spec.overlay == Overlay::kReorgStorm) {
      cfg.host.fork_aware = true;
      cfg.relayer.pipeline.commitment = host::Commitment::kRooted;
    }
    return cfg;
  }

  relayer::Deployment d;
  audit::InvariantAuditor auditor;
};

double stack_setup_s(const StackSpec& spec) {
  const double t0 = wall_now();
  const Stack st(spec);
  return wall_now() - t0;
}

Cell run_stack(const StackSpec& spec) {
  Cell c;
  std::optional<trace::Measured> span;
  if (spec.setup_in_span) span.emplace();
  const double t_setup = wall_now();
  Stack st(spec);
  c.setup_s = wall_now() - t_setup;
  relayer::Deployment& d = st.d;
  audit::InvariantAuditor& auditor = st.auditor;

  const host::Chain& host = d.host();
  const std::uint64_t txs0 = host.executed_count() + host.failed_count() + host.dropped_count();
  const std::uint64_t ok0 = host.executed_count();
  const std::size_t blocks0 = d.guest().block_count();
  const ibc::Height cp0 = d.cp().height();
  const std::uint64_t events0 = d.sim().events_processed();
  const relayer::TxPipeline& pipe = d.relayer().pipeline();
  const std::uint64_t retries0 = pipe.retries_total();
  const std::uint64_t timeouts0 = pipe.timeouts_total();
  const std::size_t dead0 = pipe.dead_letters().size();
  const std::size_t updates0 = d.relayer().update_tx_counts().count();

  if (!spec.setup_in_span) span.emplace();
  const double t0 = wall_now();
  const double cpu0 = process_cpu_now();
  const double start = d.sim().now();
  const double until = start + spec.window_s;

  std::optional<adversary::Campaign> campaign;
  switch (spec.overlay) {
    case Overlay::kClean:
      break;
    case Overlay::kReorgStorm:
      d.host().fault_plan().reorg(start + 30.0, until, 4, 0.08, 1.0);
      break;
    case Overlay::kAdversary: {
      const auto table = adversary::campaign_scenarios(start + 30.0, until);
      campaign.emplace(d, adversary::find_scenario(table, "combined")->plan);
      campaign->start();
      break;
    }
    case Overlay::kChaos:
      d.host().fault_plan().congestion(start + 30.0, until, 3.0);
      d.host().fault_plan().crash(start + 120.0, start + 420.0, "relayer");
      (void)d.schedule_crashes();
      break;
  }
  PoissonSends guest_load(d, true, spec.guest_mean_s, until);
  PoissonSends cp_load(d, false, spec.cp_mean_s, until);
  d.run_for(spec.window_s);
  const ibc::IbcModule& gi = d.guest().ibc();
  const ibc::IbcModule& ci = d.cp().ibc();
  const auto pending = [&] {
    const double now = d.sim().now();
    Pending g = split_pending(gi, d.guest_channel(), ci, d.cp_channel(), now);
    const Pending c2g = split_pending(ci, d.cp_channel(), gi, d.guest_channel(), now);
    g.live += c2g.live;
    g.stranded += c2g.stranded;
    return g;
  };
  // A send submitted just before the window closes may execute a few
  // slots later, so the measured span ends kMinDrainS after the window.
  constexpr double kMinDrainS = 300.0;
  d.run_for(kMinDrainS);
  c.wall_s = wall_now() - t0;
  c.cpu_s = process_cpu_now() - cpu0;
  span.reset();
  // Simulated days count the traffic window only, so every seed carries
  // the same traffic per simulated day.
  c.sim_s = spec.window_s;
  c.commits = (d.guest().block_count() - blocks0) + (d.cp().height() - cp0);
  const Series& updates = d.relayer().update_tx_counts();
  double update_txs = 0;
  for (std::size_t i = updates0; i < updates.count(); ++i) update_txs += updates.samples()[i];
  auto& L = c.layer;
  L["_host.txs"] = static_cast<double>(host.executed_count() + host.failed_count() +
                                       host.dropped_count() - txs0);
  L["_host.ok"] = static_cast<double>(host.executed_count() - ok0);
  L["_guest.blocks"] = static_cast<double>(d.guest().block_count() - blocks0);
  L["_sim.events"] = static_cast<double>(d.sim().events_processed() - events0);
  L["_relayer.update_txs"] = update_txs;
  L["relayer.lc_updates"] = static_cast<double>(updates.count() - updates0);
  L["relayer.pipeline.retries"] = static_cast<double>(pipe.retries_total() - retries0);
  L["relayer.pipeline.timeouts"] = static_cast<double>(pipe.timeouts_total() - timeouts0);
  L["relayer.pipeline.dead_letters"] = static_cast<double>(pipe.dead_letters().size() - dead0);

  // Outside the span: packets held up by a stalled quorum get time to
  // complete.  This drain's length depends on the seed, so it is not
  // measured.
  for (double waited = kMinDrainS; waited < spec.drain_cap_s && pending().live > 0; waited += 60.0)
    d.run_for(60.0);
  auditor.check_now("final");

  // Delivery from chain state: commitments still unresolved on either
  // side after the drain are packets that never completed.
  const std::uint64_t g_sent = gi.sequences(kPort, d.guest_channel()).next_send - 1;
  const std::uint64_t c_sent = ci.sequences(kPort, d.cp_channel()).next_send - 1;
  const std::uint64_t g_pending = gi.pending_send_sequences(kPort, d.guest_channel()).size();
  const std::uint64_t c_pending = ci.pending_send_sequences(kPort, d.cp_channel()).size();
  const Pending left = pending();
  c.sent = g_sent + c_sent;
  c.pending = g_pending + c_pending;
  c.received = count_received(ci, d.cp_channel(), g_sent) +
               count_received(gi, d.guest_channel(), c_sent);
  c.acked = c.sent - c.pending;

  const audit::Verdict verdict = auditor.verdict();
  if (!verdict.clean()) c.errors.push_back("auditor: " + verdict.report);
  if (c.sent == 0) c.errors.push_back("no packets were sent");
  if (left.live > 0)
    c.errors.push_back(std::to_string(left.live) + " of " + std::to_string(c.sent) +
                       " packets unresolved after the drain");
  if (c.received + left.stranded != c.sent)
    c.errors.push_back(std::to_string(c.received) + " of " + std::to_string(c.sent) +
                       " packets received, " + std::to_string(left.stranded) + " stranded");
  if (left.stranded > 0)
    std::fprintf(stderr,
                 "note: %llu packets timed out at their destination and were never timed "
                 "out at the source (counted as failed)\n",
                 static_cast<unsigned long long>(left.stranded));

  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "guest_sent=%llu cp_sent=%llu guest_pending=%llu cp_pending=%llu "
                "received=%llu guest_blocks=%zu cp_height=%llu ",
                static_cast<unsigned long long>(g_sent), static_cast<unsigned long long>(c_sent),
                static_cast<unsigned long long>(g_pending),
                static_cast<unsigned long long>(c_pending),
                static_cast<unsigned long long>(c.received), d.guest().block_count(),
                static_cast<unsigned long long>(d.cp().height()));
  c.outcome = buf;
  c.outcome += "guest_root=" + d.guest().store().root_hash().hex();
  c.outcome += " cp_root=" + d.cp().store().root_hash().hex();
  c.outcome += " guest_bank=" + audit::token_state_digest(d.guest().bank());
  c.outcome += " cp_bank=" + audit::token_state_digest(d.cp().bank());
  L["audit.violations"] = static_cast<double>(verdict.violations);
  L["relayer.stranded_timeouts"] = static_cast<double>(left.stranded);
  L["adversary.actions"] =
      campaign.has_value() ? static_cast<double>(campaign->counters().total()) : 0.0;
  return c;
}

Round round_from_cells(const std::vector<Cell>& cells) {
  Round r;
  std::vector<double> setups;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const Cell& c = cells[i];
    setups.push_back(c.setup_s);
    r.sim_s += c.sim_s;
    r.packets += c.sent + c.received + c.acked;
    r.trie_ops += c.commits;
    r.attempted += c.sent;
    r.failed += c.pending;
    r.outcome += "cell" + std::to_string(i) + " " + c.outcome + "\n";
    for (const std::string& e : c.errors) r.errors.push_back("cell " + std::to_string(i) + ": " + e);
    for (const auto& [k, v] : c.layer) r.layer[k] += v;
  }
  std::sort(setups.begin(), setups.end());
  r.setup_s = setups[setups.size() / 2];
  return r;
}

Round run_single(const StackSpec& spec) {
  const Cell c = run_stack(spec);
  Round r = round_from_cells({c});
  r.wall_s = c.wall_s;
  r.cpu_s = c.cpu_s;
  return r;
}

StackSpec paper_mix_spec(std::uint64_t seed) {
  StackSpec s;
  s.cfg = paper_deployment(seed);
  s.guest_mean_s = 1500.0;  // fig2/fig3 guest->cp rate
  s.cp_mean_s = 1200.0;     // fig4/fig5 cp->guest rate
  s.window_s = 12.0 * 3600.0;
  return s;
}

StackSpec packet_storm_spec(std::uint64_t seed) {
  StackSpec s;
  s.cfg = paper_deployment(seed);
  // Table I rows #2-#5: active validators without an outage tail.
  std::vector<relayer::ValidatorProfile> roster;
  for (const auto& p : relayer::paper_validators())
    if (p.name == "validator-2" || p.name == "validator-3" || p.name == "validator-4" ||
        p.name == "validator-5")
      roster.push_back(p);
  s.cfg.validators = roster;
  s.cfg.counterparty.num_validators = 4;
  s.cfg.guest.delta_seconds = 600.0;
  s.guest_mean_s = 5.0;
  s.cp_mean_s = 5.0;
  s.window_s = 3600.0;
  return s;
}

constexpr Overlay kGridOverlays[] = {Overlay::kClean, Overlay::kReorgStorm,
                                     Overlay::kAdversary, Overlay::kChaos};
constexpr std::size_t kGridSeeds = 2;

StackSpec grid_cell_spec(std::uint64_t seed, std::size_t cell) {
  StackSpec s;
  s.cfg = paper_deployment(seed);
  s.cfg.rng_stream = cell / std::size(kGridOverlays);  // the seed axis
  s.cfg.guest.delta_seconds = 600.0;
  s.guest_mean_s = 120.0;
  s.cp_mean_s = 300.0;
  s.window_s = 1800.0;
  s.overlay = kGridOverlays[cell % std::size(kGridOverlays)];
  s.setup_in_span = true;
  return s;
}

Round paper_mix(std::uint64_t seed, const std::string&) {
  return run_single(paper_mix_spec(seed));
}
double paper_mix_setup(std::uint64_t seed, const std::string&) {
  return stack_setup_s(paper_mix_spec(seed));
}

Round packet_storm(std::uint64_t seed, const std::string&) {
  return run_single(packet_storm_spec(seed));
}
double packet_storm_setup(std::uint64_t seed, const std::string&) {
  return stack_setup_s(packet_storm_spec(seed));
}

double scenario_grid_setup(std::uint64_t seed, const std::string&) {
  return stack_setup_s(grid_cell_spec(seed, 0));
}

Round scenario_grid(std::uint64_t seed, const std::string&) {
  const std::size_t n = kGridSeeds * std::size(kGridOverlays);
  std::vector<Cell> cells(n);
  const double cpu0 = process_cpu_now();
  const double t0 = wall_now();
  const std::vector<shard::CellStats> stats = shard::run_cells(
      n, [&](std::size_t i) { cells[i] = run_stack(grid_cell_spec(seed, i)); });
  Round r = round_from_cells(cells);
  r.wall_s = wall_now() - t0;
  r.cpu_s = process_cpu_now() - cpu0;

  const double workers = static_cast<double>(shard::worker_count());
  std::vector<double> busy(shard::worker_count(), 0.0);
  double cell_cpu = 0;
  for (const shard::CellStats& s : stats) {
    cell_cpu += s.cpu_s;
    busy[s.worker] += s.wall_s;
    r.layer["_shard.cell_cpu_s." + std::to_string(s.cell)] = s.cpu_s;
  }
  double mean_busy = 0;
  for (double b : busy) mean_busy += b / workers;
  r.layer["shard.efficiency"] = cell_cpu / (workers * r.wall_s);
  r.layer["shard.imbalance"] =
      mean_busy > 0 ? *std::max_element(busy.begin(), busy.end()) / mean_busy : 0.0;
  return r;
}

// --- trie_churn ------------------------------------------------------------

Hash32 value_for(std::uint64_t seed, std::uint64_t kind, std::uint64_t seq) {
  std::uint8_t buf[24];
  for (int i = 0; i < 8; ++i) {
    buf[i] = static_cast<std::uint8_t>(seed >> (8 * i));
    buf[8 + i] = static_cast<std::uint8_t>(kind >> (8 * i));
    buf[16 + i] = static_cast<std::uint8_t>(seq >> (8 * i));
  }
  return crypto::Sha256::digest(ByteView{buf, sizeof(buf)});
}

constexpr std::uint64_t kReceipts = 150'000;
const ibc::ChannelId kSendChannel = "channel-0";
const ibc::ChannelId kRecvChannel = "channel-1";

ibc::CommitmentKey receipt_key(std::uint64_t seq) {
  return ibc::packet_key(ibc::KeyKind::kPacketReceipt, kPort, kRecvChannel, seq);
}

/// The churn's set-up: a file-backed store preloaded with live receipts
/// whose pages far outnumber the resident frames.
trie::SealableTrie preload_store(std::uint64_t seed, const std::string& scratch_dir) {
  trie::PageStoreConfig pc;
  pc.backend = trie::PageStoreConfig::Backend::kFile;
  pc.page_bytes = 4096;
  pc.max_resident_pages = 512;
  pc.file_path = scratch_dir + "/trie_churn." + std::to_string(::getpid()) + ".spill";
  trie::SealableTrie store(pc);
  ::unlink(pc.file_path.c_str());  // the open descriptor keeps the spill alive
  for (std::uint64_t s = 1; s <= kReceipts; ++s) store.set(receipt_key(s), value_for(seed, 2, s));
  store.commit();
  return store;
}

double trie_churn_setup(std::uint64_t seed, const std::string& scratch_dir) {
  const double t0 = wall_now();
  const trie::SealableTrie store = preload_store(seed, scratch_dir);
  return wall_now() - t0;
}

/// The guest's commitment store on its own, out of core.  Each
/// simulated one-second block sends Poisson(λ) packets, seals packets
/// acked `kAckWindow` blocks ago, reads back random receipts, commits,
/// publishes a snapshot, and proves the block's packets against it with
/// ProofService::prove_batch, as the relayer does; every proof is then
/// verified against the committed root.  One thread does all of it, so
/// wall time does not depend on how the host schedules helper threads.
Round trie_churn(std::uint64_t seed, const std::string& scratch_dir) {
  constexpr double kPacketsPerBlock = 64.0;
  constexpr std::size_t kBlocks = 1200;
  constexpr std::size_t kAckWindow = 16;
  constexpr std::size_t kReadsPerBlock = 32;

  Round r;
  Rng rng(seed);
  const double t_setup = wall_now();
  trie::SealableTrie store = preload_store(seed, scratch_dir);
  r.setup_s = wall_now() - t_setup;

  const trie::PageStoreStats pages0 = store.page_stats();
  std::uint64_t sets = 0, seals = 0, proofs = 0, reads = 0, bad = 0;
  std::vector<std::vector<std::uint64_t>> blocks;  // sequences sent per block
  std::uint64_t next_seq = 1;
  const auto key = [&](std::uint64_t s) {
    return ibc::packet_key(ibc::KeyKind::kPacketCommitment, kPort, kSendChannel, s);
  };

  const double cpu0 = process_cpu_now();
  const double t0 = wall_now();
  {
    const trace::Measured span;
    const std::vector<double> arrivals = poisson_arrivals(
        rng, 0.0, static_cast<double>(kBlocks), 1.0 / kPacketsPerBlock);
    std::size_t next_arrival = 0;
    for (std::size_t b = 0; b < kBlocks; ++b) {
      std::vector<std::uint64_t> sent;
      for (; next_arrival < arrivals.size() &&
             arrivals[next_arrival] < static_cast<double>(b + 1);
           ++next_arrival) {
        store.set(key(next_seq), value_for(seed, 1, next_seq));
        sent.push_back(next_seq++);
        ++sets;
      }
      if (b >= kAckWindow) {
        for (std::uint64_t s : blocks[b - kAckWindow]) store.seal(key(s));
        seals += blocks[b - kAckWindow].size();
      }
      for (std::size_t i = 0; i < kReadsPerBlock; ++i) {
        const std::uint64_t s = 1 + rng.uniform_int(kReceipts);
        Hash32 v{};
        const trie::Lookup got = store.get(receipt_key(s), &v);
        ++reads;
        if (got != trie::Lookup::kFound || v != value_for(seed, 2, s)) ++bad;
      }
      store.commit();
      const Hash32 root = store.root_hash();
      std::vector<Bytes> keys;
      for (std::uint64_t s : sent) keys.push_back(key(s).to_bytes());
      const std::vector<trie::Proof> got = trie::ProofService::prove_batch(store.snapshot(), keys);
      for (std::size_t i = 0; i < got.size(); ++i) {
        const trie::VerifyOutcome v = trie::verify_proof(root, keys[i], got[i]);
        ++proofs;
        if (v.kind != trie::VerifyOutcome::Kind::kFound || v.value != value_for(seed, 1, sent[i]))
          ++bad;
      }
      blocks.push_back(std::move(sent));
    }
  }
  r.wall_s = wall_now() - t0;
  r.cpu_s = process_cpu_now() - cpu0;
  r.sim_s = static_cast<double>(kBlocks);
  r.trie_ops = sets + seals + proofs;
  r.packets = sets + proofs + seals;  // sent, received (proven), acked (sealed)
  r.attempted = proofs + reads;
  r.failed = bad;
  if (bad > 0) r.errors.push_back(std::to_string(bad) + " proofs or reads returned wrong values");
  if (proofs != sets) r.errors.push_back("not every sent packet was proven");

  const trie::PageStoreStats pages = store.page_stats();
  const trie::TrieStats ts = store.stats();
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "root=%s sets=%llu seals=%llu proofs=%llu reads=%llu leaves=%zu sealed_refs=%zu",
                store.root_hash().hex().c_str(), static_cast<unsigned long long>(sets),
                static_cast<unsigned long long>(seals), static_cast<unsigned long long>(proofs),
                static_cast<unsigned long long>(reads), ts.leaf_count, ts.sealed_refs);
  r.outcome = buf;
  constexpr double kMiB = 1024.0 * 1024.0;
  r.layer["trie.page.faults_per_kop"] =
      static_cast<double>(pages.faults - pages0.faults) / (static_cast<double>(r.trie_ops) / 1000.0);
  r.layer["trie.page.evictions"] = static_cast<double>(pages.evictions - pages0.evictions);
  r.layer["trie.page.freed"] = static_cast<double>(pages.pages_freed - pages0.pages_freed);
  r.layer["trie.page.resident_mb"] = static_cast<double>(pages.resident_bytes()) / kMiB;
  r.layer["trie.page.spill_mb"] = static_cast<double>(pages.spill_bytes) / kMiB;
  r.layer["trie.page.live_pages"] = static_cast<double>(pages.pages_live);
  return r;
}

}  // namespace

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      {"paper_mix", {2, 1}, "memory", paper_mix, paper_mix_setup,
       {"crypto.sign", "crypto.verify_batch", "counterparty.header_at", "host.submit",
        "ibc.send_packet", "ibc.recv_packet", "ibc.acknowledge_packet", "ibc.update_client",
        "trie.commit", "relayer.submit_sequence"}},
      {"packet_storm", {2, 1}, "memory", packet_storm, packet_storm_setup,
       {"crypto.sign", "crypto.verify_batch", "counterparty.header_at", "host.submit",
        "guest.snapshot_at", "ibc.send_packet", "ibc.recv_packet", "ibc.acknowledge_packet",
        "ibc.update_client", "ibc.accept_verified", "trie.set", "trie.seal", "trie.commit",
        "trie.verify_proof", "relayer.submit_sequence"}},
      {"trie_churn", {1, 1}, "file", trie_churn, trie_churn_setup,
       {"trie.set", "trie.seal", "trie.get", "trie.commit", "trie.snapshot",
        "trie.verify_proof", "trie.proof_service.batches", "crypto.sha256_batch"}},
      {"scenario_grid", {1, 2}, "memory", scenario_grid, scenario_grid_setup,
       {"crypto.sign", "crypto.verify_batch", "counterparty.header_at", "host.submit",
        "ibc.recv_packet", "trie.commit", "relayer.submit_sequence"}},
  };
  return all;
}

}  // namespace perfbench
