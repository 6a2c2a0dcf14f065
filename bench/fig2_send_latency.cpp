// Fig. 2 — Delay between sending a packet (SendPacket invocation) and
// the packet being stored in a finalised guest block (FinalisedBlock).
//
// Paper result: all but three transfers completed within 21 seconds;
// the stragglers came from validator signing delays (validator #1's
// heavy tail).  We reproduce the same pipeline: the send transaction
// lands on the host, the crank generates a guest block, and the block
// finalises once 17 of 24 validators (Table I latency profiles) have
// signed.
//
// Grid mode (--grid-seeds N): instead of the single classic run, N
// independent replications execute on the shard pool, each a complete
// deployment seeded from the deterministic stream split
// stream_seed(seed, cell), and the latency quantiles print as one CSV
// row per cell — byte-identical at any --shard-workers.
//
//   fig2_send_latency [--days D] [--seed N] [--grid-seeds N]
//                     [--shard-workers W] [--timing-csv PATH]
#include <optional>

#include "bench_common.hpp"
#include "grid.hpp"

namespace {

using namespace bmg;

/// One deployment's send latencies, shared by the classic run and the
/// grid cells.
struct SendLatency {
  std::size_t sent = 0;
  int finalised = 0;
  int pending = 0;  ///< executed, not finalised by the horizon
  Series latency;   ///< SendPacket -> FinalisedBlock, finalised sends only
  int over21 = 0;
};

/// `stream` splits the base seed for a grid replication (nullopt = the
/// classic run).
SendLatency run(const bench::Args& args, std::optional<std::uint64_t> stream) {
  relayer::DeploymentConfig cfg = bench::paper_config(args.seed);
  cfg.rng_stream = stream;
  relayer::Deployment d(cfg);
  d.open_ibc();

  const double horizon = d.sim().now() + args.days * 86400.0;
  // Paper-like traffic: a packet roughly every 25 minutes.
  bench::GuestSendWorkload workload(d, /*mean_interarrival_s=*/1500.0, horizon);
  d.sim().run_until(horizon + 2 * 3600.0);  // drain the tail

  SendLatency s;
  s.sent = workload.records().size();
  for (const auto& r : workload.records()) {
    if (!r->executed) continue;
    if (!r->finalised) {
      ++s.pending;
      continue;
    }
    ++s.finalised;
    s.latency.add(r->finalised_at - r->executed_at);
  }
  s.over21 = static_cast<int>(static_cast<double>(s.latency.count()) *
                              (1.0 - s.latency.cdf_at(21.0)));
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace bmg;
  bench::Args args{.days = 7.0};
  bench::parse_flags(argc, argv,
                     {bench::positive("--days", args.days),
                      bench::integer("--seed", args.seed, 0),
                      bench::integer("--grid-seeds", args.grid_seeds, 0),
                      bench::shard_workers(), bench::text("--timing-csv", args.timing_csv)});

  if (args.grid_seeds > 0) {
    const auto n = static_cast<std::size_t>(args.grid_seeds);
    std::fprintf(stderr, "fig2_send_latency: %zu replications, %zu shard workers\n", n,
                 shard::worker_count());
    const bench::GridResult g = bench::run_grid(n, [&](std::size_t cell) {
      const SendLatency s = run(args, cell);
      char buf[192];
      std::snprintf(buf, sizeof(buf), "%zu,%zu,%d,%.1f,%.1f,%.1f,%.1f,%d\n", cell,
                    s.sent, s.finalised, bench::quantile_or_zero(s.latency, 0.5),
                    bench::quantile_or_zero(s.latency, 0.9),
                    bench::quantile_or_zero(s.latency, 0.99),
                    bench::quantile_or_zero(s.latency, 1.0), s.over21);
      return bench::CellOutput{buf, {}};
    });
    std::printf("cell,sent,finalised,median_s,p90_s,p99_s,max_s,over_21s\n");
    bench::print_cells(g);
    std::fprintf(stderr, "fig2_send_latency: wall=%.3fs\n", g.wall_s);
    bench::write_timing(g, args.timing_csv, "fig2_send_latency");
    return 0;
  }

  bench::print_header("Fig. 2: send-packet latency (SendPacket -> FinalisedBlock)", args);
  const SendLatency s = run(args, std::nullopt);

  std::printf("packets sent: %zu, finalised: %d, still pending at horizon: %d\n\n",
              s.sent, s.finalised, s.pending);
  std::printf("%s\n", s.latency.empty()
                          ? "  (no samples)\n"
                          : render_cdf(s.latency, 20, "latency (s)").c_str());
  std::printf("quantiles:  median=%.1f s   p90=%.1f s   p99=%.1f s   max=%.1f s\n",
              bench::quantile_or_zero(s.latency, 0.5),
              bench::quantile_or_zero(s.latency, 0.9),
              bench::quantile_or_zero(s.latency, 0.99),
              bench::quantile_or_zero(s.latency, 1.0));

  std::printf("\npaper: all but 3 transfers within 21 s; stragglers from validator"
              " signing delays\n");
  std::printf("here : %d of %zu transfers exceeded 21 s\n", s.over21, s.latency.count());
  return 0;
}
