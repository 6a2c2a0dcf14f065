// Fig. 6 — Interval between generation times of two consecutive guest
// blocks.
//
// Paper result: the distribution roughly follows the packet arrival
// rate up to Δ = 1 h, where the empty-block rule cuts it off; about a
// quarter of blocks were generated at the cutoff (i.e. empty), and
// five intervals were far beyond an hour due to validator signing
// stalls.
//
// Grid mode (--grid-seeds N): N independent replications on the shard
// pool, each seeded from stream_seed(seed, cell), printed as one CSV
// row per cell — byte-identical at any --shard-workers.
//
//   fig6_block_interval [--days D] [--seed N] [--grid-seeds N]
//                       [--shard-workers W] [--timing-csv PATH]
#include <optional>

#include "bench_common.hpp"
#include "grid.hpp"

namespace {

using namespace bmg;

/// One deployment's guest-block intervals, shared by the classic run
/// and the grid cells.
struct BlockIntervals {
  std::size_t blocks = 0;
  std::size_t sends = 0;
  Series intervals;
  std::size_t at_cutoff = 0;  ///< at the Δ = 1 h cutoff (empty blocks)
  std::size_t way_over = 0;   ///< two hours or more (signing stalls)

  [[nodiscard]] double at_cutoff_pct() const {
    return intervals.empty() ? 0.0
                             : 100.0 * static_cast<double>(at_cutoff) /
                                   static_cast<double>(intervals.count());
  }
};

/// `stream` splits the base seed for a grid replication (nullopt = the
/// classic run).
BlockIntervals run(const bench::Args& args, std::optional<std::uint64_t> stream) {
  relayer::DeploymentConfig cfg = bench::paper_config(args.seed);
  cfg.rng_stream = stream;
  relayer::Deployment d(cfg);
  d.open_ibc();

  const double horizon = d.sim().now() + args.days * 86400.0;
  // Poisson sends with a ~45 min mean; P(no packet within Delta=1h)
  // = e^(-60/45) ~ 26%, matching the paper's quarter-empty blocks.
  bench::GuestSendWorkload workload(d, /*mean_interarrival_s=*/2700.0, horizon);
  d.sim().run_until(horizon);

  BlockIntervals b;
  b.blocks = d.guest().block_count();
  b.sends = workload.records().size();
  const auto n = static_cast<ibc::Height>(b.blocks);
  for (ibc::Height h = 2; h < n; ++h)
    b.intervals.add(d.guest().block_at(h).header.timestamp -
                    d.guest().block_at(h - 1).header.timestamp);
  for (double v : b.intervals.samples()) {
    if (v >= 3600.0 && v < 3700.0) ++b.at_cutoff;
    if (v >= 2.0 * 3600.0) ++b.way_over;
  }
  return b;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace bmg;
  bench::Args args{.days = 14.0};
  bench::parse_flags(argc, argv,
                     {bench::positive("--days", args.days),
                      bench::integer("--seed", args.seed, 0),
                      bench::integer("--grid-seeds", args.grid_seeds, 0),
                      bench::shard_workers(), bench::text("--timing-csv", args.timing_csv)});

  if (args.grid_seeds > 0) {
    const auto n = static_cast<std::size_t>(args.grid_seeds);
    std::fprintf(stderr, "fig6_block_interval: %zu replications, %zu shard workers\n",
                 n, shard::worker_count());
    const bench::GridResult g = bench::run_grid(n, [&](std::size_t cell) {
      const BlockIntervals b = run(args, cell);
      char buf[192];
      std::snprintf(buf, sizeof(buf), "%zu,%zu,%zu,%.1f,%.1f,%zu\n", cell, b.blocks,
                    b.sends, bench::mean_or_zero(b.intervals), b.at_cutoff_pct(),
                    b.way_over);
      return bench::CellOutput{buf, {}};
    });
    std::printf("cell,blocks,sends,mean_interval_s,at_cutoff_pct,way_over\n");
    bench::print_cells(g);
    std::fprintf(stderr, "fig6_block_interval: wall=%.3fs\n", g.wall_s);
    bench::write_timing(g, args.timing_csv, "fig6_block_interval");
    return 0;
  }

  bench::print_header("Fig. 6: interval between consecutive guest blocks", args);
  const BlockIntervals b = run(args, std::nullopt);

  std::printf("guest blocks: %zu over %.1f days (%zu packets sent)\n\n", b.blocks,
              args.days, b.sends);
  std::printf("%s\n", render_histogram(b.intervals, 24, "block interval (s)").c_str());
  std::printf("blocks at the Delta=1 h cutoff (empty blocks): %.1f%%  (paper: ~25%%)\n",
              b.at_cutoff_pct());
  std::printf("intervals vastly over an hour (signing stalls): %zu  (paper: 5)\n",
              b.way_over);
  return 0;
}
