// Fig. 3 — Cost of sending a packet (SendPacket invocation).
//
// Paper result: two clear clusters by fee policy — 17% of sends used
// Solana priority fees (~1.40 USD) and 83% used Jito block bundles
// (~3.02 USD).
//
//   fig3_send_cost [--days D] [--seed N]
#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace bmg;
  bench::Args args{.days = 3.0};
  bench::parse_flags(argc, argv, {bench::positive("--days", args.days),
                                  bench::integer("--seed", args.seed, 0)});
  bench::print_header("Fig. 3: cost of sending a packet", args);

  relayer::Deployment d(bench::paper_config(args.seed));
  d.open_ibc();

  const double horizon = d.sim().now() + args.days * 86400.0;
  bench::GuestSendWorkload workload(d, /*mean_interarrival_s=*/900.0, horizon);
  d.sim().run_until(horizon + 3600.0);

  Series cost, priority_cost, bundle_cost;
  for (const auto& r : workload.records()) {
    if (!r->executed) continue;
    cost.add(r->fee_usd);
    if (r->fee_usd < 2.0) {
      priority_cost.add(r->fee_usd);
    } else {
      bundle_cost.add(r->fee_usd);
    }
  }

  std::printf("%s\n", render_histogram(cost, 24, "cost (USD)").c_str());
  // Shares of executed sends; both 0 when a short horizon executed none.
  const double pr_frac = cost.empty() ? 0.0
                                       : static_cast<double>(priority_cost.count()) /
                                             static_cast<double>(cost.count());
  const double bundle_frac = cost.empty() ? 0.0 : 1.0 - pr_frac;
  std::printf("clusters:\n");
  std::printf("  priority-fee sends: %5.1f%% of sends, mean %.2f USD  (paper: 17%% at"
              " 1.40 USD)\n",
              100.0 * pr_frac, bench::mean_or_zero(priority_cost));
  std::printf("  bundle sends      : %5.1f%% of sends, mean %.2f USD  (paper: 83%% at"
              " 3.02 USD)\n",
              100.0 * bundle_frac, bench::mean_or_zero(bundle_cost));
  return 0;
}
