// Shared setup for the evaluation harnesses: the paper-configured
// deployment (Table I validator roster, Δ = 1 h, mixed client fee
// policies) and Poisson workload drivers.
//
// Every binary prints its seed and is exactly reproducible.
#pragma once

#include <cstdio>
#include <memory>
#include <string>

#include "common/stats.hpp"
#include "parse.hpp"
#include "relayer/deployment.hpp"

namespace bmg::bench {

/// Values of the flags several drivers share.  Each driver binds only
/// the ones it reads (parse_flags in parse.hpp):
///   --days D           simulated days (default varies per bench)
///   --seed N           RNG seed (default 42)
///   --grid-seeds N     seeds in a grid (fig2/fig6: 0 = the single
///                      classic run)
///   --timing-csv PATH  write per-cell wall/CPU timing rows to PATH
///                      (timing is never part of the stdout artifact)
struct Args {
  double days = 0;
  std::uint64_t seed = 42;
  int grid_seeds = 0;
  const char* timing_csv = nullptr;
};

/// `s.mean()`, or 0 when a short horizon recorded no samples.
inline double mean_or_zero(const Series& s) { return s.empty() ? 0.0 : s.mean(); }

/// `s.quantile(q)` (q = 1 is the max), or 0 for an empty series.
inline double quantile_or_zero(const Series& s, double q) {
  return s.empty() ? 0.0 : s.quantile(q);
}

/// The paper's deployment configuration (§IV-§V): 24 validators with
/// Table I profiles, Δ = 1 h, 12-hour epochs (disabled by default for
/// run-length control), and a counterparty whose commits force ~36-tx
/// light client updates.
inline relayer::DeploymentConfig paper_config(std::uint64_t seed) {
  relayer::DeploymentConfig cfg;
  cfg.seed = seed;
  cfg.guest.delta_seconds = 3600.0;           // Δ = 1 h
  cfg.guest.epoch_length_host_slots = 1'000'000'000;  // no rotation unless asked
  cfg.validators = relayer::paper_validators();
  cfg.counterparty.num_validators = 160;
  cfg.counterparty.participation_min = 0.70;
  cfg.counterparty.participation_max = 1.00;
  cfg.counterparty.block_interval_s = 6.0;
  cfg.relayer.sigs_per_update_tx = 4;
  return cfg;
}

/// Client fee policies of §V-A: 17% priority fees (~1.40 USD), 83%
/// Jito-style bundles (~3.02 USD).
inline host::FeePolicy sample_client_fee(Rng& rng) {
  if (rng.chance(0.17)) {
    // Send transaction uses ~61k CU.
    return relayer::priority_fee_for_usd(1.40, 61'000);
  }
  return host::FeePolicy::bundle(host::usd_to_lamports(3.02 - 0.001));
}

/// Schedules Poisson guest->counterparty transfers with the given mean
/// inter-arrival time, recording each SendRecord.
class GuestSendWorkload {
 public:
  GuestSendWorkload(relayer::Deployment& d, double mean_interarrival_s, double until)
      : d_(d), mean_(mean_interarrival_s), until_(until), rng_(d.rng().fork()) {
    schedule_next();
  }

  [[nodiscard]] const std::vector<std::shared_ptr<relayer::Deployment::SendRecord>>&
  records() const {
    return records_;
  }

 private:
  void schedule_next() {
    const double at = d_.sim().now() + rng_.exponential(mean_);
    if (at > until_) return;
    d_.sim().at(at, [this] {
      records_.push_back(d_.send_transfer_from_guest(100, sample_client_fee(rng_)));
      schedule_next();
    });
  }

  relayer::Deployment& d_;
  double mean_;
  double until_;
  Rng rng_;
  std::vector<std::shared_ptr<relayer::Deployment::SendRecord>> records_;
};

/// Schedules Poisson counterparty->guest transfers.
class CpSendWorkload {
 public:
  CpSendWorkload(relayer::Deployment& d, double mean_interarrival_s, double until)
      : d_(d), mean_(mean_interarrival_s), until_(until), rng_(d.rng().fork()) {
    schedule_next();
  }

  [[nodiscard]] int sent() const { return sent_; }

 private:
  void schedule_next() {
    const double at = d_.sim().now() + rng_.exponential(mean_);
    if (at > until_) return;
    d_.sim().at(at, [this] {
      (void)d_.send_transfer_from_cp(10);
      ++sent_;
      schedule_next();
    });
  }

  relayer::Deployment& d_;
  double mean_;
  double until_;
  Rng rng_;
  int sent_ = 0;
};

inline void print_header(const char* title, const Args& args) {
  std::printf("==============================================================\n");
  std::printf("%s\n", title);
  std::printf("seed=%llu  simulated_days=%.2f\n",
              static_cast<unsigned long long>(args.seed), args.days);
  std::printf("==============================================================\n");
}

}  // namespace bmg::bench
