// Link-time interposed span ledger (see trace.hpp and trace_hooks.def).
#include "trace.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <tuple>
#include <unordered_set>
#include <vector>

#include "common/parallel.hpp"
#include "counterparty/chain.hpp"
#include "crypto/ed25519.hpp"
#include "crypto/keys.hpp"
#include "crypto/sha256.hpp"
#include "guest/contract.hpp"
#include "host/chain.hpp"
#include "ibc/module.hpp"
#include "ibc/quorum.hpp"
#include "relayer/tx_pipeline.hpp"
#include "sim/scheduler.hpp"
#include "trie/snapshot.hpp"
#include "trie/trie.hpp"

namespace perfbench::trace {
namespace {

using Clock = std::chrono::steady_clock;

enum class Id : std::size_t {
#define HOOK(ID, SYM, NAME, KIND, RET, PARAMS, ARGS) ID,
#include "trace_hooks.def"
#undef HOOK
};
enum class Kind { kSpan, kCount };

constexpr const char* kNames[] = {
#define HOOK(ID, SYM, NAME, KIND, RET, PARAMS, ARGS) NAME,
#include "trace_hooks.def"
#undef HOOK
};
constexpr Kind kKinds[] = {
#define HOOK(ID, SYM, NAME, KIND, RET, PARAMS, ARGS) Kind::KIND,
#include "trace_hooks.def"
#undef HOOK
};
constexpr std::size_t kHooks = std::size(kNames);
constexpr std::size_t kMaxDepth = 64;

struct Stat {
  std::uint64_t calls = 0;
  std::uint64_t items = 0;
  double self_s = 0;
  std::uint64_t nested_signs = 0;  ///< crypto.sign calls beneath this span
};

struct Frame {
  Id id{};
  Clock::time_point start;
  double child_s = 0;
};

struct Ledger {
  std::array<Stat, kHooks> stat{};
  std::vector<float> sign_us;
  std::vector<float> commit_us;
  std::array<Frame, kMaxDepth> stack{};
  std::size_t depth = 0;
  bool measuring = false;
  bool measuring_thread = false;
  Clock::time_point measure_start;
  double measured_s = 0;
  double top_s = 0;  ///< top-level span time while measuring
};

std::atomic<int> g_active{0};
std::mutex g_ledgers_mu;
std::vector<std::unique_ptr<Ledger>> g_ledgers;  // guarded by g_ledgers_mu
thread_local Ledger* t_ledger = nullptr;

Ledger& ledger() {
  if (t_ledger == nullptr) {
    auto owned = std::make_unique<Ledger>();
    t_ledger = owned.get();
    std::lock_guard<std::mutex> lock(g_ledgers_mu);
    g_ledgers.push_back(std::move(owned));
  }
  return *t_ledger;
}

double seconds_since(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

// (pk, msg, sig) triples verified so far this round, as 128-bit
// fingerprints: two FNV-1a streams with distinct offset bases.
struct Fingerprint {
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  friend bool operator==(const Fingerprint&, const Fingerprint&) = default;
};
struct FingerprintHash {
  std::size_t operator()(const Fingerprint& f) const noexcept { return f.a ^ (f.b * 31); }
};
std::mutex g_seen_mu;
std::unordered_set<Fingerprint, FingerprintHash> g_seen;  // guarded by g_seen_mu
std::atomic<std::uint64_t> g_repeats{0};

void fnv(Fingerprint& f, const std::uint8_t* p, std::size_t n) {
  constexpr std::uint64_t kPrime = 0x100000001b3ULL;
  for (std::size_t i = 0; i < n; ++i) {
    f.a = (f.a ^ p[i]) * kPrime;
    f.b = (f.b ^ p[i]) * kPrime;
  }
}

std::uint64_t note_verify_batch(std::span<const bmg::crypto::ed25519::VerifyItem> items) {
  std::uint64_t repeats = 0;
  std::lock_guard<std::mutex> lock(g_seen_mu);
  for (const auto& it : items) {
    Fingerprint f{0xcbf29ce484222325ULL, 0x84222325cbf29ce4ULL};
    fnv(f, it.pub.data(), it.pub.size());
    fnv(f, it.sig.data(), it.sig.size());
    fnv(f, it.msg.data(), it.msg.size());
    if (!g_seen.insert(f).second) ++repeats;
  }
  g_repeats.fetch_add(repeats, std::memory_order_relaxed);
  return items.size();
}

/// Work items a call carries (signatures in a batch, messages hashed).
template <Id I, class... A>
std::uint64_t items_of(const A&... a) {
  if constexpr (I == Id::crypto_verify_batch)
    return note_verify_batch(a...);
  else if constexpr (I == Id::crypto_sha256_batch)
    return std::get<1>(std::forward_as_tuple(a...));
  else
    return 1;
}

/// One intercepted call.  Does nothing unless a measured span is open.
class Scope {
 public:
  template <Id I, Kind K, class... A>
  static Scope open(const A&... args) {
    if (g_active.load(std::memory_order_relaxed) == 0) return Scope();
    Ledger& l = ledger();
    const std::uint64_t items = items_of<I>(args...);
    Stat& s = l.stat[static_cast<std::size_t>(I)];
    if constexpr (K == Kind::kCount) {
      ++s.calls;
      return Scope();
    } else {
      s.items += items;
      if (l.depth == kMaxDepth) return Scope();
      l.stack[l.depth++] = Frame{I, Clock::now(), 0.0};
      return Scope(&l);
    }
  }

  Scope(Scope&& other) noexcept : l_(other.l_) { other.l_ = nullptr; }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  Scope& operator=(Scope&&) = delete;

  ~Scope() {
    if (l_ == nullptr) return;
    Ledger& l = *l_;
    const Frame f = l.stack[--l.depth];
    const double dur = seconds_since(f.start);
    Stat& s = l.stat[static_cast<std::size_t>(f.id)];
    ++s.calls;
    s.self_s += dur - f.child_s;
    if (l.depth > 0)
      l.stack[l.depth - 1].child_s += dur;
    else if (l.measuring)
      l.top_s += dur;
    if (f.id == Id::crypto_sign) {
      l.sign_us.push_back(static_cast<float>(dur * 1e6));
      for (std::size_t i = 0; i < l.depth; ++i)
        if (l.stack[i].id == Id::cp_header_at) {
          ++l.stat[static_cast<std::size_t>(Id::cp_header_at)].nested_signs;
          break;
        }
    } else if (f.id == Id::trie_commit) {
      l.commit_us.push_back(static_cast<float>(dur * 1e6));
    }
  }

 private:
  explicit Scope(Ledger* l = nullptr) : l_(l) {}
  Ledger* l_;
};

/// Median and the highest of p99.9/p99/p90 that leaves at least ten
/// samples above it (p90 when there are too few samples for any).
std::pair<double, double> p50_and_tail(std::vector<float> v) {
  if (v.empty()) return {0.0, 0.0};
  std::sort(v.begin(), v.end());
  const auto at = [&](double q) {
    return static_cast<double>(v[static_cast<std::size_t>(q * static_cast<double>(v.size() - 1))]);
  };
  double tail_q = 0.9;
  for (double q : {0.999, 0.99})
    if (static_cast<double>(v.size()) * (1.0 - q) >= 10.0) {
      tail_q = q;
      break;
    }
  return {at(0.5), at(tail_q)};
}

}  // namespace

void begin_measure() {
  Ledger& l = ledger();
  l.measuring = true;
  l.measuring_thread = true;
  l.measure_start = Clock::now();
  g_active.fetch_add(1, std::memory_order_relaxed);
}

void end_measure() {
  Ledger& l = ledger();
  g_active.fetch_sub(1, std::memory_order_relaxed);
  l.measured_s += seconds_since(l.measure_start);
  l.measuring = false;
}

void begin_round() {
  std::lock_guard<std::mutex> lock(g_seen_mu);
  g_seen.clear();
}

std::map<std::string, double> layer_metrics(std::size_t rounds) {
  std::array<Stat, kHooks> total{};
  std::vector<float> sign_us;
  std::vector<float> commit_us;
  double measured = 0, top = 0, helper = 0, self_measuring = 0;
  {
    std::lock_guard<std::mutex> lock(g_ledgers_mu);
    for (const auto& l : g_ledgers) {
      for (std::size_t i = 0; i < kHooks; ++i) {
        total[i].calls += l->stat[i].calls;
        total[i].items += l->stat[i].items;
        total[i].nested_signs += l->stat[i].nested_signs;
        if (l->measuring_thread) {
          total[i].self_s += l->stat[i].self_s;
          self_measuring += l->stat[i].self_s;
        } else {
          helper += l->stat[i].self_s;
        }
      }
      sign_us.insert(sign_us.end(), l->sign_us.begin(), l->sign_us.end());
      commit_us.insert(commit_us.end(), l->commit_us.begin(), l->commit_us.end());
      measured += l->measured_s;
      top += l->top_s;
    }
  }
  const double r = static_cast<double>(std::max<std::size_t>(rounds, 1));
  const auto stat = [&](Id id) -> const Stat& { return total[static_cast<std::size_t>(id)]; };

  std::map<std::string, double> m;
  double timers = 0;
  for (std::size_t i = 0; i < kHooks; ++i) {
    const std::string name = kNames[i];
    if (kKinds[i] == Kind::kCount) {
      timers += static_cast<double>(total[i].calls);
      continue;
    }
    m[name + ".calls"] = static_cast<double>(total[i].calls) / r;
    m[name + ".self_s"] = total[i].self_s / r;
  }
  // Report names for ProofService batches and fork-join regions.
  m["trie.proof_service.batches"] = m["trie.proof_service.calls"];
  m["parallel.regions"] = m["parallel.calls"];
  m.erase("trie.proof_service.calls");
  m.erase("parallel.calls");

  const Stat& vb = stat(Id::crypto_verify_batch);
  m["crypto.verify_batch.items"] = static_cast<double>(vb.items) / r;
  m["crypto.verify_batch.us_per_item"] =
      vb.items > 0 ? vb.self_s * 1e6 / static_cast<double>(vb.items) : 0.0;
  m["crypto.verify_batch.repeat_share"] =
      vb.items > 0 ? static_cast<double>(g_repeats.load()) / static_cast<double>(vb.items)
                   : 0.0;
  m["crypto.sha256_batch.items"] = static_cast<double>(stat(Id::crypto_sha256_batch).items) / r;
  const Stat& ha = stat(Id::cp_header_at);
  m["counterparty.header_at.signs_per_call"] =
      ha.calls > 0 ? static_cast<double>(ha.nested_signs) / static_cast<double>(ha.calls) : 0.0;
  const auto [sign_p50, sign_tail] = p50_and_tail(std::move(sign_us));
  m["crypto.sign.us_p50"] = sign_p50;
  m["crypto.sign.us_tail"] = sign_tail;
  const auto [commit_p50, commit_tail] = p50_and_tail(std::move(commit_us));
  m["trie.commit.us_p50"] = commit_p50;
  m["trie.commit.us_tail"] = commit_tail;

  m["sim.timers_scheduled"] = timers / r;
  m["sim.untraced_s"] = (measured - top) / r;
  m["parallel.helper_s"] = helper / r;
  // Layer self times plus the untraced remainder, as a share of the
  // measured span: 1 when every span nests properly.
  m["trace.accounted_share"] = measured > 0 ? (self_measuring + measured - top) / measured : 0.0;
  m["trace.measured_s"] = measured / r;
  return m;
}

}  // namespace perfbench::trace

// --- the interposed entry points ------------------------------------------
//
// References to <symbol> inside the link resolve to __wrap_<symbol>;
// __real_<symbol> is the original.  The __real_ declarations are weak so
// a hook whose symbol no longer exists still links (and then records
// zero calls, which the traced run's span guard rejects).

using perfbench::trace::Id;
using perfbench::trace::Kind;
using perfbench::trace::Scope;

#define HOOK(ID, SYM, NAME, KIND, RET, PARAMS, ARGS)                  \
  extern "C" RET __real_##SYM PARAMS __attribute__((weak));           \
  extern "C" RET __wrap_##SYM PARAMS {                                \
    const Scope scope = Scope::open<Id::ID, Kind::KIND> ARGS;         \
    return __real_##SYM ARGS;                                         \
  }
#include "trace_hooks.def"
#undef HOOK
