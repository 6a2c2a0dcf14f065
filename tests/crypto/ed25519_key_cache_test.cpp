// Verification through the per-thread signer-key cache.  Every verdict
// must be the same the first time a key is seen (cold), when it is seen
// again (warm), and after more distinct keys than the cache holds have
// pushed it out (evicted); the expected verdicts of the crafted cases
// below were produced by the verifier that preceded the cache.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "common/shard_pool.hpp"
#include "crypto/ed25519.hpp"
#include "crypto/keys.hpp"
#include "ed25519_vectors.hpp"

namespace bmg::crypto::ed25519 {
namespace {

PublicKeyBytes pub_from_hex(std::string_view hex) {
  const Bytes b = from_hex(hex);
  PublicKeyBytes pub;
  std::copy(b.begin(), b.end(), pub.begin());
  return pub;
}

SignatureBytes sig_from_hex(std::string_view hex) {
  const Bytes b = from_hex(hex);
  SignatureBytes sig;
  std::copy(b.begin(), b.end(), sig.begin());
  return sig;
}

SignatureBytes sig_from_hex(std::string_view r_hex, std::string_view s_hex) {
  return sig_from_hex(std::string(r_hex) + std::string(s_hex));
}

// Verifies 1100 distinct random encodings (about half of them on the
// curve), more than twice the cache's capacity of 512 keys, so no key
// looked up before the call is still cached after it.  S = 0 is
// canonical, so every item reaches the key lookup.
void flush_key_cache() {
  static const std::vector<PublicKeyBytes> keys = [] {
    Rng rng(0xf105'4c0d'e000'0001ULL);
    std::vector<PublicKeyBytes> out(1100);
    for (PublicKeyBytes& k : out)
      for (std::uint8_t& b : k) b = static_cast<std::uint8_t>(rng.next());
    return out;
  }();
  const SignatureBytes zero{};
  for (const PublicKeyBytes& k : keys) (void)verify(k, {}, zero);
}

// Runs `check` on a freshly flushed cache, again at once, and again
// after another flush.
template <class Check>
void cold_warm_evicted(Check check) {
  flush_key_cache();
  check("cold");
  check("warm");
  flush_key_cache();
  check("evicted");
}

std::vector<bool> verify_each(std::span<const VerifyItem> items) {
  std::vector<bool> ok;
  for (const VerifyItem& it : items) ok.push_back(verify(it.pub, it.msg, it.sig));
  return ok;
}

TEST(Ed25519KeyCache, KnownAnswerVectorsVerifyColdWarmAndEvicted) {
  std::vector<Bytes> rfc_msgs;
  std::vector<VerifyItem> rfc;
  for (const auto& v : kRfc8032Vectors) rfc_msgs.push_back(from_hex(v.msg_hex));
  for (std::size_t i = 0; i < std::size(kRfc8032Vectors); ++i)
    rfc.push_back({pub_from_hex(kRfc8032Vectors[i].pub_hex), ByteView{rfc_msgs[i]},
                   sig_from_hex(kRfc8032Vectors[i].sig_hex)});
  const std::vector<Bytes> msgs = golden_messages();
  std::vector<VerifyItem> golden;
  for (const GoldenKey& g : kGolden)
    for (std::size_t j = 0; j < msgs.size(); ++j)
      golden.push_back({pub_from_hex(g.pub_hex), ByteView{msgs[j]}, sig_from_hex(g.sig_hex[j])});
  const Bytes other = bytes_of("not the signed message");

  cold_warm_evicted([&](const char* phase) {
    for (const VerifyItem& it : rfc) {
      EXPECT_TRUE(verify(it.pub, it.msg, it.sig)) << phase;
      EXPECT_FALSE(verify(it.pub, other, it.sig)) << phase;
    }
    for (const VerifyItem& it : golden) {
      EXPECT_TRUE(verify(it.pub, it.msg, it.sig)) << phase;
      EXPECT_FALSE(verify(it.pub, other, it.sig)) << phase;
    }
    EXPECT_EQ(verify_batch(rfc), std::vector<bool>(rfc.size(), true)) << phase;
    EXPECT_EQ(verify_batch(golden), std::vector<bool>(golden.size(), true)) << phase;
  });
}

// Encodings that do not decompress: y >= p (three ways), y off the
// curve, and x = 0 (y = +-1) with the sign bit set.
constexpr const char* kInvalidKeys[] = {
    "edffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f",  // y = p
    "eeffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f",  // y = p + 1
    "ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f",  // y = 2^255 - 1
    "0200000000000000000000000000000000000000000000000000000000000000",  // y = 2
    "0700000000000000000000000000000000000000000000000000000000000000",  // y = 7
    "0100000000000000000000000000000000000000000000000000000000000080",  // y = 1, "-0"
    "ecffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff",  // y = -1, "-0"
};

// The eight small-order points (orders 1, 2, 4, 4, 8, 8, 8, 8).  They
// decode, so verification reaches the equation; [k]A then only depends
// on k modulo the order.
struct SmallOrderKey {
  const char* pub_hex;
  bool ok[4];  // verdicts on small_order_sig() over small_order_msg(0..3)
};

constexpr SmallOrderKey kSmallOrderKeys[] = {
    {"0100000000000000000000000000000000000000000000000000000000000000", {1, 1, 1, 1}},
    {"ecffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f", {1, 0, 0, 0}},
    {"0000000000000000000000000000000000000000000000000000000000000000", {1, 0, 0, 0}},
    {"0000000000000000000000000000000000000000000000000000000000000080", {0, 0, 1, 0}},
    {"26e8958fc2b227b045c3f489f2ef98f0d5dfac05d3c63339b13802886d53fc05", {1, 1, 1, 0}},
    {"26e8958fc2b227b045c3f489f2ef98f0d5dfac05d3c63339b13802886d53fc85", {0, 0, 0, 0}},
    {"c7176a703d4dd84fba3c0b760d10670f2a2053fa2c39ccc64ec7fd7792ac037a", {0, 0, 0, 0}},
    {"c7176a703d4dd84fba3c0b760d10670f2a2053fa2c39ccc64ec7fd7792ac03fa", {0, 0, 0, 0}},
};

constexpr const char* kBaseHex =
    "5866666666666666666666666666666666666666666666666666666666666666";

// R = B, S = 1: [S]B - [k]A == R exactly when [k]A is the identity.
SignatureBytes small_order_sig() {
  return sig_from_hex(kBaseHex,
                      "0100000000000000000000000000000000000000000000000000000000000000");
}

Bytes small_order_msg(int i) { return bytes_of("small order " + std::to_string(i)); }

TEST(Ed25519KeyCache, InvalidAndSmallOrderKeysRejectColdWarmAndEvicted) {
  const PrivateKey signer = PrivateKey::from_label("key-cache-signer");
  const Bytes msg = bytes_of("signed by a real key");
  const SignatureBytes good = signer.sign(msg).raw();
  const std::vector<Bytes> so_msgs = {small_order_msg(0), small_order_msg(1),
                                      small_order_msg(2), small_order_msg(3)};

  cold_warm_evicted([&](const char* phase) {
    for (const char* hex : kInvalidKeys) {
      const PublicKeyBytes pub = pub_from_hex(hex);
      EXPECT_FALSE(verify(pub, msg, good)) << phase << " " << hex;
      // Passes under the identity key, which "-0" must not alias.
      EXPECT_FALSE(verify(pub, so_msgs[0], small_order_sig())) << phase << " " << hex;
      const std::vector<VerifyItem> items = {{pub, ByteView{msg}, good},
                                             {signer.public_key().raw(), ByteView{msg}, good},
                                             {pub, ByteView{so_msgs[0]}, small_order_sig()}};
      EXPECT_EQ(verify_batch(items), (std::vector<bool>{false, true, false}))
          << phase << " " << hex;
      EXPECT_EQ(verify_batch(std::span{items}.first(1)), std::vector<bool>{false})
          << phase << " " << hex;
    }
    for (const SmallOrderKey& k : kSmallOrderKeys) {
      const PublicKeyBytes pub = pub_from_hex(k.pub_hex);
      EXPECT_FALSE(verify(pub, msg, good)) << phase << " " << k.pub_hex;
      std::vector<VerifyItem> items;
      std::vector<bool> want;
      for (int i = 0; i < 4; ++i) {
        EXPECT_EQ(verify(pub, so_msgs[i], small_order_sig()), k.ok[i])
            << phase << " " << k.pub_hex << " msg " << i;
        items.push_back({pub, ByteView{so_msgs[i]}, small_order_sig()});
        want.push_back(k.ok[i]);
      }
      items.push_back({pub, ByteView{msg}, good});
      want.push_back(false);
      EXPECT_EQ(verify_batch(items), want) << phase << " " << k.pub_hex;
    }
  });
}

TEST(Ed25519KeyCache, MixedBatchesMatchPerItemVerify) {
  std::vector<PrivateKey> keys;
  for (int i = 0; i < 6; ++i)
    keys.push_back(PrivateKey::from_label("mixed-" + std::to_string(i)));
  std::vector<Bytes> msgs;
  for (int i = 0; i < 20; ++i)
    msgs.push_back(bytes_of("mixed batch message " + std::to_string(i)));
  const PublicKeyBytes invalid = pub_from_hex(kInvalidKeys[3]);

  // One key signing every item of a batch.
  std::vector<VerifyItem> repeated;
  for (int i = 0; i < 4; ++i)
    repeated.push_back({keys[0].public_key().raw(), ByteView{msgs[i]},
                        keys[0].sign(msgs[i]).raw()});
  // A forged signature (another message's) under a key that is cached
  // and valid, next to genuine ones from the same key.
  std::vector<VerifyItem> forged = repeated;
  forged[2].sig = keys[0].sign(msgs[9]).raw();
  // A cached-invalid key between valid ones, and the signer's key with
  // its sign bit flipped: the negated point, a valid key of its own.
  std::vector<VerifyItem> with_invalid = repeated;
  with_invalid[1].pub = invalid;
  with_invalid[3].pub[31] ^= 0x80;
  // 17 items (the fork-join path) mixing all of the above.
  std::vector<VerifyItem> wide;
  for (int i = 0; i < 17; ++i) {
    const PrivateKey& k = keys[static_cast<std::size_t>(i % 6)];
    wide.push_back({k.public_key().raw(), ByteView{msgs[i]}, k.sign(msgs[i]).raw()});
  }
  wide[3].sig = keys[3].sign(msgs[19]).raw();
  wide[8].pub = invalid;
  wide[15].pub = keys[2].public_key().raw();  // valid key, not the signer

  const std::vector<std::pair<const char*, const std::vector<VerifyItem>*>> batches = {
      {"repeated", &repeated}, {"forged", &forged}, {"invalid", &with_invalid},
      {"wide", &wide}};
  cold_warm_evicted([&](const char* phase) {
    for (const auto& [name, items] : batches)
      EXPECT_EQ(verify_batch(*items), verify_each(*items)) << phase << " " << name;
    EXPECT_EQ(verify_each(repeated), std::vector<bool>(4, true)) << phase;
    EXPECT_EQ(verify_each(forged), (std::vector<bool>{true, true, false, true})) << phase;
    EXPECT_EQ(verify_each(with_invalid), (std::vector<bool>{true, false, true, false}))
        << phase;
    std::vector<bool> wide_ok(17, true);
    wide_ok[3] = wide_ok[8] = wide_ok[15] = false;
    EXPECT_EQ(verify_each(wide), wide_ok) << phase;
  });
}

// Signatures under the identity key A = O, where the equation reduces
// to [S]B == R: each R below is [S]B for the S beside it (computed by
// the signing comb, which shares no tables with verification), so S
// can sit at either edge of the 128-bit split.
struct EdgeCase {
  const char* name;
  const char* r_hex;
  const char* s_hex;
  bool ok;
};

constexpr EdgeCase kSplitEdges[] = {
    {"S = 0", "0100000000000000000000000000000000000000000000000000000000000000",
     "0000000000000000000000000000000000000000000000000000000000000000", true},
    {"S = 1 (hi half zero)", kBaseHex,
     "0100000000000000000000000000000000000000000000000000000000000000", true},
    {"S = 2^128 - 1 (hi half zero, lo full)",
     "1976d48fb7b8714d07d10b29782a359ed9734d39eae7308c28c4931a626b5676",
     "ffffffffffffffffffffffffffffffff00000000000000000000000000000000", true},
    {"S = 2^128 (lo half zero)",
     "6ba6f54b11bdba5b9ec4a4511ebed0903a9cc226b61ef1957dc86d52e6992c5f",
     "0000000000000000000000000000000001000000000000000000000000000000", true},
    {"S = 2^128 + 1",
     "9bd0af7b642a35251052c59e581139364551b83993fc9d6abe58cba40f513c38",
     "0100000000000000000000000000000001000000000000000000000000000000", true},
    {"S = (2^124 - 1) 2^128 (lo half zero, hi all ones)",
     "7970c0e9baf0d9ef0ad2eade0eafba05a68889fb6207a1fa2e92de64fa518621",
     "00000000000000000000000000000000ffffffffffffffffffffffffffffff0f", true},
    {"S = L - 1 (canonical; [L-1]B = -B)",
     "58666666666666666666666666666666666666666666666666666666666666e6",
     "ecd3f55c1a631258d69cf7a2def9de1400000000000000000000000000000010", true},
    {"S = L (non-canonical, [L]B = O)",
     "0100000000000000000000000000000000000000000000000000000000000000",
     "edd3f55c1a631258d69cf7a2def9de1400000000000000000000000000000010", false},
    {"S = L + 1 (non-canonical, [L+1]B = B)", kBaseHex,
     "eed3f55c1a631258d69cf7a2def9de1400000000000000000000000000000010", false},
    {"S = 2^128 against R = B", kBaseHex,
     "0000000000000000000000000000000001000000000000000000000000000000", false},
};

TEST(Ed25519KeyCache, ScalarsAtTheEdgesOfTheSplit) {
  const PublicKeyBytes identity = pub_from_hex(kSmallOrderKeys[0].pub_hex);
  const Bytes msg = bytes_of("split edges");
  const PrivateKey signer = PrivateKey::from_label("split-edge-signer");
  std::vector<VerifyItem> items;
  std::vector<bool> want;
  for (const EdgeCase& e : kSplitEdges) {
    items.push_back({identity, ByteView{msg}, sig_from_hex(e.r_hex, e.s_hex)});
    want.push_back(e.ok);
  }
  items.push_back({signer.public_key().raw(), ByteView{msg}, signer.sign(msg).raw()});
  want.push_back(true);

  cold_warm_evicted([&](const char* phase) {
    for (std::size_t i = 0; i < std::size(kSplitEdges); ++i)
      EXPECT_EQ(verify(identity, msg, items[i].sig), kSplitEdges[i].ok)
          << phase << ": " << kSplitEdges[i].name;
    EXPECT_EQ(verify_batch(items), want) << phase;
  });
}

// --- thread safety: one cache per thread ------------------------------------

class Ed25519KeyCacheThreads : public ::testing::Test {
 protected:
  void TearDown() override {
    shard::set_worker_count(0);
    parallel::set_thread_count(0);
  }
};

TEST_F(Ed25519KeyCacheThreads, ShardWorkersAndForkJoinAgreeWithSerial) {
  // 24 keys, each batch drawing 9 of them from an overlapping window,
  // with one forged signature and one invalid key per batch so the
  // per-item fallback runs too.
  constexpr std::size_t kKeys = 24;
  constexpr std::size_t kBatches = 16;
  constexpr std::size_t kItems = 9;
  std::vector<PrivateKey> keys;
  for (std::size_t i = 0; i < kKeys; ++i)
    keys.push_back(PrivateKey::from_label("threads-" + std::to_string(i)));
  std::vector<Bytes> msgs;
  for (std::size_t i = 0; i < kBatches * kItems; ++i)
    msgs.push_back(bytes_of("threaded message " + std::to_string(i)));
  const PublicKeyBytes invalid = pub_from_hex(kInvalidKeys[4]);

  std::vector<std::vector<VerifyItem>> batches(kBatches);
  for (std::size_t b = 0; b < kBatches; ++b) {
    for (std::size_t j = 0; j < kItems; ++j) {
      const PrivateKey& k = keys[(b + 2 * j) % kKeys];
      const Bytes& m = msgs[b * kItems + j];
      batches[b].push_back({k.public_key().raw(), ByteView{m}, k.sign(m).raw()});
    }
    batches[b][b % kItems].sig = batches[b][(b + 1) % kItems].sig;
    batches[b][(b + 4) % kItems].pub = invalid;
  }
  std::vector<std::vector<bool>> serial;
  for (const auto& items : batches) serial.push_back(verify_each(items));

  // Every cell verifies every batch, each starting at its own offset,
  // and flushes its worker's cache halfway through.
  shard::set_worker_count(4);
  std::vector<std::vector<std::vector<bool>>> got(8);
  shard::run_cells(got.size(), [&](std::size_t cell) {
    got[cell].resize(kBatches);
    for (std::size_t i = 0; i < kBatches; ++i) {
      const std::size_t b = (cell * 5 + i) % kBatches;
      got[cell][b] = verify_batch(batches[b]);
      if (i == kBatches / 2) flush_key_cache();
    }
  });
  for (std::size_t cell = 0; cell < got.size(); ++cell)
    for (std::size_t b = 0; b < kBatches; ++b)
      EXPECT_EQ(got[cell][b], serial[b]) << "cell " << cell << " batch " << b;

  // One wide batch sharded over the fork-join executor's threads.
  std::vector<VerifyItem> wide;
  std::vector<bool> wide_serial;
  for (std::size_t b = 0; b < kBatches; ++b) {
    wide.insert(wide.end(), batches[b].begin(), batches[b].end());
    wide_serial.insert(wide_serial.end(), serial[b].begin(), serial[b].end());
  }
  parallel::set_thread_count(4);
  for (int round = 0; round < 3; ++round) EXPECT_EQ(verify_batch(wide), wide_serial) << round;
}

}  // namespace
}  // namespace bmg::crypto::ed25519
