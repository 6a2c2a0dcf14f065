// Signing through the expanded key and the radix-16 comb: golden
// outputs from the wNAF base multiplication it replaced, agreement of
// every signing entry point, and random signatures checked by the
// verify and verify_batch paths, which share none of the comb's code.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "common/rng.hpp"
#include "crypto/ed25519.hpp"
#include "crypto/keys.hpp"
#include "crypto/sha256.hpp"
#include "ed25519_vectors.hpp"

namespace bmg::crypto::ed25519 {
namespace {

Seed label_seed(const std::string& label) {
  const Hash32 h = Sha256::digest(bytes_of(label));
  Seed seed;
  std::copy(h.bytes.begin(), h.bytes.end(), seed.begin());
  return seed;
}

TEST(Ed25519Sign, GoldenKeysAndSignaturesAreByteIdentical) {
  static_assert(std::size(kGolden) == 64);
  const std::vector<Bytes> msgs = golden_messages();
  for (std::size_t i = 0; i < std::size(kGolden); ++i) {
    const std::string label = "golden-" + std::to_string(i);
    const PrivateKey key = PrivateKey::from_label(label);
    EXPECT_EQ(key.public_key().hex(), kGolden[i].pub_hex) << label;
    EXPECT_EQ(to_hex(ByteView{derive_public(label_seed(label))}), kGolden[i].pub_hex) << label;
    for (std::size_t j = 0; j < msgs.size(); ++j)
      EXPECT_EQ(key.sign(msgs[j]).hex(), kGolden[i].sig_hex[j]) << label << " msg " << j;
  }
}

TEST(Ed25519Sign, SeedExpandedAndPrivateKeyPathsAgree) {
  const std::vector<Bytes> msgs = golden_messages();
  for (int i = 0; i < 16; ++i) {
    const Seed seed = label_seed("agree-" + std::to_string(i));
    const ExpandedKey expanded = expand(seed);
    const PrivateKey key = PrivateKey::from_seed(seed);
    EXPECT_EQ(expanded.pub, derive_public(seed)) << i;
    EXPECT_EQ(key.public_key().raw(), expanded.pub) << i;
    for (const Bytes& m : msgs) {
      const SignatureBytes by_seed = sign(seed, m);
      EXPECT_EQ(sign(expanded, m), by_seed) << i;
      EXPECT_EQ(key.sign(m).raw(), by_seed) << i;
    }
  }
}

// Random seeds drive random clamped scalars and nonces through the
// comb's digit recoding, including its carry chains; verify and
// verify_batch check each result on their own wNAF tables.
TEST(Ed25519Sign, RandomSignaturesPassVerifyAndBatch) {
  Rng rng(0x5eed'c0b0'0000'0001ULL);
  constexpr std::size_t kCount = 1000;
  std::vector<Bytes> msgs(kCount);
  std::vector<VerifyItem> items(kCount);
  for (std::size_t i = 0; i < kCount; ++i) {
    Seed seed;
    for (std::uint8_t& b : seed) b = static_cast<std::uint8_t>(rng.next());
    msgs[i].resize(rng.uniform_int(200));
    for (std::uint8_t& b : msgs[i]) b = static_cast<std::uint8_t>(rng.next());
    const ExpandedKey key = expand(seed);
    items[i] = {key.pub, ByteView{msgs[i]}, sign(key, msgs[i])};
    EXPECT_TRUE(verify(items[i].pub, items[i].msg, items[i].sig)) << i;
  }
  const std::vector<bool> ok = verify_batch(items);
  ASSERT_EQ(ok.size(), kCount);
  for (std::size_t i = 0; i < kCount; ++i) EXPECT_TRUE(ok[i]) << i;
}

}  // namespace
}  // namespace bmg::crypto::ed25519
