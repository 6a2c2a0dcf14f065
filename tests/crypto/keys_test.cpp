#include "crypto/keys.hpp"

#include <gtest/gtest.h>

#include <unordered_set>

#include "common/bytes.hpp"

namespace bmg::crypto {
namespace {

TEST(Keys, LabelDerivationIsDeterministic) {
  const PrivateKey a = PrivateKey::from_label("validator-1");
  const PrivateKey b = PrivateKey::from_label("validator-1");
  EXPECT_EQ(a.public_key(), b.public_key());
}

TEST(Keys, DistinctLabelsDistinctKeys) {
  std::unordered_set<PublicKey, PublicKeyHasher> seen;
  for (int i = 0; i < 50; ++i) {
    const PrivateKey k = PrivateKey::from_label("validator-" + std::to_string(i));
    EXPECT_TRUE(seen.insert(k.public_key()).second) << i;
  }
}

TEST(Keys, SignVerifyRoundTrip) {
  const PrivateKey k = PrivateKey::from_label("signer");
  const Bytes msg = bytes_of("guest block 42");
  const Signature sig = k.sign(msg);
  EXPECT_TRUE(verify(k.public_key(), msg, sig));
  EXPECT_FALSE(verify(PrivateKey::from_label("other").public_key(), msg, sig));
}

TEST(Keys, HexIsFullWidth) {
  const PrivateKey k = PrivateKey::from_label("x");
  EXPECT_EQ(k.public_key().hex().size(), 64u);
}

TEST(Keys, OrderingIsTotal) {
  const PublicKey a = PrivateKey::from_label("a").public_key();
  const PublicKey b = PrivateKey::from_label("b").public_key();
  EXPECT_NE(a, b);
  EXPECT_TRUE((a < b) != (b < a));
}

}  // namespace
}  // namespace bmg::crypto
