// RFC 8032 §7.1 test vectors plus negative tests (tampered message,
// tampered signature, non-canonical S, wrong key).
#include "crypto/ed25519.hpp"

#include <gtest/gtest.h>

#include "common/bytes.hpp"
#include "ed25519_vectors.hpp"

namespace bmg::crypto::ed25519 {
namespace {

TEST(Ed25519, Rfc8032KeyDerivation) {
  for (const auto& v : kRfc8032Vectors) {
    const Seed seed = seed_from_hex(v.seed_hex);
    const PublicKeyBytes pub = derive_public(seed);
    EXPECT_EQ(to_hex(ByteView{pub}), v.pub_hex) << v.name;
  }
}

TEST(Ed25519, Rfc8032Sign) {
  for (const auto& v : kRfc8032Vectors) {
    const Seed seed = seed_from_hex(v.seed_hex);
    const Bytes msg = from_hex(v.msg_hex);
    const SignatureBytes sig = sign(seed, msg);
    EXPECT_EQ(to_hex(ByteView{sig}), v.sig_hex) << v.name;
  }
}

TEST(Ed25519, Rfc8032Verify) {
  for (const auto& v : kRfc8032Vectors) {
    const Bytes pub_b = from_hex(v.pub_hex);
    PublicKeyBytes pub;
    std::copy(pub_b.begin(), pub_b.end(), pub.begin());
    const Bytes sig_b = from_hex(v.sig_hex);
    SignatureBytes sig;
    std::copy(sig_b.begin(), sig_b.end(), sig.begin());
    EXPECT_TRUE(verify(pub, from_hex(v.msg_hex), sig)) << v.name;
  }
}

TEST(Ed25519, RejectsTamperedMessage) {
  const Seed seed = seed_from_hex(kRfc8032Vectors[2].seed_hex);
  const PublicKeyBytes pub = derive_public(seed);
  const Bytes msg = from_hex("af82");
  const SignatureBytes sig = sign(seed, msg);
  Bytes bad = msg;
  bad[0] ^= 0x01;
  EXPECT_FALSE(verify(pub, bad, sig));
}

TEST(Ed25519, RejectsTamperedSignature) {
  const Seed seed = seed_from_hex(kRfc8032Vectors[2].seed_hex);
  const PublicKeyBytes pub = derive_public(seed);
  const Bytes msg = from_hex("af82");
  SignatureBytes sig = sign(seed, msg);
  for (std::size_t i : {0u, 31u, 32u, 63u}) {
    SignatureBytes bad = sig;
    bad[i] ^= 0x40;
    EXPECT_FALSE(verify(pub, msg, bad)) << "byte " << i;
  }
}

TEST(Ed25519, RejectsWrongKey) {
  const Seed s1 = seed_from_hex(kRfc8032Vectors[0].seed_hex);
  const Seed s2 = seed_from_hex(kRfc8032Vectors[1].seed_hex);
  const Bytes msg = bytes_of("hello");
  const SignatureBytes sig = sign(s1, msg);
  EXPECT_TRUE(verify(derive_public(s1), msg, sig));
  EXPECT_FALSE(verify(derive_public(s2), msg, sig));
}

TEST(Ed25519, RejectsNonCanonicalS) {
  // S' = S + L is a valid equation solution but must be rejected.
  const Seed seed = seed_from_hex(kRfc8032Vectors[1].seed_hex);
  const PublicKeyBytes pub = derive_public(seed);
  const Bytes msg = from_hex("72");
  SignatureBytes sig = sign(seed, msg);

  // L little-endian.
  const Bytes ell = from_hex(
      "edd3f55c1a631258d69cf7a2def9de14000000000000000000000000000000"
      "10");
  // Add L to the S half of the signature (little-endian addition).
  unsigned carry = 0;
  for (std::size_t i = 0; i < 32; ++i) {
    const unsigned sum = sig[32 + i] + ell[i] + carry;
    sig[32 + i] = static_cast<std::uint8_t>(sum);
    carry = sum >> 8;
  }
  EXPECT_FALSE(verify(pub, msg, sig));
}

TEST(Ed25519, SignIsDeterministic) {
  const Seed seed = seed_from_hex(kRfc8032Vectors[0].seed_hex);
  const Bytes msg = bytes_of("determinism");
  EXPECT_EQ(to_hex(ByteView{sign(seed, msg)}), to_hex(ByteView{sign(seed, msg)}));
}

TEST(Ed25519, RejectsAllZeroSignature) {
  const Seed seed = seed_from_hex(kRfc8032Vectors[0].seed_hex);
  const PublicKeyBytes pub = derive_public(seed);
  const SignatureBytes zero{};
  EXPECT_FALSE(verify(pub, bytes_of("any message"), zero));
  // And an all-zero public key against a real signature.
  const Bytes msg = bytes_of("any message");
  const SignatureBytes sig = sign(seed, msg);
  const PublicKeyBytes zero_pub{};
  EXPECT_FALSE(verify(zero_pub, msg, sig));
}

TEST(Ed25519, BatchAcceptsAllValid) {
  std::vector<Bytes> msgs;
  std::vector<VerifyItem> items;
  msgs.reserve(16);  // ByteViews into elements must survive push_back
  for (int i = 0; i < 16; ++i) {
    Seed seed{};
    seed[0] = static_cast<std::uint8_t>(i + 1);
    msgs.push_back(bytes_of("batch-msg-" + std::to_string(i)));
    items.push_back({derive_public(seed), ByteView{msgs.back()}, sign(seed, msgs.back())});
  }
  const std::vector<bool> ok = verify_batch(items);
  ASSERT_EQ(ok.size(), items.size());
  for (std::size_t i = 0; i < ok.size(); ++i) EXPECT_TRUE(ok[i]) << i;
}

TEST(Ed25519, BatchEmptyAndSingle) {
  EXPECT_TRUE(verify_batch({}).empty());
  Seed seed{};
  seed[0] = 9;
  const Bytes msg = bytes_of("solo");
  const VerifyItem good{derive_public(seed), ByteView{msg}, sign(seed, msg)};
  EXPECT_EQ(verify_batch({&good, 1}), std::vector<bool>{true});
  VerifyItem bad = good;
  bad.sig[10] ^= 1;
  EXPECT_EQ(verify_batch({&bad, 1}), std::vector<bool>{false});
}

// The load-bearing equivalence: verify_batch must accept exactly the
// items that per-item verify accepts, on batches that mix valid
// signatures with every corruption the single-signature tests cover
// (tampered sig halves, tampered message, wrong key, non-canonical S,
// all-zero signature).
TEST(Ed25519, BatchMatchesSingleVerifyProperty) {
  std::uint64_t rng = 0x2b992ddfa23249d6ULL;  // fixed seed: deterministic test
  auto next = [&rng]() {
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    return rng;
  };

  const Bytes ell = from_hex(
      "edd3f55c1a631258d69cf7a2def9de1400000000000000000000000000000010");

  int cases = 0;
  for (int round = 0; cases < 1000; ++round) {
    const std::size_t n = 1 + next() % 12;
    std::vector<Bytes> msgs(n);
    std::vector<VerifyItem> items(n);
    std::vector<bool> expected(n);
    for (std::size_t i = 0; i < n; ++i) {
      Seed seed{};
      for (int b = 0; b < 4; ++b) {
        const std::uint64_t w = next();
        for (int j = 0; j < 8; ++j)
          seed[static_cast<std::size_t>(b * 8 + j)] =
              static_cast<std::uint8_t>(w >> (8 * j));
      }
      msgs[i] = bytes_of("prop-" + std::to_string(round) + "-" + std::to_string(i));
      items[i] = {derive_public(seed), ByteView{msgs[i]}, sign(seed, msgs[i])};

      switch (next() % 8) {
        case 0:  // tampered R half
          items[i].sig[next() % 32] ^= static_cast<std::uint8_t>(1 + next() % 255);
          break;
        case 1:  // tampered S half
          items[i].sig[32 + next() % 32] ^= static_cast<std::uint8_t>(1 + next() % 255);
          break;
        case 2:  // wrong message
          msgs[i].back() ^= 0x01;
          break;
        case 3: {  // wrong key
          Seed other{};
          other[0] = static_cast<std::uint8_t>(next());
          other[1] = 0xEE;
          items[i].pub = derive_public(other);
          break;
        }
        case 4: {  // non-canonical S' = S + L
          unsigned carry = 0;
          for (std::size_t b = 0; b < 32; ++b) {
            const unsigned sum = items[i].sig[32 + b] + ell[b] + carry;
            items[i].sig[32 + b] = static_cast<std::uint8_t>(sum);
            carry = sum >> 8;
          }
          break;
        }
        case 5:  // all-zero signature
          items[i].sig = SignatureBytes{};
          break;
        default:  // leave valid (two of eight arms)
          break;
      }
      expected[i] = verify(items[i].pub, items[i].msg, items[i].sig);
      ++cases;
    }
    const std::vector<bool> got = verify_batch(items);
    ASSERT_EQ(got.size(), expected.size());
    for (std::size_t i = 0; i < n; ++i)
      EXPECT_EQ(got[i], expected[i]) << "round " << round << " item " << i;
  }
}

TEST(Ed25519, ManyRandomRoundTrips) {
  for (int i = 0; i < 16; ++i) {
    Seed seed{};
    seed[0] = static_cast<std::uint8_t>(i * 17 + 1);
    seed[31] = static_cast<std::uint8_t>(i);
    const PublicKeyBytes pub = derive_public(seed);
    Bytes msg = bytes_of("msg-" + std::to_string(i));
    const SignatureBytes sig = sign(seed, msg);
    EXPECT_TRUE(verify(pub, msg, sig)) << i;
    msg.push_back(0x00);
    EXPECT_FALSE(verify(pub, msg, sig)) << i;
  }
}

}  // namespace
}  // namespace bmg::crypto::ed25519
