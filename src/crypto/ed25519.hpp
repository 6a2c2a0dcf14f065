// Ed25519 (RFC 8032) implemented from scratch: curve25519 field and
// group arithmetic plus scalar arithmetic mod the group order L.
//
// Real signatures matter for this reproduction: the paper's costs and
// latencies hinge on *how many* signatures must be produced/verified
// and how expensive verification is inside the host runtime's compute
// budget.  Tested against the RFC 8032 test vectors.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "common/bytes.hpp"

namespace bmg::crypto::ed25519 {

using Seed = std::array<std::uint8_t, 32>;
using PublicKeyBytes = std::array<std::uint8_t, 32>;
using SignatureBytes = std::array<std::uint8_t, 64>;

/// A seed expanded once (RFC 8032 §5.1.5): everything signing needs,
/// so a signature costs one fixed-base multiplication and two hashes.
struct ExpandedKey {
  std::array<std::uint8_t, 32> scalar;  ///< clamped secret scalar a
  std::array<std::uint8_t, 32> prefix;  ///< nonce prefix, SHA-512(seed)[32..64)
  PublicKeyBytes pub;                   ///< [a]B, compressed
};

/// Hashes and clamps `seed` and derives its public key.
[[nodiscard]] ExpandedKey expand(const Seed& seed);

/// Derives the public key for a 32-byte seed: `expand(seed).pub`.
[[nodiscard]] PublicKeyBytes derive_public(const Seed& seed);

/// Signs `msg` with an expanded key (RFC 8032 §5.1.6).
[[nodiscard]] SignatureBytes sign(const ExpandedKey& key, ByteView msg);

/// Signs `msg` with the given seed: `sign(expand(seed), msg)`.
[[nodiscard]] SignatureBytes sign(const Seed& seed, ByteView msg);

/// Verifies a signature (RFC 8032 §5.1.7, cofactorless, strict S < L).
[[nodiscard]] bool verify(const PublicKeyBytes& pub, ByteView msg, const SignatureBytes& sig);

/// One signature of a batch; `msg` must stay alive for the call.
struct VerifyItem {
  PublicKeyBytes pub;
  ByteView msg;
  SignatureBytes sig;
};

/// Batch verification of many (pub, msg, sig) triples at once.
///
/// The fast path checks one random-linear-combination equation
///   [sum z_i S_i] B  ==  sum [z_i] R_i + sum [z_i k_i] A_i
/// with per-item 128-bit coefficients z_i derived Fiat–Shamir style
/// from the batch itself, sharing a single doubling chain across every
/// point (Straus).  If the combined check fails, each item is
/// re-verified individually so callers still learn *which* signature
/// is bad.  Accepts exactly the signatures `verify` accepts (same
/// canonical-S, canonical-encoding and cofactorless-equation rules).
[[nodiscard]] std::vector<bool> verify_batch(std::span<const VerifyItem> items);

}  // namespace bmg::crypto::ed25519
