#include "guest/instructions.hpp"

#include <gtest/gtest.h>

#include <string>

#include "crypto/sha256.hpp"
#include "host/constants.hpp"
#include "host/program.hpp"
#include "trie/trie.hpp"

namespace bmg::guest {
namespace {

TEST(Instructions, AllTargetGuestProgram) {
  EXPECT_EQ(ix::generate_block().program, kProgramName);
  EXPECT_EQ(ix::stake(1).program, kProgramName);
  EXPECT_EQ(ix::handshake(1).program, kProgramName);
  EXPECT_EQ(ix::self_destruct().program, kProgramName);
}

TEST(Instructions, OpTagLeadsPayload) {
  const host::Instruction ix = ix::sign_block(7, crypto::PublicKey{});
  Decoder d(ix.data);
  EXPECT_EQ(static_cast<Op>(d.u8()), Op::kSign);
  EXPECT_EQ(d.u64(), 7u);
  EXPECT_EQ(d.raw(32).size(), 32u);
  d.expect_done();
}

TEST(Instructions, SendPacketRoundTrip) {
  const host::Instruction ix =
      ix::send_packet("transfer", "channel-3", bytes_of("payload"), 100, 25.5);
  Decoder d(ix.data);
  EXPECT_EQ(static_cast<Op>(d.u8()), Op::kSendPacket);
  EXPECT_EQ(d.str(), "transfer");
  EXPECT_EQ(d.str(), "channel-3");
  EXPECT_EQ(d.bytes(), bytes_of("payload"));
  EXPECT_EQ(d.u64(), 100u);
  EXPECT_EQ(d.u64(), 25'500'000u);  // microseconds
}

TEST(Instructions, ChunkPayloadCoversWholeBlobInOrder) {
  Bytes blob(5000);
  for (std::size_t i = 0; i < blob.size(); ++i)
    blob[i] = static_cast<std::uint8_t>(i * 7);
  const auto chunks = ix::chunk_payload(blob);
  EXPECT_GT(chunks.size(), 1u);
  Bytes reassembled;
  for (const auto& c : chunks) {
    EXPECT_LE(c.size(), ix::max_chunk_bytes());
    reassembled.insert(reassembled.end(), c.begin(), c.end());
  }
  EXPECT_EQ(reassembled, blob);
}

TEST(Instructions, EmptyPayloadYieldsOneEmptyChunk) {
  const auto chunks = ix::chunk_payload({});
  ASSERT_EQ(chunks.size(), 1u);
  EXPECT_TRUE(chunks[0].empty());
}

TEST(Instructions, ChunkUploadTransactionFitsSizeLimit) {
  const Bytes blob(ix::max_chunk_bytes(), 0xEE);
  host::Transaction tx;
  tx.payer = crypto::PrivateKey::from_label("x").public_key();
  tx.instructions.push_back(ix::chunk_upload(1, 0, blob));
  EXPECT_LE(tx.wire_size(), host::kMaxTransactionSize);
}

TEST(Instructions, BufferOpsEncodeBufferId) {
  for (const auto& ix : {ix::receive_packet(42), ix::acknowledge_packet(42),
                         ix::timeout_packet(42), ix::begin_client_update(42),
                         ix::submit_evidence(42), ix::handshake(42),
                         ix::freeze_client(42)}) {
    Decoder d(ix.data);
    (void)d.u8();
    EXPECT_EQ(d.u64(), 42u);
    d.expect_done();
  }
}

ix::Evidence sample_evidence(int headers, bool with_annex) {
  const crypto::PrivateKey key = crypto::PrivateKey::from_label("evidence-offender");
  ix::Evidence ev;
  ev.offender = key.public_key();
  for (int i = 0; i < headers; ++i) {
    ibc::QuorumHeader h;
    h.chain_id = "guest";
    h.height = 9;
    h.timestamp = 12.5 + i;
    h.extra = Bytes{static_cast<std::uint8_t>(i)};
    if (with_annex) ev.annex.push_back(key.sign(h.signing_digest().view()));
    ev.headers.push_back(std::move(h));
  }
  return ev;
}

TEST(Evidence, WireLayoutIsOffenderCountHeadersAnnex) {
  const ix::Evidence ev = sample_evidence(2, true);
  Encoder e;
  e.raw(ev.offender.view()).u8(2);
  for (const auto& h : ev.headers) e.bytes(h.encode());
  for (const auto& sig : ev.annex) e.raw(sig.view());
  EXPECT_EQ(ev.encode(), e.take());
}

TEST(Evidence, RoundTripsWithAndWithoutAnnex) {
  for (const int headers : {1, 2}) {
    for (const bool with_annex : {false, true}) {
      const ix::Evidence ev = sample_evidence(headers, with_annex);
      const ix::Evidence back = ix::Evidence::decode(ev.encode());
      EXPECT_EQ(back.offender, ev.offender);
      EXPECT_EQ(back.headers, ev.headers);
      EXPECT_EQ(back.annex, ev.annex);
      ASSERT_EQ(back.sig_verifies().size(), with_annex ? ev.headers.size() : 0u);
      for (std::size_t i = 0; i < back.sig_verifies().size(); ++i) {
        const host::SigVerify sv = back.sig_verifies()[i];
        EXPECT_EQ(sv.pubkey, ev.offender);
        EXPECT_EQ(sv.message, ev.headers[i].signing_digest());
        EXPECT_TRUE(crypto::verify(sv.pubkey, sv.message.view(), sv.signature));
      }
    }
  }
}

TEST(Evidence, HeaderCountMustBeOneOrTwo) {
  for (const int headers : {0, 3}) {
    try {
      (void)ix::Evidence::decode(sample_evidence(headers, true).encode());
      ADD_FAILURE() << headers << " headers decoded";
    } catch (const host::TxError& e) {
      EXPECT_EQ(std::string(e.what()), "evidence: need 1 or 2 headers");
    }
  }
}

TEST(Evidence, PartialAnnexOrTrailingBytesThrow) {
  const Bytes wire = sample_evidence(2, true).encode();
  // One signature short of a full annex: a blob cut mid-upload.
  EXPECT_THROW((void)ix::Evidence::decode(ByteView{wire.data(), wire.size() - 64}),
               CodecError);
  Bytes trailing = wire;
  trailing.push_back(0);
  EXPECT_THROW((void)ix::Evidence::decode(trailing), CodecError);
}

// --- staged payload codecs ---------------------------------------------------

ibc::QuorumHeader sample_header() {
  ibc::QuorumHeader h;
  h.chain_id = "counterparty-1";
  h.height = 41;
  h.timestamp = 99.25;
  h.state_root.bytes[3] = 0x5A;
  h.extra = Bytes{1, 2, 3};
  return h;
}

ibc::ValidatorSet sample_set() {
  std::vector<ibc::ValidatorInfo> vs;
  for (int i = 0; i < 3; ++i)
    vs.push_back({crypto::PrivateKey::from_label("codec-val-" + std::to_string(i))
                      .public_key(),
                  static_cast<std::uint64_t>(10 + i)});
  return ibc::ValidatorSet(std::move(vs));
}

ibc::Packet sample_packet() {
  ibc::Packet p;
  p.sequence = 7;
  p.source_port = "transfer";
  p.source_channel = "channel-0";
  p.dest_port = "transfer";
  p.dest_channel = "channel-1";
  p.data = bytes_of("token data");
  p.timeout_height = 300;
  p.timeout_timestamp = 1234.5;
  return p;
}

trie::Proof sample_proof() {
  trie::SealableTrie t;
  for (std::uint64_t i = 0; i < 16; ++i) {
    Encoder k;
    k.u64(i);
    t.set(k.out(), crypto::Sha256::digest(k.out()));
  }
  Encoder k;
  k.u64(5);
  return t.prove(k.out());
}

/// Every strict prefix of `wire` and `wire` plus one byte must throw.
template <typename Codec>
void expect_truncations_and_trailing_byte_throw(const Bytes& wire) {
  for (std::size_t n = 0; n < wire.size(); ++n)
    EXPECT_THROW((void)Codec::decode(ByteView{wire.data(), n}), CodecError) << n;
  Bytes trailing = wire;
  trailing.push_back(0);
  EXPECT_THROW((void)Codec::decode(trailing), CodecError);
}

TEST(ClientUpdate, WireLayoutIsHeaderFlagNextSet) {
  const ibc::QuorumHeader h = sample_header();
  const ibc::ValidatorSet next = sample_set();
  Encoder without;
  without.bytes(h.encode()).boolean(false);
  EXPECT_EQ(ix::ClientUpdate::encode(h, std::nullopt), without.take());
  Encoder with;
  with.bytes(h.encode()).boolean(true).bytes(next.encode());
  EXPECT_EQ(ix::ClientUpdate::encode(h, next), with.take());
}

TEST(ClientUpdate, RoundTripsAndRejectsTruncationAndTrailingByte) {
  for (const bool has_next : {false, true}) {
    const std::optional<ibc::ValidatorSet> next =
        has_next ? std::optional<ibc::ValidatorSet>(sample_set()) : std::nullopt;
    const Bytes wire = ix::ClientUpdate::encode(sample_header(), next);
    const ix::ClientUpdate back = ix::ClientUpdate::decode(wire);
    EXPECT_EQ(back.header, sample_header());
    EXPECT_EQ(back.next_validators, next);
    expect_truncations_and_trailing_byte_throw<ix::ClientUpdate>(wire);
  }
}

TEST(PacketProof, WireLayoutIsPacketHeightProof) {
  Encoder e;
  e.bytes(sample_packet().encode()).u64(12).bytes(sample_proof().serialize());
  EXPECT_EQ(ix::PacketProof::encode(sample_packet(), 12, sample_proof()), e.take());
}

TEST(PacketProof, RoundTripsAndRejectsTruncationAndTrailingByte) {
  const Bytes wire = ix::PacketProof::encode(sample_packet(), 12, sample_proof());
  const ix::PacketProof back = ix::PacketProof::decode(wire);
  EXPECT_EQ(back.packet, sample_packet());
  EXPECT_EQ(back.proof_height, 12u);
  EXPECT_EQ(back.proof.serialize(), sample_proof().serialize());
  expect_truncations_and_trailing_byte_throw<ix::PacketProof>(wire);
}

TEST(AckProof, WireLayoutIsPacketAckHeightProof) {
  const ibc::Acknowledgement ack = ibc::Acknowledgement::ok(bytes_of("done"));
  Encoder e;
  e.bytes(sample_packet().encode()).bytes(ack.encode()).u64(12).bytes(
      sample_proof().serialize());
  EXPECT_EQ(ix::AckProof::encode(sample_packet(), ack, 12, sample_proof()), e.take());
}

TEST(AckProof, RoundTripsAndRejectsTruncationAndTrailingByte) {
  for (const ibc::Acknowledgement& ack :
       {ibc::Acknowledgement::ok(bytes_of("done")), ibc::Acknowledgement::fail("no funds")}) {
    const Bytes wire = ix::AckProof::encode(sample_packet(), ack, 12, sample_proof());
    const ix::AckProof back = ix::AckProof::decode(wire);
    EXPECT_EQ(back.packet, sample_packet());
    EXPECT_EQ(back.ack, ack);
    EXPECT_EQ(back.proof_height, 12u);
    EXPECT_EQ(back.proof.serialize(), sample_proof().serialize());
    expect_truncations_and_trailing_byte_throw<ix::AckProof>(wire);
  }
}

// --- staged call builder ------------------------------------------------------

TEST(StagedCall, ChunksThenOneFinishingCallOnTheSameBuffer) {
  const crypto::PublicKey payer = crypto::PrivateKey::from_label("stager").public_key();
  const host::FeePolicy fee = host::FeePolicy::priority(5);
  Bytes blob(2 * ix::max_chunk_bytes() + 10);
  for (std::size_t i = 0; i < blob.size(); ++i) blob[i] = static_cast<std::uint8_t>(i);
  const auto txs = ix::staged_call(payer, fee, 77, blob, ix::timeout_packet, "timeout",
                                   host::kMaxTransactionSize);
  const std::vector<Bytes> chunks = ix::chunk_payload(blob);
  ASSERT_EQ(chunks.size(), 3u);
  ASSERT_EQ(txs.size(), 4u);
  std::uint32_t offset = 0;
  for (std::size_t i = 0; i < 3; ++i) {
    const Bytes& chunk = chunks[i];
    EXPECT_EQ(txs[i].label, "timeout:chunk");
    EXPECT_EQ(txs[i].instructions[0].data, ix::chunk_upload(77, offset, chunk).data);
    offset += static_cast<std::uint32_t>(chunk.size());
  }
  EXPECT_EQ(txs[3].label, "timeout");
  EXPECT_EQ(txs[3].instructions[0].data, ix::timeout_packet(77).data);
  for (const auto& tx : txs) {
    EXPECT_EQ(tx.payer, payer);
    EXPECT_EQ(tx.fee.kind, fee.kind);
    EXPECT_EQ(tx.fee.cu_price_microlamports, fee.cu_price_microlamports);
    ASSERT_EQ(tx.instructions.size(), 1u);
    EXPECT_TRUE(tx.sig_verifies.empty());
    EXPECT_LE(tx.wire_size(), host::kMaxTransactionSize);
  }
}

TEST(StagedCall, ChunkLabelOverrideAndHostLimit) {
  const Bytes blob(3000, 0x11);
  const auto txs =
      ix::staged_call(crypto::PublicKey{}, host::FeePolicy::base(), 1, blob,
                      ix::submit_evidence, "fisherman:evidence", 64 * 1024, "fisherman:chunk");
  // A roomier host takes the whole blob in one chunk.
  ASSERT_EQ(txs.size(), 2u);
  EXPECT_EQ(txs[0].label, "fisherman:chunk");
  EXPECT_EQ(txs[1].label, "fisherman:evidence");
  // An empty payload still stages (one empty chunk) before the call.
  EXPECT_EQ(ix::staged_call(crypto::PublicKey{}, host::FeePolicy::base(), 1, {},
                            ix::handshake, "handshake", host::kMaxTransactionSize)
                .size(),
            2u);
}

}  // namespace
}  // namespace bmg::guest
