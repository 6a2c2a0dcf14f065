#include "guest/instructions.hpp"

#include <gtest/gtest.h>

#include <string>

#include "host/constants.hpp"
#include "host/program.hpp"

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

}  // namespace
}  // namespace bmg::guest
