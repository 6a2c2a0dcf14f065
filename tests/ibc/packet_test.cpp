#include "ibc/packet.hpp"

#include <gtest/gtest.h>

#include "common/codec.hpp"
#include "ibc/commitment.hpp"
#include "ibc/handshake.hpp"

namespace bmg::ibc {
namespace {

Packet sample_packet() {
  Packet p;
  p.sequence = 42;
  p.source_port = "transfer";
  p.source_channel = "channel-0";
  p.dest_port = "transfer";
  p.dest_channel = "channel-7";
  p.data = bytes_of("payload");
  p.timeout_height = 100;
  p.timeout_timestamp = 123.5;
  return p;
}

/// Decodes every strict prefix of `wire` and requires CodecError from
/// each: a single missing byte anywhere must be caught at decode.
template <typename T>
void expect_all_truncations_throw(const Bytes& wire) {
  for (std::size_t cut = 0; cut < wire.size(); ++cut) {
    EXPECT_THROW((void)T::decode(ByteView{wire.data(), cut}), CodecError)
        << "prefix length " << cut << " of " << wire.size();
  }
}

TEST(Packet, EncodeDecodeRoundTrip) {
  const Packet p = sample_packet();
  EXPECT_EQ(Packet::decode(p.encode()), p);
}

TEST(Packet, DecodeReencodesByteForByte) {
  const Packet p = sample_packet();
  const Bytes wire = p.encode();
  const Packet q = Packet::decode(wire);
  EXPECT_EQ(q.encode(), wire);
  EXPECT_DOUBLE_EQ(q.timeout_timestamp, p.timeout_timestamp);
  EXPECT_EQ(q.commitment(), p.commitment());
}

TEST(Packet, EveryTruncationThrows) {
  expect_all_truncations_throw<Packet>(sample_packet().encode());
}

TEST(Packet, TrailingBytesThrow) {
  Bytes wire = sample_packet().encode();
  wire.push_back(0x00);
  EXPECT_THROW((void)Packet::decode(wire), CodecError);
}

TEST(Packet, CommitmentCoversTimeoutsAndData) {
  const Packet p = sample_packet();
  Packet q = p;
  q.data = bytes_of("other");
  EXPECT_NE(p.commitment(), q.commitment());
  q = p;
  q.timeout_height = 101;
  EXPECT_NE(p.commitment(), q.commitment());
  q = p;
  q.timeout_timestamp = 124.0;
  EXPECT_NE(p.commitment(), q.commitment());
}

TEST(Packet, CommitmentIgnoresRouting) {
  // ICS-4: the commitment covers data + timeouts; routing is bound via
  // the commitment *key* (port/channel/sequence).
  const Packet p = sample_packet();
  Packet q = p;
  q.dest_channel = "channel-9";
  EXPECT_EQ(p.commitment(), q.commitment());
}

TEST(Ack, RoundTripSuccess) {
  const Acknowledgement a = Acknowledgement::ok(bytes_of("result"));
  const Acknowledgement b = Acknowledgement::decode(a.encode());
  EXPECT_TRUE(b.success);
  EXPECT_EQ(b.result, bytes_of("result"));
}

TEST(Ack, RoundTripFailure) {
  const Acknowledgement a = Acknowledgement::fail("bad things");
  const Acknowledgement b = Acknowledgement::decode(a.encode());
  EXPECT_FALSE(b.success);
  EXPECT_EQ(b.error, "bad things");
}

TEST(Ack, DecodeReencodesByteForByte) {
  for (const Acknowledgement& a :
       {Acknowledgement::ok(Bytes{9, 9, 9}), Acknowledgement::fail("bad things"),
        Acknowledgement::ok()}) {
    const Bytes wire = a.encode();
    const Acknowledgement b = Acknowledgement::decode(wire);
    EXPECT_EQ(b, a);
    EXPECT_EQ(b.encode(), wire);
    EXPECT_EQ(b.commitment(), a.commitment());
  }
}

TEST(Ack, EveryTruncationThrows) {
  expect_all_truncations_throw<Acknowledgement>(Acknowledgement::fail("reason").encode());
  expect_all_truncations_throw<Acknowledgement>(Acknowledgement::ok(Bytes{1, 2}).encode());
}

TEST(Ack, BadBooleanThrows) {
  Bytes wire = Acknowledgement::ok().encode();
  wire[0] = 0x02;  // boolean must be 0 or 1
  EXPECT_THROW((void)Acknowledgement::decode(wire), CodecError);
}

TEST(Ack, CommitmentsDiffer) {
  EXPECT_NE(Acknowledgement::ok().commitment(),
            Acknowledgement::fail("x").commitment());
}

TEST(CommitmentKeys, FixedWidth) {
  const auto a = packet_key(KeyKind::kPacketCommitment, "transfer", "channel-0", 1);
  const auto b = packet_key(KeyKind::kPacketReceipt, "p", "c", 99999);
  EXPECT_EQ(a.size(), 17u);
  EXPECT_EQ(b.size(), 17u);
  EXPECT_EQ(channel_key("transfer", "channel-0").size(), 17u);
  EXPECT_EQ(connection_key("connection-0").size(), 17u);
}

TEST(CommitmentKeys, DistinctAcrossDimensions) {
  const auto k = [](KeyKind kind, const char* p, const char* c, std::uint64_t s) {
    return packet_key(kind, p, c, s);
  };
  const auto base = k(KeyKind::kPacketCommitment, "transfer", "channel-0", 5);
  EXPECT_NE(base, k(KeyKind::kPacketReceipt, "transfer", "channel-0", 5));
  EXPECT_NE(base, k(KeyKind::kPacketCommitment, "other", "channel-0", 5));
  EXPECT_NE(base, k(KeyKind::kPacketCommitment, "transfer", "channel-1", 5));
  EXPECT_NE(base, k(KeyKind::kPacketCommitment, "transfer", "channel-0", 6));
}

TEST(CommitmentKeys, MonotonicInSequence) {
  // Big-endian sequence encoding => lexicographic order matches
  // numeric order, which the safe-sealing argument relies on.
  Bytes prev = packet_key(KeyKind::kPacketReceipt, "transfer", "channel-0", 0).to_bytes();
  for (std::uint64_t s = 1; s < 1000; s += 7) {
    const Bytes cur =
        packet_key(KeyKind::kPacketReceipt, "transfer", "channel-0", s).to_bytes();
    EXPECT_LT(prev, cur);
    prev = cur;
  }
}

TEST(HandshakeEnds, ConnectionRoundTrip) {
  ConnectionEnd c;
  c.state = ConnectionState::kTryOpen;
  c.client_id = "guest-0";
  c.counterparty_connection = "connection-3";
  c.counterparty_client_id = "tendermint-1";
  EXPECT_EQ(ConnectionEnd::decode(c.encode()), c);
}

TEST(HandshakeEnds, ChannelRoundTrip) {
  ChannelEnd c;
  c.state = ChannelState::kOpen;
  c.connection = "connection-0";
  c.counterparty_port = "transfer";
  c.counterparty_channel = "channel-2";
  EXPECT_EQ(ChannelEnd::decode(c.encode()), c);
}

TEST(HandshakeEnds, CommitmentTracksState) {
  ConnectionEnd c;
  c.client_id = "guest-0";
  const Hash32 init = c.commitment();
  c.state = ConnectionState::kOpen;
  EXPECT_NE(c.commitment(), init);
}

}  // namespace
}  // namespace bmg::ibc
