// Instruction encoding for the Guest Contract.
//
// Everything an off-chain actor (client, validator, relayer,
// fisherman) does goes through these host-chain instructions.  Large
// payloads (light client updates, packets with proofs, evidence) do
// not fit in one 1232-byte host transaction, so they are first
// uploaded in chunks into a per-payer staging buffer and then
// consumed by the operation that references the buffer — the
// mechanism the paper's implementation uses on Solana (§IV).
// `staged_call` is the one builder of that chunk-upload sequence, and
// each staged payload has one encoder and one parser here:
//
//   begin_client_update  ClientUpdate  bytes(header) | bool has_next
//                                      | [bytes(next validator set)]
//   receive_packet,      PacketProof   bytes(packet) | u64 proof height
//   timeout_packet                     | bytes(proof)
//   acknowledge_packet   AckProof      bytes(packet) | bytes(ack)
//                                      | u64 proof height | bytes(proof)
//   submit_evidence      Evidence      offender | u8 count
//                                      | count × bytes(header) | [annex]
//
// (`bytes` is a u32 length prefix and the value's own wire encoding.)
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/codec.hpp"
#include "crypto/keys.hpp"
#include "host/transaction.hpp"
#include "ibc/packet.hpp"
#include "ibc/quorum.hpp"
#include "ibc/types.hpp"
#include "trie/node.hpp"

namespace bmg::guest {

/// Program name under which the Guest Contract registers on the host.
inline constexpr const char* kProgramName = "guest";

enum class Op : std::uint8_t {
  kGenerateBlock = 1,
  kSign = 2,
  kSendPacket = 3,
  kChunkUpload = 4,
  kReceivePacket = 5,
  kBeginClientUpdate = 6,
  kVerifyUpdateSignatures = 7,
  kFinishClientUpdate = 8,
  kStake = 9,
  kUnstake = 10,
  kWithdrawStake = 11,
  kSubmitEvidence = 12,
  kHandshake = 13,
  kSendTransfer = 14,
  kAcknowledgePacket = 15,
  kTimeoutPacket = 16,
  /// §VI-C: freeze the counterparty light client with fork evidence.
  kFreezeClient = 17,
  /// §VI-A: wind the guest chain down after prolonged stall.
  kSelfDestruct = 18,
};

enum class HandshakeOp : std::uint8_t {
  kConnOpenInit = 1,
  kConnOpenTry = 2,
  kConnOpenAck = 3,
  kConnOpenConfirm = 4,
  kChanOpenInit = 5,
  kChanOpenTry = 6,
  kChanOpenAck = 7,
  kChanOpenConfirm = 8,
};

namespace ix {

[[nodiscard]] host::Instruction generate_block();
[[nodiscard]] host::Instruction sign_block(ibc::Height height,
                                           const crypto::PublicKey& validator);
[[nodiscard]] host::Instruction send_packet(const ibc::PortId& port,
                                            const ibc::ChannelId& channel, ByteView data,
                                            ibc::Height timeout_height,
                                            ibc::Timestamp timeout_timestamp);
[[nodiscard]] host::Instruction send_transfer(const ibc::ChannelId& channel,
                                              const std::string& denom,
                                              std::uint64_t amount,
                                              const std::string& sender,
                                              const std::string& receiver,
                                              ibc::Height timeout_height,
                                              ibc::Timestamp timeout_timestamp);
[[nodiscard]] host::Instruction chunk_upload(std::uint64_t buffer_id, std::uint32_t offset,
                                             ByteView data);
[[nodiscard]] host::Instruction receive_packet(std::uint64_t buffer_id);
[[nodiscard]] host::Instruction acknowledge_packet(std::uint64_t buffer_id);
[[nodiscard]] host::Instruction timeout_packet(std::uint64_t buffer_id);
[[nodiscard]] host::Instruction begin_client_update(std::uint64_t buffer_id);
[[nodiscard]] host::Instruction verify_update_signatures();
[[nodiscard]] host::Instruction finish_client_update();
[[nodiscard]] host::Instruction stake(std::uint64_t lamports);
[[nodiscard]] host::Instruction unstake(std::uint64_t lamports);
[[nodiscard]] host::Instruction withdraw_stake();
[[nodiscard]] host::Instruction submit_evidence(std::uint64_t buffer_id);

/// The staged payload `submit_evidence` consumes (§III-C):
/// `offender | u8 count | count length-prefixed headers | annex`.  The
/// optional annex is the offender's raw signature per header.  The
/// contract trusts only pre-compile-verified signatures, but the annex
/// makes a staged blob self-contained, so a fisherman restarting after
/// a crash can rebuild the sig-verify set from chain state alone.
struct Evidence {
  crypto::PublicKey offender;
  std::vector<ibc::QuorumHeader> headers;
  /// One signature per header, or empty for a blob without annex.
  std::vector<crypto::Signature> annex;

  [[nodiscard]] Bytes encode() const;
  /// Throws host::TxError unless the blob holds 1 or 2 headers, and
  /// CodecError on any other malformed input (an annex, if present,
  /// must hold exactly one signature per header).
  [[nodiscard]] static Evidence decode(ByteView blob);
  /// The pre-compile checks proving the annex: the offender's
  /// signature over each header's signing digest.
  [[nodiscard]] std::vector<host::SigVerify> sig_verifies() const;
};

[[nodiscard]] host::Instruction handshake(std::uint64_t buffer_id);
[[nodiscard]] host::Instruction freeze_client(std::uint64_t buffer_id);
[[nodiscard]] host::Instruction self_destruct();

/// The staged payload `begin_client_update` consumes: a counterparty
/// header and, at an epoch boundary, the next validator set.  The
/// header's signatures are not in it; they reach the contract as
/// pre-compile checks on the verify transactions that follow.
struct ClientUpdate {
  ibc::QuorumHeader header;
  std::optional<ibc::ValidatorSet> next_validators;

  /// Encodes from borrowed parts into one exactly-sized buffer.
  [[nodiscard]] static Bytes encode(const ibc::QuorumHeader& header,
                                    const std::optional<ibc::ValidatorSet>& next);
  /// Throws CodecError (or the header/set parser's error) on malformed
  /// input, including trailing bytes.
  [[nodiscard]] static ClientUpdate decode(ByteView blob);
};

/// The staged payload of `receive_packet` and `timeout_packet`: the
/// packet and a counterparty proof at `proof_height` (of its
/// commitment for a receive, of its missing receipt for a timeout).
struct PacketProof {
  ibc::Packet packet;
  ibc::Height proof_height = 0;
  trie::Proof proof;

  [[nodiscard]] static Bytes encode(const ibc::Packet& packet, ibc::Height proof_height,
                                    const trie::Proof& proof);
  [[nodiscard]] static PacketProof decode(ByteView blob);
};

/// The staged payload of `acknowledge_packet`: the packet, its
/// acknowledgement and a counterparty proof of the ack.
struct AckProof {
  ibc::Packet packet;
  ibc::Acknowledgement ack;
  ibc::Height proof_height = 0;
  trie::Proof proof;

  [[nodiscard]] static Bytes encode(const ibc::Packet& packet,
                                    const ibc::Acknowledgement& ack,
                                    ibc::Height proof_height, const trie::Proof& proof);
  [[nodiscard]] static AckProof decode(ByteView blob);
};

/// Splits `blob` into chunks that fit a host transaction alongside the
/// ChunkUpload framing.  `max_tx_size` defaults to Solana's limit.
[[nodiscard]] std::vector<Bytes> chunk_payload(
    ByteView blob, std::size_t max_tx_size = host::kMaxTransactionSize);

/// Bytes of buffer payload that fit in one chunk-upload transaction.
[[nodiscard]] std::size_t max_chunk_bytes(
    std::size_t max_tx_size = host::kMaxTransactionSize);

/// An operation that consumes a staging buffer (receive_packet,
/// begin_client_update, submit_evidence, handshake, ...).
using BufferOp = host::Instruction (*)(std::uint64_t buffer_id);

/// One staged guest call: `payload` chunk-uploaded into staging buffer
/// `buffer_id`, then one transaction running `op(buffer_id)`.  Every
/// transaction is paid by `payer` at `fee` and fits a host whose
/// transactions hold at most `max_tx_size` bytes.  The finishing
/// transaction is labelled `label`, the chunk uploads `chunk_label`
/// (`label + ":chunk"` when empty); fault plans match on both.
[[nodiscard]] std::vector<host::Transaction> staged_call(
    const crypto::PublicKey& payer, const host::FeePolicy& fee, std::uint64_t buffer_id,
    ByteView payload, BufferOp op, const std::string& label, std::size_t max_tx_size,
    const std::string& chunk_label = {});

}  // namespace ix
}  // namespace bmg::guest
