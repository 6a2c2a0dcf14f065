#include "guest/instructions.hpp"

#include <algorithm>
#include <cstring>

#include "host/constants.hpp"
#include "host/program.hpp"

namespace bmg::guest::ix {

namespace {
host::Instruction make(Op op, Bytes payload) {
  Encoder e;
  e.u8(static_cast<std::uint8_t>(op));
  e.raw(payload);
  return host::Instruction{kProgramName, e.take()};
}

host::Instruction buffer_op(Op op, std::uint64_t buffer_id) {
  Encoder e;
  e.u64(buffer_id);
  return make(op, e.take());
}
}  // namespace

host::Instruction generate_block() { return make(Op::kGenerateBlock, {}); }

host::Instruction sign_block(ibc::Height height, const crypto::PublicKey& validator) {
  Encoder e;
  e.u64(height).raw(validator.view());
  return make(Op::kSign, e.take());
}

host::Instruction send_packet(const ibc::PortId& port, const ibc::ChannelId& channel,
                              ByteView data, ibc::Height timeout_height,
                              ibc::Timestamp timeout_timestamp) {
  Encoder e;
  e.str(port).str(channel).bytes(data).u64(timeout_height).u64(
      static_cast<std::uint64_t>(timeout_timestamp * 1e6 + 0.5));
  return make(Op::kSendPacket, e.take());
}

host::Instruction send_transfer(const ibc::ChannelId& channel, const std::string& denom,
                                std::uint64_t amount, const std::string& sender,
                                const std::string& receiver, ibc::Height timeout_height,
                                ibc::Timestamp timeout_timestamp) {
  Encoder e;
  e.str(channel).str(denom).u64(amount).str(sender).str(receiver).u64(timeout_height).u64(
      static_cast<std::uint64_t>(timeout_timestamp * 1e6 + 0.5));
  return make(Op::kSendTransfer, e.take());
}

host::Instruction chunk_upload(std::uint64_t buffer_id, std::uint32_t offset,
                               ByteView data) {
  Encoder e;
  e.u64(buffer_id).u32(offset).bytes(data);
  return make(Op::kChunkUpload, e.take());
}

host::Instruction receive_packet(std::uint64_t buffer_id) {
  return buffer_op(Op::kReceivePacket, buffer_id);
}
host::Instruction acknowledge_packet(std::uint64_t buffer_id) {
  return buffer_op(Op::kAcknowledgePacket, buffer_id);
}
host::Instruction timeout_packet(std::uint64_t buffer_id) {
  return buffer_op(Op::kTimeoutPacket, buffer_id);
}
host::Instruction begin_client_update(std::uint64_t buffer_id) {
  return buffer_op(Op::kBeginClientUpdate, buffer_id);
}
host::Instruction verify_update_signatures() {
  return make(Op::kVerifyUpdateSignatures, {});
}
host::Instruction finish_client_update() { return make(Op::kFinishClientUpdate, {}); }

host::Instruction stake(std::uint64_t lamports) {
  Encoder e;
  e.u64(lamports);
  return make(Op::kStake, e.take());
}

host::Instruction unstake(std::uint64_t lamports) {
  Encoder e;
  e.u64(lamports);
  return make(Op::kUnstake, e.take());
}

host::Instruction withdraw_stake() { return make(Op::kWithdrawStake, {}); }

host::Instruction submit_evidence(std::uint64_t buffer_id) {
  return buffer_op(Op::kSubmitEvidence, buffer_id);
}

Bytes Evidence::encode() const {
  Encoder e;
  e.raw(offender.view());
  e.u8(static_cast<std::uint8_t>(headers.size()));
  for (const ibc::QuorumHeader& h : headers) e.bytes(h.encode());
  for (const crypto::Signature& sig : annex) e.raw(sig.view());
  return e.take();
}

Evidence Evidence::decode(ByteView blob) {
  Decoder d(blob);
  Evidence ev;
  crypto::ed25519::PublicKeyBytes pk;
  std::memcpy(pk.data(), d.view(pk.size()).data(), pk.size());
  ev.offender = crypto::PublicKey(pk);
  const std::uint8_t count = d.u8();
  if (count != 1 && count != 2) throw host::TxError("evidence: need 1 or 2 headers");
  for (std::uint8_t i = 0; i < count; ++i)
    ev.headers.push_back(ibc::QuorumHeader::decode(d.bytes_view()));
  if (!d.done()) {
    for (std::uint8_t i = 0; i < count; ++i) {
      crypto::ed25519::SignatureBytes sig;
      std::memcpy(sig.data(), d.view(sig.size()).data(), sig.size());
      ev.annex.emplace_back(sig);
    }
  }
  d.expect_done();
  return ev;
}

std::vector<host::SigVerify> Evidence::sig_verifies() const {
  std::vector<host::SigVerify> sigs;
  for (std::size_t i = 0; i < std::min(annex.size(), headers.size()); ++i)
    sigs.push_back(host::SigVerify{offender, headers[i].signing_digest(), annex[i]});
  return sigs;
}

host::Instruction handshake(std::uint64_t buffer_id) {
  return buffer_op(Op::kHandshake, buffer_id);
}

host::Instruction freeze_client(std::uint64_t buffer_id) {
  return buffer_op(Op::kFreezeClient, buffer_id);
}

host::Instruction self_destruct() { return make(Op::kSelfDestruct, {}); }

Bytes ClientUpdate::encode(const ibc::QuorumHeader& header,
                           const std::optional<ibc::ValidatorSet>& next) {
  Encoder e(4 + header.byte_size() + 1 + (next ? 4 + next->byte_size() : 0));
  e.u32(static_cast<std::uint32_t>(header.byte_size()));
  header.encode_into(e);
  e.boolean(next.has_value());
  if (next) {
    e.u32(static_cast<std::uint32_t>(next->byte_size()));
    next->encode_into(e);
  }
  return e.take();
}

ClientUpdate ClientUpdate::decode(ByteView blob) {
  Decoder d(blob);
  ClientUpdate u;
  u.header = ibc::QuorumHeader::decode(d.bytes_view());
  if (d.boolean()) u.next_validators = ibc::ValidatorSet::decode(d.bytes_view());
  d.expect_done();
  return u;
}

Bytes PacketProof::encode(const ibc::Packet& packet, ibc::Height proof_height,
                          const trie::Proof& proof) {
  Encoder e(4 + packet.wire_size() + 8 + 4 + proof.byte_size());
  e.u32(static_cast<std::uint32_t>(packet.wire_size()));
  packet.encode_into(e);
  e.u64(proof_height);
  e.u32(static_cast<std::uint32_t>(proof.byte_size()));
  proof.serialize_into(e);
  return e.take();
}

PacketProof PacketProof::decode(ByteView blob) {
  Decoder d(blob);
  PacketProof p;
  p.packet = ibc::Packet::decode(d.bytes_view());
  p.proof_height = d.u64();
  p.proof = trie::Proof::deserialize(d.bytes_view());
  d.expect_done();
  return p;
}

Bytes AckProof::encode(const ibc::Packet& packet, const ibc::Acknowledgement& ack,
                       ibc::Height proof_height, const trie::Proof& proof) {
  Encoder e(4 + packet.wire_size() + 4 + ack.wire_size() + 8 + 4 + proof.byte_size());
  e.u32(static_cast<std::uint32_t>(packet.wire_size()));
  packet.encode_into(e);
  e.u32(static_cast<std::uint32_t>(ack.wire_size()));
  ack.encode_into(e);
  e.u64(proof_height);
  e.u32(static_cast<std::uint32_t>(proof.byte_size()));
  proof.serialize_into(e);
  return e.take();
}

AckProof AckProof::decode(ByteView blob) {
  Decoder d(blob);
  AckProof a;
  a.packet = ibc::Packet::decode(d.bytes_view());
  a.ack = ibc::Acknowledgement::decode(d.bytes_view());
  a.proof_height = d.u64();
  a.proof = trie::Proof::deserialize(d.bytes_view());
  d.expect_done();
  return a;
}

std::size_t max_chunk_bytes(std::size_t max_tx_size) {
  // Envelope + op tag + buffer id + offset + length prefix.
  return max_tx_size - host::kTxEnvelopeBytes - 8 - 1 - 8 - 4 - 4 - 16;
}

std::vector<Bytes> chunk_payload(ByteView blob, std::size_t max_tx_size) {
  const std::size_t chunk = max_chunk_bytes(max_tx_size);
  std::vector<Bytes> out;
  for (std::size_t off = 0; off < blob.size(); off += chunk) {
    const std::size_t len = std::min(chunk, blob.size() - off);
    out.emplace_back(blob.begin() + static_cast<std::ptrdiff_t>(off),
                     blob.begin() + static_cast<std::ptrdiff_t>(off + len));
  }
  if (out.empty()) out.emplace_back();
  return out;
}

std::vector<host::Transaction> staged_call(const crypto::PublicKey& payer,
                                           const host::FeePolicy& fee,
                                           std::uint64_t buffer_id, ByteView payload,
                                           BufferOp op, const std::string& label,
                                           std::size_t max_tx_size,
                                           const std::string& chunk_label) {
  const auto tx = [&](std::string tx_label, host::Instruction ix) {
    host::Transaction t;
    t.payer = payer;
    t.fee = fee;
    t.label = std::move(tx_label);
    t.instructions.push_back(std::move(ix));
    return t;
  };
  const std::vector<Bytes> chunks = chunk_payload(payload, max_tx_size);
  std::vector<host::Transaction> txs;
  txs.reserve(chunks.size() + 1);
  std::uint32_t offset = 0;
  for (const Bytes& chunk : chunks) {
    txs.push_back(tx(chunk_label.empty() ? label + ":chunk" : chunk_label,
                     chunk_upload(buffer_id, offset, chunk)));
    offset += static_cast<std::uint32_t>(chunk.size());
  }
  txs.push_back(tx(label, op(buffer_id)));
  return txs;
}

}  // namespace bmg::guest::ix
