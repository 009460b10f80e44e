#include "net/packets.hpp"

#include "net/crc.hpp"

namespace qlink::net {

namespace {

void put_aid(ByteWriter& w, const AbsoluteQueueId& aid) {
  w.u8(aid.qid);
  w.u32(aid.qseq);
}

AbsoluteQueueId get_aid(ByteReader& r) {
  AbsoluteQueueId aid;
  aid.qid = r.u8();
  aid.qseq = r.u32();
  return aid;
}

template <typename Packet>
std::vector<std::uint8_t> encode_payload(const Packet& packet) {
  ByteWriter w;
  packet.write(w);
  return w.take();
}

}  // namespace

std::vector<std::uint8_t> GenPacket::encode() const {
  return encode_payload(*this);
}

void GenPacket::write(ByteWriter& w) const {
  w.u32(node_id);
  w.u64(cycle);
  put_aid(w, aid);
  w.u16(pair_index);
  w.u8(request_type);
  w.u8(m_basis);
  w.f64(alpha);
}

GenPacket GenPacket::decode(std::span<const std::uint8_t> payload) {
  ByteReader r(payload);
  GenPacket p;
  p.node_id = r.u32();
  p.cycle = r.u64();
  p.aid = get_aid(r);
  p.pair_index = r.u16();
  p.request_type = r.u8();
  p.m_basis = r.u8();
  p.alpha = r.f64();
  r.expect_end();
  return p;
}

std::vector<std::uint8_t> ReplyPacket::encode() const {
  return encode_payload(*this);
}

void ReplyPacket::write(ByteWriter& w) const {
  w.u8(outcome);
  w.u8(static_cast<std::uint8_t>(error));
  w.u32(seq_mhp);
  put_aid(w, aid_receiver);
  put_aid(w, aid_peer);
  w.u16(pair_index);
  w.u16(pair_index_peer);
  w.u64(cycle);
  w.u8(m_basis);
  w.u8(m_outcome);
  w.u8(m_outcome_peer);
}

ReplyPacket ReplyPacket::decode(std::span<const std::uint8_t> payload) {
  ByteReader r(payload);
  ReplyPacket p;
  p.outcome = r.u8();
  p.error = static_cast<MhpError>(r.u8());
  p.seq_mhp = r.u32();
  p.aid_receiver = get_aid(r);
  p.aid_peer = get_aid(r);
  p.pair_index = r.u16();
  p.pair_index_peer = r.u16();
  p.cycle = r.u64();
  p.m_basis = r.u8();
  p.m_outcome = r.u8();
  p.m_outcome_peer = r.u8();
  r.expect_end();
  return p;
}

std::vector<std::uint8_t> DqpPacket::encode() const {
  return encode_payload(*this);
}

void DqpPacket::write(ByteWriter& w) const {
  w.u8(static_cast<std::uint8_t>(frame_type));
  w.u32(comm_seq);
  put_aid(w, aid);
  w.u64(schedule_cycle);
  w.u64(timeout_cycle);
  w.f64(min_fidelity);
  w.u16(purpose_id);
  w.u32(create_id);
  w.u16(num_pairs);
  w.u8(priority);
  std::uint8_t flags = 0;
  if (store) flags |= 1u;
  if (atomic) flags |= 2u;
  if (measure_directly) flags |= 4u;
  if (master_request) flags |= 8u;
  if (consecutive) flags |= 16u;
  w.u8(flags);
  w.f64(init_virtual_finish);
  w.u32(est_cycles_per_pair);
  w.u32(origin_node);
  w.i64(create_time_ns);
  w.i64(max_time_ns);
  w.u8(static_cast<std::uint8_t>(reject_reason));
}

DqpPacket DqpPacket::decode(std::span<const std::uint8_t> payload) {
  ByteReader r(payload);
  DqpPacket p;
  p.frame_type = static_cast<DqpFrameType>(r.u8());
  p.comm_seq = r.u32();
  p.aid = get_aid(r);
  p.schedule_cycle = r.u64();
  p.timeout_cycle = r.u64();
  p.min_fidelity = r.f64();
  p.purpose_id = r.u16();
  p.create_id = r.u32();
  p.num_pairs = r.u16();
  p.priority = r.u8();
  const std::uint8_t flags = r.u8();
  p.store = flags & 1u;
  p.atomic = flags & 2u;
  p.measure_directly = flags & 4u;
  p.master_request = flags & 8u;
  p.consecutive = flags & 16u;
  p.init_virtual_finish = r.f64();
  p.est_cycles_per_pair = r.u32();
  p.origin_node = r.u32();
  p.create_time_ns = r.i64();
  p.max_time_ns = r.i64();
  p.reject_reason = static_cast<DqpRejectReason>(r.u8());
  r.expect_end();
  return p;
}

std::vector<std::uint8_t> ExpirePacket::encode() const {
  return encode_payload(*this);
}

void ExpirePacket::write(ByteWriter& w) const {
  put_aid(w, aid);
  w.u32(origin_id);
  w.u32(create_id);
  w.u32(seq_low);
  w.u32(seq_high);
  w.u32(new_expected_seq);
}

ExpirePacket ExpirePacket::decode(std::span<const std::uint8_t> payload) {
  ByteReader r(payload);
  ExpirePacket p;
  p.aid = get_aid(r);
  p.origin_id = r.u32();
  p.create_id = r.u32();
  p.seq_low = r.u32();
  p.seq_high = r.u32();
  p.new_expected_seq = r.u32();
  r.expect_end();
  return p;
}

std::vector<std::uint8_t> ExpireAckPacket::encode() const {
  return encode_payload(*this);
}

void ExpireAckPacket::write(ByteWriter& w) const {
  put_aid(w, aid);
  w.u32(expected_seq);
}

ExpireAckPacket ExpireAckPacket::decode(
    std::span<const std::uint8_t> payload) {
  ByteReader r(payload);
  ExpireAckPacket p;
  p.aid = get_aid(r);
  p.expected_seq = r.u32();
  r.expect_end();
  return p;
}

std::vector<std::uint8_t> MemAdvertPacket::encode() const {
  return encode_payload(*this);
}

void MemAdvertPacket::write(ByteWriter& w) const {
  w.boolean(is_ack);
  w.u16(comm_free);
  w.u16(storage_free);
}

MemAdvertPacket MemAdvertPacket::decode(
    std::span<const std::uint8_t> payload) {
  ByteReader r(payload);
  MemAdvertPacket p;
  p.is_ack = r.boolean();
  p.comm_free = r.u16();
  p.storage_free = r.u16();
  r.expect_end();
  return p;
}

std::vector<std::uint8_t> seal(PacketType type,
                               std::span<const std::uint8_t> payload) {
  ByteWriter w(payload.size() + 5);
  w.u8(static_cast<std::uint8_t>(type));
  w.bytes(payload);
  return w.take_sealed();
}

std::optional<Frame> unseal(std::span<const std::uint8_t> bytes) {
  if (bytes.size() < 5) return std::nullopt;
  const std::size_t body = bytes.size() - 4;
  std::uint32_t crc = 0;
  for (int i = 0; i < 4; ++i) {
    crc |= static_cast<std::uint32_t>(bytes[body + i]) << (8 * i);
  }
  if (crc32(bytes.first(body)) != crc) return std::nullopt;
  return Frame{static_cast<PacketType>(bytes[0]), bytes.subspan(1, body - 1)};
}

}  // namespace qlink::net
