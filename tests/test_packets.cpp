#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <vector>

#include "net/crc.hpp"
#include "net/packets.hpp"
#include "net/wire.hpp"

namespace qlink::net {
namespace {

TEST(Crc32, KnownVector) {
  // CRC32("123456789") = 0xCBF43926 (IEEE 802.3).
  const std::uint8_t data[] = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  EXPECT_EQ(crc32(data), 0xCBF43926u);
}

TEST(Crc32, EmptyInput) {
  EXPECT_EQ(crc32(std::span<const std::uint8_t>{}), 0x00000000u);
}

/// Bit-at-a-time CRC-32 straight from the reflected polynomial.
std::uint32_t crc32_bitwise(std::span<const std::uint8_t> data) {
  std::uint32_t c = 0xFFFFFFFFu;
  for (std::uint8_t byte : data) {
    c ^= byte;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
  }
  return c ^ 0xFFFFFFFFu;
}

TEST(Crc32, MatchesBitwiseReferenceOnEveryLengthUpTo256) {
  // Covers whole 8-byte blocks, every tail length, and unaligned starts.
  std::mt19937 gen(2024);
  std::uniform_int_distribution<int> byte(0, 255);
  std::vector<std::uint8_t> buf(260);
  for (int trial = 0; trial < 4; ++trial) {
    for (auto& b : buf) b = static_cast<std::uint8_t>(byte(gen));
    for (std::size_t len = 0; len <= 256; ++len) {
      const std::size_t offset = static_cast<std::size_t>(trial);
      const std::span<const std::uint8_t> data(buf.data() + offset, len);
      ASSERT_EQ(crc32(data), crc32_bitwise(data))
          << "length " << len << " offset " << offset;
    }
  }
}

TEST(Wire, RoundTripsAllTypes) {
  ByteWriter w;
  w.u8(0xAB);
  w.u16(0xBEEF);
  w.u32(0xDEADBEEF);
  w.u64(0x0123456789ABCDEFull);
  w.i64(-42);
  w.f64(3.14159);
  w.boolean(true);
  const auto bytes = w.take();

  ByteReader r(bytes);
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u16(), 0xBEEF);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.i64(), -42);
  EXPECT_DOUBLE_EQ(r.f64(), 3.14159);
  EXPECT_TRUE(r.boolean());
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(Wire, TruncationThrows) {
  ByteWriter w;
  w.u16(7);
  const auto bytes = w.take();
  ByteReader r(bytes);
  r.u8();
  EXPECT_THROW(r.u16(), WireError);
}

TEST(Wire, ExpectEndCatchesTrailingBytes) {
  ByteWriter w;
  w.u32(1);
  const auto bytes = w.take();
  ByteReader r(bytes);
  r.u16();
  EXPECT_THROW(r.expect_end(), WireError);
}

TEST(Packets, GenRoundTrip) {
  GenPacket p;
  p.node_id = 1;
  p.cycle = 987654321;
  p.aid = {2, 77};
  p.pair_index = 3;
  p.request_type = 1;
  p.m_basis = 2;
  p.alpha = 0.137;
  const GenPacket q = GenPacket::decode(p.encode());
  EXPECT_EQ(q.node_id, p.node_id);
  EXPECT_EQ(q.cycle, p.cycle);
  EXPECT_EQ(q.aid, p.aid);
  EXPECT_EQ(q.pair_index, p.pair_index);
  EXPECT_EQ(q.request_type, p.request_type);
  EXPECT_EQ(q.m_basis, p.m_basis);
  EXPECT_DOUBLE_EQ(q.alpha, p.alpha);
}

TEST(Packets, ReplyRoundTrip) {
  ReplyPacket p;
  p.outcome = 2;
  p.error = MhpError::kQueueMismatch;
  p.seq_mhp = 424242;
  p.aid_receiver = {1, 5};
  p.aid_peer = {1, 6};
  p.pair_index = 9;
  p.cycle = 1234567890123ull;
  p.m_basis = 1;
  p.m_outcome = 0;
  p.m_outcome_peer = 1;
  const ReplyPacket q = ReplyPacket::decode(p.encode());
  EXPECT_EQ(q.outcome, p.outcome);
  EXPECT_EQ(q.error, p.error);
  EXPECT_EQ(q.seq_mhp, p.seq_mhp);
  EXPECT_EQ(q.aid_receiver, p.aid_receiver);
  EXPECT_EQ(q.aid_peer, p.aid_peer);
  EXPECT_EQ(q.cycle, p.cycle);
  EXPECT_EQ(q.m_outcome, 0);
  EXPECT_EQ(q.m_outcome_peer, 1);
}

TEST(Packets, DqpRoundTripWithAllFlags) {
  DqpPacket p;
  p.frame_type = DqpFrameType::kAck;
  p.comm_seq = 11;
  p.aid = {0, 300};
  p.schedule_cycle = 5000;
  p.timeout_cycle = 99999;
  p.min_fidelity = 0.64;
  p.purpose_id = 17;
  p.create_id = 255;
  p.num_pairs = 3;
  p.priority = 2;
  p.store = true;
  p.atomic = true;
  p.measure_directly = false;
  p.master_request = true;
  p.consecutive = true;
  p.init_virtual_finish = 123.5;
  p.est_cycles_per_pair = 4321;
  p.origin_node = 1;
  p.create_time_ns = 777777;
  p.max_time_ns = 5000000000ll;
  p.reject_reason = DqpRejectReason::kQueueFull;
  const DqpPacket q = DqpPacket::decode(p.encode());
  EXPECT_EQ(q.frame_type, p.frame_type);
  EXPECT_EQ(q.comm_seq, p.comm_seq);
  EXPECT_EQ(q.aid, p.aid);
  EXPECT_EQ(q.schedule_cycle, p.schedule_cycle);
  EXPECT_EQ(q.timeout_cycle, p.timeout_cycle);
  EXPECT_DOUBLE_EQ(q.min_fidelity, p.min_fidelity);
  EXPECT_EQ(q.purpose_id, p.purpose_id);
  EXPECT_EQ(q.create_id, p.create_id);
  EXPECT_EQ(q.num_pairs, p.num_pairs);
  EXPECT_EQ(q.priority, p.priority);
  EXPECT_EQ(q.store, p.store);
  EXPECT_EQ(q.atomic, p.atomic);
  EXPECT_EQ(q.measure_directly, p.measure_directly);
  EXPECT_EQ(q.master_request, p.master_request);
  EXPECT_EQ(q.consecutive, p.consecutive);
  EXPECT_DOUBLE_EQ(q.init_virtual_finish, p.init_virtual_finish);
  EXPECT_EQ(q.est_cycles_per_pair, p.est_cycles_per_pair);
  EXPECT_EQ(q.origin_node, p.origin_node);
  EXPECT_EQ(q.create_time_ns, p.create_time_ns);
  EXPECT_EQ(q.max_time_ns, p.max_time_ns);
  EXPECT_EQ(q.reject_reason, p.reject_reason);
}

TEST(Packets, ExpireRoundTrip) {
  ExpirePacket p;
  p.aid = {2, 9};
  p.origin_id = 0;
  p.create_id = 4;
  p.seq_low = 10;
  p.seq_high = 15;
  p.new_expected_seq = 16;
  const ExpirePacket q = ExpirePacket::decode(p.encode());
  EXPECT_EQ(q.aid, p.aid);
  EXPECT_EQ(q.seq_low, 10u);
  EXPECT_EQ(q.seq_high, 15u);
  EXPECT_EQ(q.new_expected_seq, 16u);
}

TEST(Packets, ExpireAckAndMemAdvertRoundTrip) {
  ExpireAckPacket a;
  a.aid = {1, 2};
  a.expected_seq = 33;
  const ExpireAckPacket a2 = ExpireAckPacket::decode(a.encode());
  EXPECT_EQ(a2.aid, a.aid);
  EXPECT_EQ(a2.expected_seq, 33u);

  MemAdvertPacket m;
  m.is_ack = true;
  m.comm_free = 1;
  m.storage_free = 7;
  const MemAdvertPacket m2 = MemAdvertPacket::decode(m.encode());
  EXPECT_TRUE(m2.is_ack);
  EXPECT_EQ(m2.storage_free, 7);
}

TEST(Packets, SealUnsealRoundTrip) {
  GenPacket p;
  p.node_id = 3;
  p.alpha = 0.25;
  const auto framed = seal(PacketType::kMhpGen, p.encode());
  const auto frame = unseal(framed);
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->type, PacketType::kMhpGen);
  const GenPacket q = GenPacket::decode(frame->payload);
  EXPECT_EQ(q.node_id, 3u);
}

TEST(Packets, UnsealRejectsCorruption) {
  GenPacket p;
  auto framed = seal(PacketType::kMhpGen, p.encode());
  framed[3] ^= 0x01;  // flip one payload bit
  EXPECT_FALSE(unseal(framed).has_value());
}

TEST(Packets, UnsealRejectsCorruptCrc) {
  GenPacket p;
  auto framed = seal(PacketType::kMhpGen, p.encode());
  framed.back() ^= 0xFF;
  EXPECT_FALSE(unseal(framed).has_value());
}

TEST(Packets, UnsealPayloadIsAViewIntoTheFrame) {
  ReplyPacket p;
  p.seq_mhp = 99;
  p.cycle = 123456;
  const auto framed = seal(p);
  const auto frame = unseal(framed);
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->type, PacketType::kMhpReply);
  EXPECT_EQ(frame->payload.data(), framed.data() + 1);
  EXPECT_EQ(frame->payload.size(), framed.size() - 5);
  EXPECT_EQ(ReplyPacket::decode(frame->payload).seq_mhp, 99u);

  // Every truncation and every single-bit flip is still rejected.
  const std::span<const std::uint8_t> all(framed);
  for (std::size_t len = 0; len < framed.size(); ++len) {
    EXPECT_FALSE(unseal(all.first(len)).has_value()) << "length " << len;
  }
  auto flipped = framed;
  for (std::size_t i = 0; i < flipped.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      flipped[i] ^= static_cast<std::uint8_t>(1u << bit);
      EXPECT_FALSE(unseal(flipped).has_value()) << "byte " << i;
      flipped[i] ^= static_cast<std::uint8_t>(1u << bit);
    }
  }
}

TEST(Packets, SealPacketMatchesSealOfEncodedPayload) {
  // seal(packet) encodes straight into the frame buffer; the bytes must
  // equal the two-step seal(type, encode()).
  GenPacket gen;
  gen.node_id = 7;
  gen.alpha = 0.1;
  EXPECT_EQ(seal(gen), seal(PacketType::kMhpGen, gen.encode()));
  ReplyPacket reply;
  reply.m_outcome = 1;
  EXPECT_EQ(seal(reply), seal(PacketType::kMhpReply, reply.encode()));
  DqpPacket dqp;
  dqp.create_id = 42;
  dqp.max_time_ns = -1;
  EXPECT_EQ(seal(dqp), seal(PacketType::kDqpFrame, dqp.encode()));
  ExpirePacket expire;
  expire.seq_high = 5;
  EXPECT_EQ(seal(expire), seal(PacketType::kExpire, expire.encode()));
  ExpireAckPacket ack;
  ack.expected_seq = 3;
  EXPECT_EQ(seal(ack), seal(PacketType::kExpireAck, ack.encode()));
  MemAdvertPacket advert;
  advert.storage_free = 2;
  EXPECT_EQ(seal(advert), seal(PacketType::kMemAdvert, advert.encode()));
}

TEST(Packets, UnsealRejectsTinyFrames) {
  const std::vector<std::uint8_t> tiny{1, 2, 3};
  EXPECT_FALSE(unseal(tiny).has_value());
}

TEST(Packets, DecodeRejectsTruncatedPayload) {
  GenPacket p;
  auto payload = p.encode();
  payload.pop_back();
  EXPECT_THROW(GenPacket::decode(payload), WireError);
}

TEST(Packets, AbsoluteQueueIdOrdering) {
  const AbsoluteQueueId a{0, 5};
  const AbsoluteQueueId b{0, 6};
  const AbsoluteQueueId c{1, 0};
  EXPECT_LT(a, b);
  EXPECT_LT(b, c);
  EXPECT_EQ(a, (AbsoluteQueueId{0, 5}));
}

}  // namespace
}  // namespace qlink::net
