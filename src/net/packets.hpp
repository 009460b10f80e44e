#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "net/wire.hpp"

/// \file packets.hpp
/// Classical control-plane packets of Appendix E (Figs. 24, 27, 28, 32,
/// 33, 34), byte-aligned rather than bit-packed but carrying the same
/// fields. Every frame is sealed as [type][payload][CRC32]; a frame whose
/// CRC fails to verify is treated as lost, matching the Ethernet model of
/// Appendix D.6.
///
/// Each packet type knows its PacketType (kType) and writes its fields
/// into a ByteWriter; seal(packet) builds the whole frame in one buffer.
/// unseal() verifies the CRC and returns a view of the payload inside
/// the received frame, so decoding copies nothing.

namespace qlink::net {

enum class PacketType : std::uint8_t {
  kMhpGen = 1,
  kMhpReply = 2,
  kDqpFrame = 3,   // ADD / ACK / REJ share one format (Fig. 24)
  kExpire = 4,     // Fig. 32
  kExpireAck = 5,  // Fig. 33
  kMemAdvert = 6,  // REQ(E)/ACK(E), Fig. 34
};

/// Absolute queue id (j, i_j) of Section E.1.1.
struct AbsoluteQueueId {
  std::uint8_t qid = 0;    // which priority queue j
  std::uint32_t qseq = 0;  // unique id i_j within the queue

  friend bool operator==(const AbsoluteQueueId&,
                         const AbsoluteQueueId&) = default;
  friend auto operator<=>(const AbsoluteQueueId&,
                          const AbsoluteQueueId&) = default;
};

/// Midpoint-reported error codes (Protocol 1).
enum class MhpError : std::uint8_t {
  kNone = 0,
  kQueueMismatch = 1,
  kTimeMismatch = 2,
  kNoMessageOther = 4,
  kGeneralFail = 7,  // local-only; never transmitted by the midpoint
};

/// GEN frame, node -> heralding station (Fig. 27). `alpha` rides along
/// because in this reproduction the station samples the physical model;
/// on hardware it is implicit in the photon.
struct GenPacket {
  std::uint32_t node_id = 0;
  std::uint64_t cycle = 0;  // timestamp: MHP cycle of the attempt
  AbsoluteQueueId aid;
  std::uint16_t pair_index = 0;  // pairs already produced for the request
  std::uint8_t request_type = 0;  // 0 = K (store), 1 = M (measure)
  std::uint8_t m_basis = 0;       // measurement basis for M attempts
  double alpha = 0.0;

  static constexpr PacketType kType = PacketType::kMhpGen;
  /// Append the payload fields (no type byte, no CRC).
  void write(ByteWriter& w) const;
  std::vector<std::uint8_t> encode() const;
  static GenPacket decode(std::span<const std::uint8_t> payload);
};

/// REPLY / ERR frame, station -> node (Fig. 28).
///
/// For measure-directly (M) attempts the frame also carries the
/// measurement outcomes. Physically each outcome is produced locally at
/// its node before the REPLY arrives; the simulator samples the joint
/// distribution at the station where both halves of the state meet, and
/// ships the bits back (a pure simulation artefact, see DESIGN.md).
struct ReplyPacket {
  std::uint8_t outcome = 0;  // 0 fail, 1 = |Psi+>, 2 = |Psi->
  MhpError error = MhpError::kNone;
  std::uint32_t seq_mhp = 0;
  AbsoluteQueueId aid_receiver;
  AbsoluteQueueId aid_peer;
  std::uint16_t pair_index = 0;       // receiver's attempt pair index
  std::uint16_t pair_index_peer = 0;  // the peer's; lets nodes resync
  std::uint64_t cycle = 0;
  std::uint8_t m_basis = 0;          // gates::Basis as int (M only)
  std::uint8_t m_outcome = 0xFF;     // this node's outcome; 0xFF = none
  std::uint8_t m_outcome_peer = 0xFF;

  static constexpr PacketType kType = PacketType::kMhpReply;
  /// Append the payload fields (no type byte, no CRC).
  void write(ByteWriter& w) const;
  std::vector<std::uint8_t> encode() const;
  static ReplyPacket decode(std::span<const std::uint8_t> payload);
};

/// DQP frame type (Fig. 24 FT field).
enum class DqpFrameType : std::uint8_t { kAdd = 0, kAck = 1, kRej = 2 };

/// DQP rejection reasons.
enum class DqpRejectReason : std::uint8_t {
  kNone = 0,
  kQueueFull = 1,
  kPolicy = 2,  // purpose-id rules at the remote node (DENIED)
};

/// ADD/ACK/REJ frame of the distributed queue (Fig. 24) carrying the
/// CREATE request payload.
struct DqpPacket {
  DqpFrameType frame_type = DqpFrameType::kAdd;
  std::uint32_t comm_seq = 0;  // CSEQ
  AbsoluteQueueId aid;         // QID + QSEQ (assigned by the master)
  std::uint64_t schedule_cycle = 0;  // min_time, in MHP cycles
  std::uint64_t timeout_cycle = 0;   // 0 = no timeout
  double min_fidelity = 0.0;
  std::uint16_t purpose_id = 0;
  std::uint32_t create_id = 0;
  std::uint16_t num_pairs = 1;
  std::uint8_t priority = 0;
  bool store = true;            // STR flag (K type)
  bool atomic = false;          // ATM flag
  bool measure_directly = false;  // MD flag
  bool master_request = false;  // MR flag: request originated at master
  bool consecutive = false;     // OK per pair vs per request
  double init_virtual_finish = 0.0;  // WFQ bookkeeping
  std::uint32_t est_cycles_per_pair = 0;
  std::uint32_t origin_node = 0;
  std::int64_t create_time_ns = 0;
  std::int64_t max_time_ns = 0;  // tmax; 0 = unbounded
  DqpRejectReason reject_reason = DqpRejectReason::kNone;

  static constexpr PacketType kType = PacketType::kDqpFrame;
  /// Append the payload fields (no type byte, no CRC).
  void write(ByteWriter& w) const;
  std::vector<std::uint8_t> encode() const;
  static DqpPacket decode(std::span<const std::uint8_t> payload);
};

/// EXPIRE frame (Fig. 32): revoke OKs the peer may hold.
struct ExpirePacket {
  AbsoluteQueueId aid;
  std::uint32_t origin_id = 0;
  std::uint32_t create_id = 0;
  std::uint32_t seq_low = 0;   // first expired midpoint sequence number
  std::uint32_t seq_high = 0;  // one-past-last
  std::uint32_t new_expected_seq = 0;

  static constexpr PacketType kType = PacketType::kExpire;
  /// Append the payload fields (no type byte, no CRC).
  void write(ByteWriter& w) const;
  std::vector<std::uint8_t> encode() const;
  static ExpirePacket decode(std::span<const std::uint8_t> payload);
};

/// ACK of an EXPIRE (Fig. 33).
struct ExpireAckPacket {
  AbsoluteQueueId aid;
  std::uint32_t expected_seq = 0;

  static constexpr PacketType kType = PacketType::kExpireAck;
  /// Append the payload fields (no type byte, no CRC).
  void write(ByteWriter& w) const;
  std::vector<std::uint8_t> encode() const;
  static ExpireAckPacket decode(std::span<const std::uint8_t> payload);
};

/// Memory advertisement REQ(E)/ACK(E) (Fig. 34): flow control.
struct MemAdvertPacket {
  bool is_ack = false;
  std::uint16_t comm_free = 0;
  std::uint16_t storage_free = 0;

  static constexpr PacketType kType = PacketType::kMemAdvert;
  /// Append the payload fields (no type byte, no CRC).
  void write(ByteWriter& w) const;
  std::vector<std::uint8_t> encode() const;
  static MemAdvertPacket decode(std::span<const std::uint8_t> payload);
};

/// Seal a payload into a frame: [type][payload][crc32].
std::vector<std::uint8_t> seal(PacketType type,
                               std::span<const std::uint8_t> payload);

/// Seal a packet into a frame, encoding it straight into the frame
/// buffer.
template <typename Packet>
std::vector<std::uint8_t> seal(const Packet& packet) {
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(Packet::kType));
  packet.write(w);
  return w.take_sealed();
}

/// Parsed frame view.
struct Frame {
  PacketType type;
  /// Points into the bytes given to unseal(); valid while they are.
  std::span<const std::uint8_t> payload;
};

/// Verify CRC and split; nullopt if the frame is corrupt/truncated.
std::optional<Frame> unseal(std::span<const std::uint8_t> bytes);

}  // namespace qlink::net
