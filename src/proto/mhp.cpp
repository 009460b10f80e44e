#include "proto/mhp.hpp"

#include <utility>

namespace qlink::proto {

using net::AbsoluteQueueId;
using net::GenPacket;
using net::MhpError;
using net::PacketType;
using net::ReplyPacket;

// ---------------------------------------------------------------------------
// NodeMhp

NodeMhp::NodeMhp(sim::Simulator& simulator, std::string name,
                 std::uint32_t node_id, hw::NvDevice& device,
                 net::ClassicalChannel& station_link, int link_endpoint,
                 sim::SimTime cycle_period)
    : Entity(simulator, std::move(name)),
      node_id_(node_id),
      device_(device),
      link_(station_link),
      endpoint_(link_endpoint),
      cycle_period_(cycle_period),
      timer_(simulator, cycle_period, [this] { on_cycle(); }, "mhp.cycle") {
  link_.set_receiver(endpoint_,
                     [this](std::vector<std::uint8_t> b) { on_frame(std::move(b)); });
}

void NodeMhp::start() { timer_.start(); }
void NodeMhp::stop() { timer_.stop(); }

std::uint64_t NodeMhp::current_cycle() const {
  return static_cast<std::uint64_t>(now() / cycle_period_);
}

void NodeMhp::on_cycle() {
  if (!poll_) return;
  // Tight real-time constraint: if the device is mid-operation (e.g.
  // moving a state to memory or re-initialising a carbon) no attempt can
  // be triggered this cycle.
  if (device_.busy()) return;

  const PollResponse response = poll_();
  if (!response.attempt) return;

  // Trigger: initialise the communication qubit and emit. The spin-photon
  // physics is evaluated at the station (see HeraldModel); locally we
  // reset the electron, account the init+emission time and apply the
  // per-attempt dephasing to stored memory qubits.
  device_.initialize_electron();
  device_.apply_attempt_dephasing(response.alpha);
  ++attempts_;

  GenPacket gen;
  gen.node_id = node_id_;
  gen.cycle = current_cycle();
  gen.aid = response.aid;
  gen.pair_index = response.pair_index;
  gen.request_type = response.measure_directly ? 1 : 0;
  gen.m_basis = static_cast<std::uint8_t>(response.basis);
  gen.alpha = response.alpha;
  link_.send_from(endpoint_, net::seal(gen));
}

void NodeMhp::on_frame(std::vector<std::uint8_t> bytes) {
  const auto frame = net::unseal(bytes);
  if (!frame || frame->type != PacketType::kMhpReply) return;  // corrupt
  ReplyPacket reply;
  try {
    reply = ReplyPacket::decode(frame->payload);
  } catch (const net::WireError&) {
    return;
  }
  ++replies_;
  if (result_) result_(MhpResult{reply, false});
}

// ---------------------------------------------------------------------------
// MidpointStation

MidpointStation::MidpointStation(sim::Simulator& simulator, std::string name,
                                 const hw::HeraldModel& model,
                                 sim::Random& random,
                                 net::ClassicalChannel& link_a, int endpoint_a,
                                 net::ClassicalChannel& link_b, int endpoint_b,
                                 sim::SimTime cycle_period)
    : Entity(simulator, std::move(name)),
      model_(model),
      random_(random),
      link_a_(link_a),
      link_b_(link_b),
      endpoint_a_(endpoint_a),
      endpoint_b_(endpoint_b),
      cycle_period_(cycle_period) {
  link_a_.set_receiver(endpoint_a_, [this](std::vector<std::uint8_t> b) {
    on_frame(true, std::move(b));
  });
  link_b_.set_receiver(endpoint_b_, [this](std::vector<std::uint8_t> b) {
    on_frame(false, std::move(b));
  });
}

double MidpointStation::mean_heralded_fidelity() const {
  return fidelity_count_ == 0 ? 0.0
                              : fidelity_sum_ / static_cast<double>(
                                                    fidelity_count_);
}

void MidpointStation::send_reply(bool to_a, const ReplyPacket& reply) {
  auto& link = to_a ? link_a_ : link_b_;
  const int ep = to_a ? endpoint_a_ : endpoint_b_;
  link.send_from(ep, net::seal(reply));
}

void MidpointStation::reply_error(const PendingGen& pending, MhpError err,
                                  const GenPacket* other) {
  ReplyPacket reply;
  reply.outcome = 0;
  reply.error = err;
  reply.seq_mhp = seq_mhp_;
  reply.aid_receiver = pending.gen.aid;
  reply.aid_peer = other ? other->aid : AbsoluteQueueId{};
  reply.pair_index = pending.gen.pair_index;
  reply.cycle = pending.gen.cycle;
  send_reply(pending.from_a, reply);
  if (other) {
    ReplyPacket mirrored = reply;
    mirrored.aid_receiver = other->aid;
    mirrored.aid_peer = pending.gen.aid;
    mirrored.pair_index = other->pair_index;
    send_reply(!pending.from_a, mirrored);
  }
}

void MidpointStation::expire_pending(std::uint64_t cycle) {
  auto it = pending_.find(cycle);
  if (it == pending_.end()) return;
  PendingGen pending = std::move(it->second);
  pending_.erase(it);
  ++mismatches_;
  reply_error(pending, MhpError::kNoMessageOther, nullptr);
}

void MidpointStation::on_frame(bool from_a, std::vector<std::uint8_t> bytes) {
  const auto frame = net::unseal(bytes);
  if (!frame || frame->type != PacketType::kMhpGen) return;
  GenPacket gen;
  try {
    gen = GenPacket::decode(frame->payload);
  } catch (const net::WireError&) {
    return;
  }
  ++gens_;

  auto it = pending_.find(gen.cycle);
  if (it == pending_.end()) {
    PendingGen pending;
    pending.gen = gen;
    pending.from_a = from_a;
    // If the partner GEN never shows up, report NO_MESSAGE_OTHER.
    pending.timeout_event = schedule_in(
        static_cast<sim::SimTime>(match_window_) * cycle_period_,
        [this, cycle = gen.cycle] { expire_pending(cycle); },
        "mhp.timeout");
    pending_.emplace(gen.cycle, std::move(pending));
    return;
  }

  PendingGen first = std::move(it->second);
  pending_.erase(it);
  simulator().cancel(first.timeout_event);

  if (first.from_a == from_a) {
    // Duplicate from the same side (should not happen): treat the newer
    // frame as one-sided.
    ++mismatches_;
    reply_error(first, MhpError::kTimeMismatch, &gen);
    return;
  }

  const GenPacket& a = first.from_a ? first.gen : gen;
  const GenPacket& b = first.from_a ? gen : first.gen;
  process_pair(a, b);
}

void MidpointStation::process_pair(const GenPacket& a, const GenPacket& b) {
  // The midpoint verifies that the attempt IDs agree (Protocol 1 2(a)ii).
  // Pair indices may legitimately differ by a lost REPLY; both are
  // echoed in the REPLY so the nodes can resynchronise (Section 5.2.5).
  if (a.aid != b.aid || a.request_type != b.request_type) {
    ++mismatches_;
    ReplyPacket to_a;
    to_a.outcome = 0;
    to_a.error = MhpError::kQueueMismatch;
    to_a.seq_mhp = seq_mhp_;
    to_a.aid_receiver = a.aid;
    to_a.aid_peer = b.aid;
    to_a.pair_index = a.pair_index;
    to_a.cycle = a.cycle;
    send_reply(true, to_a);
    ReplyPacket to_b = to_a;
    to_b.aid_receiver = b.aid;
    to_b.aid_peer = a.aid;
    to_b.pair_index = b.pair_index;
    send_reply(false, to_b);
    return;
  }

  // Sample the heralding outcome from the physical model.
  const hw::HeraldDistribution& dist =
      model_.distribution(a.alpha, b.alpha);
  const double weights[] = {dist.p_fail, dist.p_psi_plus, dist.p_psi_minus};
  const int outcome = static_cast<int>(random_.discrete(weights));

  ReplyPacket to_a;
  to_a.outcome = static_cast<std::uint8_t>(outcome);
  to_a.error = MhpError::kNone;
  to_a.aid_receiver = a.aid;
  to_a.aid_peer = b.aid;
  to_a.pair_index = a.pair_index;
  to_a.pair_index_peer = b.pair_index;
  to_a.cycle = a.cycle;

  if (outcome != 0) {
    to_a.seq_mhp = ++seq_mhp_;
    fidelity_sum_ +=
        outcome == 1 ? dist.fidelity_plus : dist.fidelity_minus;
    ++fidelity_count_;

    if (a.request_type == 1) {
      // M-type: sample the joint measurement outcomes here (simulator
      // privilege; see ReplyPacket docs).
      const auto basis_a = static_cast<quantum::gates::Basis>(a.m_basis);
      const auto basis_b = static_cast<quantum::gates::Basis>(b.m_basis);
      if (sample_) {
        const auto [oa, ob] = sample_(outcome, basis_a, basis_b, a.alpha,
                                      b.alpha);
        to_a.m_basis = a.m_basis;
        to_a.m_outcome = static_cast<std::uint8_t>(oa);
        to_a.m_outcome_peer = static_cast<std::uint8_t>(ob);
      }
    } else if (install_) {
      // K-type: the entanglement swap succeeded; install the heralded
      // state into the two communication qubits.
      install_(outcome, a.cycle, a.alpha, b.alpha);
    }
  } else {
    to_a.seq_mhp = seq_mhp_;
  }

  ReplyPacket to_b = to_a;
  to_b.aid_receiver = b.aid;
  to_b.aid_peer = a.aid;
  to_b.pair_index = b.pair_index;
  to_b.pair_index_peer = a.pair_index;
  if (a.request_type == 1 && outcome != 0) {
    to_b.m_basis = b.m_basis;
    std::swap(to_b.m_outcome, to_b.m_outcome_peer);
  }
  send_reply(true, to_a);
  send_reply(false, to_b);
}

}  // namespace qlink::proto
