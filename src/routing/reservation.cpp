#include "routing/reservation.hpp"

#include <algorithm>
#include <stdexcept>

#include "metrics/edge_stats.hpp"

namespace qlink::routing {

ReservationTable::ReservationTable(const Graph& graph)
    : leases_(graph.num_edges()),
      blocked_on_(graph.num_edges(), 0),
      held_mark_(graph.num_edges(), 0) {
  capacity_.reserve(graph.num_edges());
  for (std::size_t i = 0; i < graph.num_edges(); ++i) {
    capacity_.push_back(graph.params(i).capacity);
  }
}

bool ReservationTable::window_fits(std::size_t edge, sim::SimTime start,
                                   sim::SimTime end) const {
  // A lease [s, e) overlaps the window [start, end) iff e > start and
  // s < end. Counting *overlapping* leases is conservative for
  // capacity > 1 (two leases may overlap the window at different
  // instants), which keeps booked windows honest: a slot promised by
  // earliest_window can never be half-occupied when it arrives.
  const std::vector<Lease>& held = leases_.at(edge);
  std::size_t overlapping = 0;
  for (const Lease& lease : held) {
    if (lease.end > start && lease.start < end) ++overlapping;
  }
  return overlapping < capacity_.at(edge);
}

bool ReservationTable::can_reserve(std::span<const std::size_t> edges,
                                   sim::SimTime now,
                                   sim::SimTime duration) const {
  const sim::SimTime end = window_end(now, duration);
  for (const std::size_t e : edges) {
    if (!window_fits(e, now, end)) return false;
  }
  return true;
}

void ReservationTable::validate(std::span<const std::size_t> edges,
                                sim::SimTime duration) const {
  if (edges.empty()) {
    throw std::invalid_argument("ReservationTable: empty path");
  }
  if (duration <= 0) {
    throw std::invalid_argument("ReservationTable: non-positive lease");
  }
  for (std::size_t i = 0; i < edges.size(); ++i) {
    if (edges[i] >= capacity_.size()) {
      throw std::invalid_argument("ReservationTable: unknown edge id");
    }
    for (std::size_t j = i + 1; j < edges.size(); ++j) {
      if (edges[i] == edges[j]) {
        // A repeated edge would count against capacity several times
        // and silently break the edge-disjointness invariant.
        throw std::invalid_argument(
            "ReservationTable: path repeats an edge");
      }
    }
  }
}

bool ReservationTable::conflicts_blocked(
    std::span<const std::size_t> edges) const {
  return std::any_of(edges.begin(), edges.end(),
                     [this](std::size_t e) { return blocked_on_[e] > 0; });
}

void ReservationTable::unqueue_footprint(const Blocked& entry) {
  for (const std::size_t e : entry.footprint) --blocked_on_[e];
}

std::optional<ReservationTable::Ticket> ReservationTable::reserve_window(
    std::span<const std::size_t> edges, sim::SimTime start,
    sim::SimTime duration, bool count_steal) {
  validate(edges, duration);
  const sim::SimTime end = window_end(start, duration);
  for (const std::size_t e : edges) {
    if (!window_fits(e, start, end)) return std::nullopt;
  }
  // Mid-drain retries are ordered by the drain itself (which counts its
  // own greedy jumps); only out-of-queue admissions are checked here.
  if (count_steal && !draining_ && conflicts_blocked(edges)) ++steals_;
  const Ticket ticket = next_ticket_++;
  for (const std::size_t e : edges) {
    leases_[e].push_back({ticket, start, end});
    if (end != kNoExpiry) finite_ends_.insert(end);
  }
  active_.emplace(ticket, std::vector<std::size_t>(edges.begin(),
                                                   edges.end()));
  max_active_ = std::max(max_active_, active_.size());
  if (edge_stats_ != nullptr) {
    for (const std::size_t e : edges) {
      edge_stats_->on_lease(e, ticket, start, end);
    }
  }
  return ticket;
}

std::optional<ReservationTable::Ticket> ReservationTable::try_reserve(
    std::span<const std::size_t> edges, sim::SimTime now,
    sim::SimTime duration) {
  return reserve_window(edges, now, duration, /*count_steal=*/true);
}

std::optional<ReservationTable::Ticket> ReservationTable::reserve_at(
    std::span<const std::size_t> edges, sim::SimTime start,
    sim::SimTime duration) {
  if (start < 0) {
    throw std::invalid_argument("ReservationTable: negative window start");
  }
  // A booked window is the scheduler keeping a promise to an *older*
  // request; it is never a queue jump.
  return reserve_window(edges, start, duration, /*count_steal=*/false);
}

std::optional<sim::SimTime> ReservationTable::earliest_window(
    std::span<const std::size_t> edges, sim::SimTime now,
    sim::SimTime duration) const {
  validate(edges, duration);
  // Occupancy over a window only drops when a lease ends, so the
  // earliest feasible start is `now` or one of the finite lease ends on
  // the listed edges.
  std::vector<sim::SimTime> candidates{now};
  for (const std::size_t e : edges) {
    for (const Lease& lease : leases_.at(e)) {
      if (lease.end != kNoExpiry && lease.end > now) {
        candidates.push_back(lease.end);
      }
    }
  }
  std::sort(candidates.begin(), candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end()),
                   candidates.end());
  for (const sim::SimTime start : candidates) {
    if (can_reserve(edges, start, duration)) return start;
  }
  return std::nullopt;
}

void ReservationTable::release(Ticket ticket, sim::SimTime now) {
  const auto it = active_.find(ticket);
  if (it == active_.end()) {
    throw std::invalid_argument("ReservationTable: unknown ticket");
  }
  if (edge_stats_ != nullptr) {
    for (const std::size_t e : it->second) {
      edge_stats_->on_lease_release(e, ticket, now);
    }
  }
  for (const std::size_t e : it->second) {
    std::vector<Lease>& held = leases_[e];
    // Absent = the lease lapsed earlier (already in lease_expiries_).
    const auto li = std::find_if(
        held.begin(), held.end(),
        [ticket](const Lease& l) { return l.ticket == ticket; });
    if (li != held.end()) {
      if (li->end != kNoExpiry) {
        finite_ends_.erase(finite_ends_.find(li->end));
      }
      held.erase(li);
    }
  }
  active_.erase(it);
  drain_blocked();
}

std::size_t ReservationTable::expire_until(sim::SimTime now) {
  std::size_t lapsed = 0;
  for (std::vector<Lease>& held : leases_) {
    const std::size_t before = held.size();
    std::erase_if(held, [now](const Lease& l) { return l.end <= now; });
    lapsed += before - held.size();
  }
  // One index entry per lapsed edge lease, by construction.
  finite_ends_.erase(finite_ends_.begin(), finite_ends_.upper_bound(now));
  lease_expiries_ += lapsed;
  if (lapsed > 0) drain_blocked();
  return lapsed;
}

std::optional<sim::SimTime> ReservationTable::next_expiry() const {
  if (finite_ends_.empty()) return std::nullopt;
  return *finite_ends_.begin();
}

void ReservationTable::enqueue_blocked(RetryFn retry,
                                       std::vector<std::size_t> footprint) {
  for (const std::size_t e : footprint) {
    if (e >= capacity_.size()) {
      throw std::invalid_argument("ReservationTable: unknown footprint edge");
    }
  }
  if (edge_stats_ != nullptr) edge_stats_->on_blocked(footprint);
  for (const std::size_t e : footprint) ++blocked_on_[e];
  blocked_.push_back({std::move(retry), std::move(footprint)});
}

void ReservationTable::drain_blocked() {
  // A retry may reserve and a later completion may release (or a lease
  // lapse) reentrantly; instead of recursing, ask the outermost sweep
  // to run one more pass.
  if (draining_) {
    redrain_ = true;
    return;
  }
  draining_ = true;
  do {
    redrain_ = false;
    // Retry a snapshot in queue order and rebuild the queue with the
    // still-blocked ones first: arrival order survives mixed
    // release/expiry wakeups, thrown retries, and mid-sweep enqueues.
    std::deque<Blocked> round;
    round.swap(blocked_);
    std::deque<Blocked> still;
    // Edges that still-blocked earlier entries of this sweep are
    // waiting for (held_mark_ == sweep); a later entry touching one of
    // them either gets withheld (kPerEdgeFifo) or counted as a queue
    // jump (kGreedy).
    const std::uint64_t sweep = ++sweep_;
    bool earlier_blocked = false;
    const auto conflicts_held = [this, sweep](const Blocked& b) {
      return std::any_of(
          b.footprint.begin(), b.footprint.end(),
          [this, sweep](std::size_t e) { return held_mark_[e] == sweep; });
    };
    const auto hold = [this, sweep](const Blocked& b) {
      for (const std::size_t e : b.footprint) held_mark_[e] = sweep;
    };
    while (!round.empty()) {
      Blocked entry = std::move(round.front());
      round.pop_front();
      const bool conflict = conflicts_held(entry);
      if (policy_ == DrainPolicy::kPerEdgeFifo && conflict) {
        // An older request sharing an edge is still blocked: hold this
        // one back so FIFO survives per conflicting edge set.
        ++hol_holds_;
        earlier_blocked = true;
        hold(entry);
        still.push_back(std::move(entry));
        continue;
      }
      bool left = false;
      try {
        left = entry.retry();
      } catch (...) {
        // Keep the table usable for everyone else: restore the queue
        // (minus the poisoned retry — it would only throw again) in
        // arrival order and clear the drain flag, or every later
        // release() would skip its sweep forever.
        unqueue_footprint(entry);
        for (Blocked& r : round) still.push_back(std::move(r));
        for (Blocked& r : blocked_) still.push_back(std::move(r));
        blocked_ = std::move(still);
        draining_ = false;
        redrain_ = false;
        throw;
      }
      if (left) {
        unqueue_footprint(entry);
        if (conflict) ++steals_;  // kGreedy: jumped a blocked elder
        if (earlier_blocked) ++batch_admits_;
      } else {
        earlier_blocked = true;
        hold(entry);
        still.push_back(std::move(entry));
      }
    }
    for (Blocked& r : blocked_) still.push_back(std::move(r));
    blocked_ = std::move(still);
  } while (redrain_);
  draining_ = false;
}

}  // namespace qlink::routing
