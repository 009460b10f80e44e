#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <span>
#include <vector>

#include "routing/graph.hpp"
#include "sim/time.hpp"

/// \file reservation.hpp
/// Time-sliced per-edge admission for concurrent end-to-end requests.
///
/// Every admitted request holds a *lease* on each edge of its path: a
/// time window sized from the request's estimated occupancy (the
/// routing layer derives it from the FEU-estimated hop pair times of
/// `core::Link::estimate_k_create`; see Router::lease_duration).
/// A lease occupies [start, end): admission for a window counts only
/// leases *overlapping* that window against EdgeParams::capacity, so
/// two requests sharing an edge at disjoint times both admit. A lease
/// ending at kNoExpiry never lapses — whole-request pinning (the
/// historical behavior, and the default when no duration is given) is
/// the infinite-lease special case.
///
/// Deferred admission (ISSUE 5) books windows that start in the
/// *future*: `earliest_window` computes the first start >= now at which
/// every listed edge has a free slot for the whole duration, and
/// `reserve_at` leases it. Instant admissions (`try_reserve`) check
/// their own window [now, now + duration), so they cannot quietly
/// overlap a booked future window.
///
/// A lapsed lease does NOT release its ticket: the holder may overrun
/// its estimate and still owns its qubits; expiry merely stops the edge
/// counting against capacity, time-slicing the edge optimistically
/// (per-edge capacity is a routing admission policy, not a hardware
/// invariant — the EGP multiplexes concurrent CREATEs on one link).
/// release() always wins: it drops whatever lease entries remain.
///
/// Requests that do not fit queue FIFO as retry callbacks, retried on
/// every release *and* on lease expiry (the caller drives expiry via
/// expire_until / next_expiry — the table knows durations, not clocks).
/// The drain is a batch pass over the whole queue: every sweep retries
/// a snapshot in queue order and re-queues the still-blocked ones, in
/// order, ahead of anything enqueued mid-sweep, so a still-blocked head
/// never starves later requests whose edges are free ("batch
/// admission": disjoint corridors admit in one wakeup). Under
/// DrainPolicy::kPerEdgeFifo the sweep additionally refuses to retry an
/// entry whose declared edge footprint intersects an earlier entry that
/// is still blocked this sweep — FIFO is preserved *per conflicting
/// edge set* (a younger request cannot jump an older one on a shared
/// edge) while disjoint requests stay unordered. Under the historical
/// kGreedy policy such jumps are allowed and counted (`steals`).

namespace qlink::metrics {
class EdgeStats;
}

namespace qlink::routing {

/// How the blocked-queue drain orders conflicting retries; see the file
/// comment. kGreedy is the historical (PR-4) behavior.
enum class DrainPolicy { kGreedy, kPerEdgeFifo };

class ReservationTable {
 public:
  using Ticket = std::uint64_t;
  /// A blocked request's retry hook: return true once the request left
  /// the blocked state (admitted or abandoned), false to stay queued.
  using RetryFn = std::function<bool()>;

  /// Lease end meaning "never lapses" (whole-request pinning).
  static constexpr sim::SimTime kNoExpiry =
      std::numeric_limits<sim::SimTime>::max();

  /// Capacities are snapshotted from the graph's EdgeParams here; later
  /// edits to the graph do not change admission (rebuild the Router /
  /// table to apply a new capacity plan).
  explicit ReservationTable(const Graph& graph);

  void set_drain_policy(DrainPolicy policy) noexcept { policy_ = policy; }

  /// Attach a per-edge accounting substrate (null to detach). The table
  /// reports lease placements/releases and blocked-arrival footprints;
  /// the substrate only records (no events, no randomness), so
  /// attaching one cannot perturb a trajectory (ISSUE 8).
  void set_edge_stats(metrics::EdgeStats* stats) noexcept {
    edge_stats_ = stats;
  }

  /// Whether every listed edge has spare capacity over the whole window
  /// [now, now + duration). The default duration degenerates to the
  /// historical instant check ("busy at `now`") when no future windows
  /// are booked.
  bool can_reserve(std::span<const std::size_t> edges, sim::SimTime now = 0,
                   sim::SimTime duration = kNoExpiry) const;

  /// Atomically lease all listed edges for [now, now + duration);
  /// nullopt (and no change) when any of them lacks a free slot over
  /// that window. Throws std::invalid_argument for an empty or
  /// non-simple path (a repeated edge would over-subscribe capacity),
  /// unknown edge ids, or a non-positive duration.
  std::optional<Ticket> try_reserve(std::span<const std::size_t> edges,
                                    sim::SimTime now = 0,
                                    sim::SimTime duration = kNoExpiry);

  /// Book a *future* window: lease all listed edges for
  /// [start, start + duration), or nullopt when any edge lacks a free
  /// slot over that window. Validation as try_reserve (plus a negative
  /// start throws). Deferred admission computes `start` with
  /// earliest_window and books it here in the same event, so the pair
  /// is effectively atomic.
  std::optional<Ticket> reserve_at(std::span<const std::size_t> edges,
                                   sim::SimTime start, sim::SimTime duration);

  /// Earliest start >= now at which every listed edge has a free slot
  /// for the whole duration, or nullopt when no finite window exists
  /// (an edge saturated by never-lapsing pins). Candidate starts are
  /// `now` and the finite ends of current leases on the listed edges —
  /// the points where an edge's occupancy can drop.
  std::optional<sim::SimTime> earliest_window(
      std::span<const std::size_t> edges, sim::SimTime now,
      sim::SimTime duration) const;

  /// Release a reservation (dropping any lease entries that have not
  /// lapsed yet) and retry the blocked queue. Unknown tickets throw
  /// std::invalid_argument (double release is a caller bug). A
  /// non-negative `now` lets per-edge accounting truncate the lease
  /// windows at the actual release time (negative = time unknown, keep
  /// the scheduled ends — the historical signature).
  void release(Ticket ticket, sim::SimTime now = -1);

  /// Queue a blocked request for retry on the next release or expiry.
  /// `footprint` (optional) declares the edges the request is waiting
  /// for (its preferred candidate path); the batch drain uses it for
  /// per-edge FIFO conflict ordering and steal accounting. An empty
  /// footprint opts out of both; unknown edge ids throw
  /// std::invalid_argument.
  void enqueue_blocked(RetryFn retry, std::vector<std::size_t> footprint = {});

  /// Drop every lease whose window ended at or before `now` and, when
  /// anything lapsed, retry the blocked queue. Returns the number of
  /// lapsed lease entries (per edge, not per ticket).
  std::size_t expire_until(sim::SimTime now);

  /// Earliest finite lease end still on the books, or nullopt when
  /// every live lease is an unbounded pin. O(1): reads the min of the
  /// expiry index kept alongside the leases (ISSUE 5 — the previous
  /// implementation scanned every lease on every Router wakeup).
  std::optional<sim::SimTime> next_expiry() const;

  std::size_t capacity(std::size_t edge) const {
    return capacity_.at(edge);
  }
  /// Lease entries currently held on the edge, including booked future
  /// windows (a lapsed-but-unexpired entry still counts until
  /// expire_until or release prunes it).
  std::size_t in_use(std::size_t edge) const {
    return leases_.at(edge).size();
  }
  std::size_t active() const noexcept { return active_.size(); }
  std::size_t blocked() const noexcept { return blocked_.size(); }
  /// High-water mark of concurrently held reservations.
  std::size_t max_active() const noexcept { return max_active_; }
  /// Lease entries that lapsed before their ticket released.
  std::uint64_t lease_expiries() const noexcept { return lease_expiries_; }
  /// Admissions that jumped an older blocked request on a shared edge:
  /// a fresh out-of-queue reservation over a blocked footprint (either
  /// policy — try_reserve admits on capacity alone), or a drain retry
  /// that succeeded past a still-blocked elder (kGreedy only; the
  /// kPerEdgeFifo drain withholds those, see hol_holds).
  std::uint64_t steals() const noexcept { return steals_; }
  /// Drain retries withheld by kPerEdgeFifo because an earlier entry
  /// sharing an edge was still blocked this sweep.
  std::uint64_t hol_holds() const noexcept { return hol_holds_; }
  /// Drain admissions that happened *after* an earlier entry stayed
  /// blocked in the same sweep — disjoint corridors admitted in one
  /// wakeup instead of waiting behind the blocked head.
  std::uint64_t batch_admits() const noexcept { return batch_admits_; }

 private:
  struct Lease {
    Ticket ticket = 0;
    sim::SimTime start = 0;
    sim::SimTime end = kNoExpiry;
  };

  struct Blocked {
    RetryFn retry;
    std::vector<std::size_t> footprint;
  };

  /// Whether the edge has a free slot over [start, end).
  bool window_fits(std::size_t edge, sim::SimTime start,
                   sim::SimTime end) const;
  static sim::SimTime window_end(sim::SimTime start, sim::SimTime duration) {
    return duration >= kNoExpiry - start ? kNoExpiry : start + duration;
  }
  void validate(std::span<const std::size_t> edges,
                sim::SimTime duration) const;
  std::optional<Ticket> reserve_window(std::span<const std::size_t> edges,
                                       sim::SimTime start,
                                       sim::SimTime duration,
                                       bool count_steal);
  /// Whether any queued blocked entry's footprint intersects `edges`.
  bool conflicts_blocked(std::span<const std::size_t> edges) const;
  /// Drop a leaving entry's footprint from blocked_on_.
  void unqueue_footprint(const Blocked& entry);
  void drain_blocked();

  std::vector<std::size_t> capacity_;
  /// Per edge: the leases currently counting against its capacity.
  std::vector<std::vector<Lease>> leases_;
  std::map<Ticket, std::vector<std::size_t>> active_;
  std::deque<Blocked> blocked_;
  /// Per edge: how many queued footprints (including entries a running
  /// sweep has taken out for retry) list it, so the out-of-queue steal
  /// check is O(path) instead of a scan of the whole queue.
  std::vector<std::size_t> blocked_on_;
  /// Per edge: the drain sweep in which a still-blocked entry last
  /// declared it (see drain_blocked); a fresh sweep number clears all.
  std::vector<std::uint64_t> held_mark_;
  std::uint64_t sweep_ = 0;
  /// Min-ordered index of every finite lease end on the books (one
  /// entry per edge lease, mirroring leases_), so next_expiry is the
  /// tree minimum instead of a full scan; inserts and erases are
  /// O(log n) per lease entry.
  std::multiset<sim::SimTime> finite_ends_;
  DrainPolicy policy_ = DrainPolicy::kGreedy;
  Ticket next_ticket_ = 1;
  std::size_t max_active_ = 0;
  std::uint64_t lease_expiries_ = 0;
  std::uint64_t steals_ = 0;
  std::uint64_t hol_holds_ = 0;
  std::uint64_t batch_admits_ = 0;
  bool draining_ = false;
  bool redrain_ = false;
  metrics::EdgeStats* edge_stats_ = nullptr;
};

}  // namespace qlink::routing
