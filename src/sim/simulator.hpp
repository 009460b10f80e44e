#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/time.hpp"

/// \file simulator.hpp
/// Deterministic discrete-event engine.
///
/// This is the substrate the paper obtains from DynAA/NetSquid: a
/// time-ordered event queue with deterministic tie-breaking (FIFO within
/// one timestamp), an explicit clock, and handles for cancellation.
/// Entities (nodes, channels, the heralding station) schedule closures;
/// the engine never spawns threads, so every run is exactly reproducible.
///
/// Telemetry (ISSUE 6): events may carry a static label
/// (schedule_at(at, fn, "mhp.cycle")). With telemetry enabled the
/// engine counts executed events per label — answering "which event
/// type dominates this run" — and it always tracks the heap-depth
/// high-water mark (one comparison per push). The opt-in *profiler*
/// additionally wall-clocks every handler by label; its output is
/// explicitly non-deterministic (wall time is not simulation state) but
/// turning it on cannot perturb a trajectory: neither telemetry nor the
/// profiler schedules events or consumes randomness.
///
/// Storage: the heap holds only POD keys {time, seq, slot, gen}; each
/// event's closure and label live in a slot of a generation-stamped
/// array recycled through a free list, so a steady-state run schedules,
/// fires and cancels without allocating. Firing or cancelling an event
/// bumps its slot's generation and frees the slot at once; a cancelled
/// event's key stays in the heap and is skipped when it surfaces (its
/// generation no longer matches), and the heap is compacted when such
/// stale keys outnumber the live ones.

namespace qlink::sim {

/// Identifies a scheduled event so it can be cancelled:
/// `(generation << 32) | slot`. Generations start at 1, so 0 is never
/// issued and callers may use it as "no event". A slot's generation
/// advances every time its event fires or is cancelled, so a stale id
/// whose slot now holds a newer event no longer matches and cancels
/// nothing.
using EventId = std::uint64_t;

class Simulator {
 public:
  Simulator() = default;

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulation time.
  SimTime now() const noexcept { return now_; }

  /// Schedule \p fn to run at absolute time \p at. \p label, when
  /// given, must outlive the simulator (pass a string literal) —
  /// telemetry aggregates by it.
  ///
  /// \p at must be >= now(): a past time throws std::invalid_argument
  /// rather than silently time-travelling (the event would fire
  /// immediately but stamp the clock backwards-in-order, corrupting
  /// FIFO determinism). Callers computing times from measured or
  /// decayed quantities must clamp, e.g. `std::max(at, sim.now())`.
  EventId schedule_at(SimTime at, std::function<void()> fn,
                      const char* label = nullptr);

  /// Schedule \p fn to run \p delay after the current time.
  EventId schedule_in(SimTime delay, std::function<void()> fn,
                      const char* label = nullptr) {
    return schedule_at(now_ + delay, std::move(fn), label);
  }

  /// Cancel a previously scheduled event. Returns false if the event has
  /// already fired, is running, or was cancelled before. O(1); the
  /// closure is destroyed immediately.
  bool cancel(EventId id);

  /// Run a single event. Returns false if the queue is empty.
  bool step();

  /// Run events until the queue is empty or the clock would pass \p t.
  /// The clock is left at exactly \p t (events at exactly \p t run).
  void run_until(SimTime t);

  /// Run events until the queue drains completely.
  void run_all();

  /// Number of events executed so far.
  std::uint64_t events_processed() const noexcept { return processed_; }

  /// Number of events still pending. Exact: cancelled events are
  /// excluded even while their heap keys await lazy removal.
  std::size_t pending() const noexcept { return live_; }

  /// next_event_time() when no live event is pending.
  static constexpr SimTime kNoEventTime = std::numeric_limits<SimTime>::max();

  /// Timestamp of the earliest live event, or kNoEventTime when idle.
  /// Non-const: lazily prunes cancelled events off the queue head.
  SimTime next_event_time();

  // -- Telemetry ---------------------------------------------------------

  /// Count executed events per label. Off by default; one branch per
  /// event when off.
  void set_telemetry(bool on) noexcept { telemetry_ = on; }
  bool telemetry() const noexcept { return telemetry_; }

  /// Wall-clock every handler by label (implies per-label counting for
  /// the profiled events). The report is non-deterministic; the
  /// simulation is not affected. Off by default.
  void set_profiler(bool on) noexcept { profiler_ = on; }
  bool profiler() const noexcept { return profiler_; }

  /// Deepest the event heap has ever been (always tracked).
  std::size_t heap_high_water() const noexcept { return heap_high_water_; }

  struct LabelStat {
    std::string label;  // "(unlabeled)" for events scheduled without one
    std::uint64_t count = 0;
    double wall_seconds = 0.0;  // 0 unless the profiler was on
  };

  /// Executed-event counts (and wall time, when profiled) per label,
  /// merged by label text, sorted by label — deterministic given
  /// deterministic execution.
  std::vector<LabelStat> label_stats() const;

  /// The top-K hottest labels by accumulated wall time (profiler
  /// output; sorted by wall time descending, ties by label).
  std::vector<LabelStat> hottest(std::size_t k) const;

 private:
  /// Heap entry. `gen` is the slot's generation at scheduling time; a
  /// mismatch when the key surfaces means the event was cancelled.
  struct Key {
    SimTime time;
    std::uint64_t seq;  // tie-break: FIFO within a timestamp
    std::uint32_t slot;
    std::uint32_t gen;
  };

  struct Later {
    bool operator()(const Key& a, const Key& b) const noexcept {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  /// A pending event's closure and label; `fn` is empty while the slot
  /// sits on the free list.
  struct Slot {
    std::function<void()> fn;
    const char* label = nullptr;
    std::uint32_t gen = 1;
  };

  struct LabelTally {
    std::uint64_t count = 0;
    double wall_seconds = 0.0;
  };

  bool stale(const Key& key) const noexcept {
    return slots_[key.slot].gen != key.gen;
  }

  /// Advance the slot's generation (invalidating its EventId and any
  /// heap key still naming it) and return it to the free list.
  void retire(std::uint32_t slot);

  /// Pop stale keys off the heap head so that heap_.front() is live (or
  /// the heap is empty).
  void prune_stale_top();

  /// Rebuild the heap without its stale keys. Keys are totally ordered
  /// by (time, seq), so the firing order is unchanged.
  void drop_stale_keys();

  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t processed_ = 0;
  std::vector<Key> heap_;  // binary min-heap under Later
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::size_t live_ = 0;   // scheduled, not yet fired or cancelled
  std::size_t stale_ = 0;  // cancelled keys still in heap_

  bool telemetry_ = false;
  bool profiler_ = false;
  std::size_t heap_high_water_ = 0;
  /// Keyed by label pointer (labels are expected to be string
  /// literals); label_stats() merges any same-text duplicates.
  std::unordered_map<const char*, LabelTally> tallies_;
};

}  // namespace qlink::sim
