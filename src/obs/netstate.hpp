#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "metrics/edge_stats.hpp"
#include "obs/interval_clock.hpp"
#include "sim/time.hpp"

/// \file netstate.hpp
/// Network-state sampler (ISSUE 8): deterministic interval time-series
/// of *per-edge* network state over a running simulation — the spatial
/// companion to the obs::Monitor's global counters.
///
/// Each record answers "where is the network busy right now": per-edge
/// lease utilization (fraction of the interval covered by the union of
/// active lease windows, in [0, 1] by construction — see
/// metrics::EdgeStats::busy_seconds), contention deltas (blocked
/// arrivals, lease placements), link-layer CREATE attempt and per-hop
/// delivery deltas, and the interval's hottest edges. The final record
/// carries the full per-edge table, per-node swap/terminal activity,
/// the exact hot-edge activity ranking (metrics::EdgeStats::hot_edges),
/// and totals that tools/interval_check.py reconciles against the
/// per-record delta sums and the metrics::Collector's request-level
/// counters.
///
/// Same observation contract as Monitor / Tracer: keyed by *sim* time
/// only, never schedules events, never consumes randomness. It is
/// polled from already-existing control points, so attaching one
/// cannot perturb a seeded trajectory and two same-seed runs write
/// byte-identical JSONL on either qstate backend.
///
/// Sampling semantics are obs::IntervalClock's, shared with Monitor.

namespace qlink::metrics {
class Collector;
}

namespace qlink::routing {
class Graph;
}

namespace qlink::obs {

struct NetStateConfig {
  /// Record cadence in sim time (> 0).
  sim::SimTime interval = sim::duration::milliseconds(100);
  /// Label stamped into every record as "run" (empty = omitted); lets
  /// several runs share one JSONL file (interval_check.py validates
  /// each label group independently).
  std::string run;
  /// Hot-edge list length in interval records and in the final
  /// activity ranking.
  std::size_t top_k = 8;
};

class NetState {
 public:
  NetState(const sim::Simulator& simulator, const metrics::EdgeStats& stats,
           NetStateConfig config = {});

  /// Adds request-level counters to the final record so the validator
  /// can reconcile the per-edge totals against the Collector's.
  void attach_collector(const metrics::Collector* collector) {
    collector_ = collector;
  }
  /// Names edge endpoints (`a`, `b`) in records; omitted when absent.
  void attach_graph(const routing::Graph* graph) { graph_ = graph; }

  /// Emit a record for any interval boundary crossed since the last
  /// one. Cheap when no boundary was crossed; call from existing loops
  /// — never from a scheduled event.
  void poll();

  /// Flush the trailing partial interval and append the final summary
  /// line. Idempotent; poll() after finish() is a no-op.
  void finish();

  std::uint64_t intervals() const noexcept { return clock_.intervals(); }
  /// Highest per-edge utilization observed in any emitted record or in
  /// the final full-run table — the bench gate's
  /// `hot_edge_max_utilization` scalar ( <= 1 by construction).
  double max_utilization() const noexcept { return max_utilization_; }

  const std::string& jsonl() const noexcept { return clock_.jsonl(); }
  void write_jsonl(std::FILE* f) const { clock_.write_jsonl(f); }

 private:
  struct EdgeSnap {
    double busy_s = 0.0;
    std::uint64_t leases = 0;
    std::uint64_t blocked = 0;
    std::uint64_t attempts = 0;
    std::uint64_t deliveries = 0;
  };

  /// Cumulative per-edge state at `t`, into `snaps`.
  void sample(sim::SimTime t, std::vector<EdgeSnap>& snaps) const;
  /// The fields of one record covering (clock_.last_t(), t].
  void emit(std::string& out, sim::SimTime t);
  /// The final line's per-edge table, nodes, ranking and totals.
  void summarize(std::string& out);

  const metrics::EdgeStats& stats_;
  const metrics::Collector* collector_ = nullptr;
  const routing::Graph* graph_ = nullptr;
  NetStateConfig config_;
  IntervalClock clock_;

  /// State at clock_.last_t(), and the scratch the next sample fills.
  std::vector<EdgeSnap> prev_;
  std::vector<EdgeSnap> cur_;
  /// Per-edge busy seconds at the clock's start (non-zero when the
  /// sampler attached mid-run): full-run utilization is measured from
  /// here.
  std::vector<double> start_busy_s_;
  double max_utilization_ = 0.0;
};

}  // namespace qlink::obs
