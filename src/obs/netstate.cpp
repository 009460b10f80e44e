#include "obs/netstate.hpp"

#include <algorithm>

#include "metrics/collector.hpp"
#include "obs/json.hpp"
#include "routing/graph.hpp"

namespace qlink::obs {

NetState::NetState(const sim::Simulator& simulator,
                   const metrics::EdgeStats& stats, NetStateConfig config)
    : stats_(stats),
      config_(std::move(config)),
      clock_(simulator, config_.interval, config_.run) {
  if (config_.top_k == 0) config_.top_k = 8;
  sample(clock_.start_t(), prev_);
  start_busy_s_.reserve(prev_.size());
  for (const EdgeSnap& s : prev_) start_busy_s_.push_back(s.busy_s);
}

void NetState::sample(sim::SimTime t, std::vector<EdgeSnap>& snaps) const {
  snaps.resize(stats_.num_edges());
  for (std::size_t e = 0; e < snaps.size(); ++e) {
    const metrics::EdgeStats::EdgeCounters& c = stats_.edge(e);
    EdgeSnap& s = snaps[e];
    s.busy_s = stats_.busy_seconds(e, t);
    s.leases = c.leases;
    s.blocked = c.blocked;
    s.attempts = c.attempts;
    s.deliveries = c.deliveries;
  }
}

void NetState::poll() {
  clock_.poll([this](std::string& out, sim::SimTime t) { emit(out, t); });
}

void NetState::finish() {
  clock_.finish([this](std::string& out, sim::SimTime t) { emit(out, t); },
                [this](std::string& out) { summarize(out); });
}

void NetState::emit(std::string& out, sim::SimTime t) {
  sample(t, cur_);
  const std::vector<EdgeSnap>& cur = cur_;
  const double dt_s = sim::to_seconds(t - clock_.last_t());

  struct HotEdge {
    std::size_t edge = 0;
    double util = 0.0;
    std::uint64_t leases = 0;
    std::uint64_t blocked = 0;
    std::uint64_t attempts = 0;
    std::uint64_t deliveries = 0;
  };
  std::vector<HotEdge> active;
  std::uint64_t leases = 0, blocked = 0, attempts = 0, deliveries = 0;
  double util_sum = 0.0, util_max = 0.0;
  for (std::size_t e = 0; e < cur.size(); ++e) {
    HotEdge h;
    h.edge = e;
    // busy is a union of windows clipped to the interval, so the ratio
    // is <= 1 up to double round-off: the two cumulative busy_s values
    // were converted separately, and their difference can exceed dt_s
    // by an ulp. Clamp so the emitted util is in [0, 1] exactly.
    h.util = dt_s > 0.0
                 ? std::min(1.0, (cur[e].busy_s - prev_[e].busy_s) / dt_s)
                 : 0.0;
    h.leases = cur[e].leases - prev_[e].leases;
    h.blocked = cur[e].blocked - prev_[e].blocked;
    h.attempts = cur[e].attempts - prev_[e].attempts;
    h.deliveries = cur[e].deliveries - prev_[e].deliveries;
    leases += h.leases;
    blocked += h.blocked;
    attempts += h.attempts;
    deliveries += h.deliveries;
    util_sum += h.util;
    util_max = std::max(util_max, h.util);
    if (h.util > 0.0 || h.leases > 0 || h.blocked > 0 || h.attempts > 0 ||
        h.deliveries > 0) {
      active.push_back(h);
    }
  }
  const std::size_t hot = std::min(config_.top_k, active.size());
  std::partial_sort(active.begin(), active.begin() + hot, active.end(),
                    [](const HotEdge& a, const HotEdge& b) {
                      if (a.util != b.util) return a.util > b.util;
                      return a.edge < b.edge;
                    });
  active.resize(hot);

  out += ',';
  append_field(out, "leases", leases);
  out += ',';
  append_field(out, "blocked", blocked);
  out += ',';
  append_field(out, "attempts", attempts);
  out += ',';
  append_field(out, "deliveries", deliveries);
  out += ',';
  append_field(out, "util_mean",
               cur.empty() ? 0.0
                           : util_sum / static_cast<double>(cur.size()));
  out += ',';
  append_field(out, "util_max", util_max);
  out += ",\"hot\":[";
  for (std::size_t i = 0; i < active.size(); ++i) {
    const HotEdge& h = active[i];
    if (i > 0) out += ',';
    out += '{';
    append_field(out, "edge", static_cast<std::uint64_t>(h.edge));
    if (graph_ != nullptr) {
      const routing::Graph::Edge& ge = graph_->edge(h.edge);
      out += ',';
      append_field(out, "a", static_cast<std::uint64_t>(ge.a));
      out += ',';
      append_field(out, "b", static_cast<std::uint64_t>(ge.b));
    }
    out += ',';
    append_field(out, "util", h.util);
    out += ',';
    append_field(out, "leases", h.leases);
    out += ',';
    append_field(out, "blocked", h.blocked);
    out += ',';
    append_field(out, "attempts", h.attempts);
    out += ',';
    append_field(out, "deliveries", h.deliveries);
    out += '}';
  }
  out += ']';

  max_utilization_ = std::max(max_utilization_, util_max);
  prev_.swap(cur_);
}

void NetState::summarize(std::string& out) {
  // prev_ holds the state at the last boundary: the final record's t.
  const std::vector<EdgeSnap>& cur = prev_;
  const double elapsed_s =
      sim::to_seconds(clock_.last_t() - clock_.start_t());

  out += ",\"edges\":[";
  for (std::size_t e = 0; e < cur.size(); ++e) {
    const metrics::EdgeStats::EdgeCounters& c = stats_.edge(e);
    const double busy_s = cur[e].busy_s - start_busy_s_[e];
    // Same ulp-level clamp as the interval path: coverage cannot
    // exceed elapsed sim time, but the double division can.
    const double util =
        elapsed_s > 0.0 ? std::min(1.0, busy_s / elapsed_s) : 0.0;
    max_utilization_ = std::max(max_utilization_, util);
    if (e > 0) out += ',';
    out += '{';
    append_field(out, "edge", static_cast<std::uint64_t>(e));
    if (graph_ != nullptr) {
      const routing::Graph::Edge& ge = graph_->edge(e);
      out += ',';
      append_field(out, "a", static_cast<std::uint64_t>(ge.a));
      out += ',';
      append_field(out, "b", static_cast<std::uint64_t>(ge.b));
    }
    out += ',';
    append_field(out, "util", util);
    out += ',';
    append_field(out, "busy_s", busy_s);
    out += ',';
    append_field(out, "leases", c.leases);
    out += ',';
    append_field(out, "blocked", c.blocked);
    out += ',';
    append_field(out, "attempts", c.attempts);
    out += ',';
    append_field(out, "deliveries", c.deliveries);
    out += ',';
    append_field(out, "admission_waits", c.admission_waits);
    out += ',';
    append_field(out, "admission_wait_s", c.admission_wait_s);
    out += ',';
    append_field(out, "fidelity_mean", c.fidelity.mean());
    out += '}';
  }

  out += "],\"nodes\":[";
  bool first_node = true;
  for (std::size_t n = 0; n < stats_.num_nodes(); ++n) {
    const metrics::EdgeStats::NodeCounters& c = stats_.node(n);
    if (c.swaps == 0 && c.terminals == 0) continue;  // active only
    if (!first_node) out += ',';
    first_node = false;
    out += '{';
    append_field(out, "node", static_cast<std::uint64_t>(n));
    out += ',';
    append_field(out, "swaps", c.swaps);
    out += ',';
    append_field(out, "terminals", c.terminals);
    out += '}';
  }

  out += "],\"hot_edges\":[";
  const auto top = stats_.hot_edges(config_.top_k);
  for (std::size_t i = 0; i < top.size(); ++i) {
    if (i > 0) out += ',';
    out += '{';
    append_field(out, "edge", static_cast<std::uint64_t>(top[i].edge));
    out += ',';
    append_field(out, "count", top[i].count);
    out += '}';
  }

  out += "],\"totals\":{";
  append_field(out, "leases", stats_.lease_count());
  out += ',';
  append_field(out, "attempt_pairs", stats_.attempt_pairs());
  out += ',';
  append_field(out, "swaps", stats_.swaps());
  out += ',';
  append_field(out, "blocked_requests", stats_.blocked_requests());
  out += ',';
  append_field(out, "deliveries", stats_.deliveries());
  out += ',';
  append_field(out, "admission_waits", stats_.admission_waits());
  out += ',';
  append_field(out, "admission_wait_s", stats_.admission_wait_seconds());
  out += '}';

  if (collector_ != nullptr) {
    out += ",\"collector\":{";
    append_field(out, "pairs_delivered",
                 collector_->total_pairs_delivered());
    out += ',';
    append_field(out, "requests_blocked", collector_->requests_blocked());
    out += ',';
    append_field(out, "admission_waits",
                 collector_->admission_wait().count());
    out += ',';
    append_field(out, "admission_wait_s",
                 collector_->admission_wait().mean() *
                     static_cast<double>(collector_->admission_wait().count()));
    out += '}';
  }

  out += ',';
  append_field(out, "max_utilization", max_utilization_);
}

}  // namespace qlink::obs
