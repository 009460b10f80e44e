#include "routing/path_selector.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <stdexcept>

#include "qstate/bell_algebra.hpp"

namespace qlink::routing {

namespace ba = qstate::bell_algebra;

namespace {

/// Werner parameter of a pair at fidelity f; floored far enough above
/// zero that -log stays finite for useless links (f <= 1/4 carries no
/// entanglement at all).
constexpr double kMinWerner = 1e-9;

double werner(double fidelity) {
  return std::max(kMinWerner, (4.0 * fidelity - 1.0) / 3.0);
}

/// Bell coefficient vector of the Werner state with fidelity f in the
/// corrected (Phi+-indexed) frame: the swap cascade's conditional
/// Paulis fold every outcome branch back to index 0, so composing in
/// this frame with mu = 0 is the expected end-to-end state.
ba::BellCoeffs werner_coeffs(double fidelity) {
  const double f = std::clamp(fidelity, 0.0, 1.0);
  const double rest = (1.0 - f) / 3.0;
  return {f, rest, rest, rest};
}

}  // namespace

const char* cost_model_name(CostModel model) noexcept {
  switch (model) {
    case CostModel::kHopCount:
      return "hops";
    case CostModel::kFidelity:
      return "fidelity";
    case CostModel::kLatency:
      return "latency";
  }
  return "?";
}

std::optional<CostModel> parse_cost_model(std::string_view name) noexcept {
  if (name == "hops" || name == "hopcount") return CostModel::kHopCount;
  if (name == "fidelity") return CostModel::kFidelity;
  if (name == "latency") return CostModel::kLatency;
  return std::nullopt;
}

PathSelector::PathSelector(const Graph& graph, CostModel model)
    : graph_(graph), model_(model) {}

double PathSelector::edge_weight(std::size_t edge) const {
  const EdgeParams& p = graph_.params(edge);
  switch (model_) {
    case CostModel::kHopCount:
      return 1.0;
    case CostModel::kFidelity:
      return -std::log(werner(p.fidelity));
    case CostModel::kLatency:
      return p.pair_time_s + p.delay_s;
  }
  return 1.0;
}

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Relative slack of Yen's threshold prune (below). It must dominate
/// the rounding of the float sums being compared (a few hundred ulps at
/// most) and stay far below any cost gap that matters.
constexpr double kPruneSlack = 1e-9;

/// The search state of one shortest / k_shortest call, allocated once
/// and reused by every Dijkstra run of that call. Per-node and per-edge
/// marks are epoch-stamped: starting a search bumps the epoch, which
/// invalidates every distance and ban of the previous search at once.
struct Workspace {
  Workspace(const Graph& g, std::vector<double> edge_weights)
      : graph(g),
        weight(std::move(edge_weights)),
        reached(g.num_nodes(), 0),
        dist(g.num_nodes(), kInf),
        via_edge(g.num_nodes(), Graph::npos),
        via_node(g.num_nodes(), 0),
        node_ban(g.num_nodes(), 0),
        edge_ban(g.num_edges(), 0),
        to_dst(g.num_nodes(), 0.0) {}

  const Graph& graph;
  /// Additive weight per edge; +inf for an excluded edge, which the
  /// strict `<` relaxation can never take.
  std::vector<double> weight;
  std::uint32_t epoch = 0;
  std::vector<std::uint32_t> reached;  // dist/via valid iff == epoch
  std::vector<double> dist;
  std::vector<std::size_t> via_edge;
  std::vector<std::uint32_t> via_node;
  std::vector<std::uint32_t> node_ban;  // banned this search iff == epoch
  std::vector<std::uint32_t> edge_ban;
  /// Lower bound on every node's remaining cost to the destination; the
  /// trivial bound 0 until Yen computes the exact unbanned distances.
  std::vector<double> to_dst;
  std::vector<std::pair<double, std::uint32_t>> heap;

  void begin_search() { ++epoch; }
  double distance(std::uint32_t v) const {
    return reached[v] == epoch ? dist[v] : kInf;
  }
  bool banned(const Graph::Adjacency& adj) const {
    return edge_ban[adj.edge] == epoch || node_ban[adj.peer] == epoch;
  }

  /// Dijkstra from src over the non-banned graph, stopping once dst
  /// pops (pass a node id >= num_nodes to settle everything reachable).
  /// A relaxation reaching v at distance nd is skipped when
  /// nd + to_dst[v] > budget. Heap entries are (distance, node), so
  /// ties pop lowest node first and candidate enumeration is
  /// deterministic across platforms; `via` keeps the first-popped
  /// predecessor that reached a node's final distance.
  void dijkstra(std::uint32_t src, std::uint32_t dst, double budget) {
    constexpr std::greater<> kMinFirst;
    heap.clear();
    reached[src] = epoch;
    dist[src] = 0.0;
    heap.emplace_back(0.0, src);
    while (!heap.empty()) {
      std::pop_heap(heap.begin(), heap.end(), kMinFirst);
      const auto [d, u] = heap.back();
      heap.pop_back();
      if (d > dist[u]) continue;
      if (u == dst) break;
      for (const Graph::Adjacency& adj : graph.neighbors(u)) {
        if (banned(adj)) continue;
        const double nd = d + weight[adj.edge];
        if (!(nd < distance(adj.peer))) continue;
        if (nd + to_dst[adj.peer] > budget) continue;
        reached[adj.peer] = epoch;
        dist[adj.peer] = nd;
        via_edge[adj.peer] = adj.edge;
        via_node[adj.peer] = u;
        heap.emplace_back(nd, adj.peer);
        std::push_heap(heap.begin(), heap.end(), kMinFirst);
      }
    }
  }

  /// Append the last search's src -> dst path (edges, and the nodes
  /// after src) to `path`.
  void append_path(std::uint32_t src, std::uint32_t dst, Path& path) const {
    const std::size_t edges_from = path.edges.size();
    const std::size_t nodes_from = path.nodes.size();
    for (std::uint32_t v = dst; v != src; v = via_node[v]) {
      path.edges.push_back(via_edge[v]);
      path.nodes.push_back(v);
    }
    std::reverse(path.edges.begin() + static_cast<std::ptrdiff_t>(edges_from),
                 path.edges.end());
    std::reverse(path.nodes.begin() + static_cast<std::ptrdiff_t>(nodes_from),
                 path.nodes.end());
  }

  /// Fill to_dst with exact distances to dst over the unbanned graph
  /// (excluded edges stay out: their weight is infinite). The graph is
  /// undirected, so a search outward from dst computes them.
  void compute_to_dst(std::uint32_t dst) {
    begin_search();
    dijkstra(dst, static_cast<std::uint32_t>(graph.num_nodes()), kInf);
    for (std::uint32_t v = 0; v < graph.num_nodes(); ++v) {
      to_dst[v] = distance(v);
    }
  }
};

void check_endpoints(const Graph& graph, std::uint32_t src,
                     std::uint32_t dst) {
  if (src >= graph.num_nodes() || dst >= graph.num_nodes()) {
    throw std::invalid_argument("PathSelector: node id out of range");
  }
  if (src == dst) {
    throw std::invalid_argument("PathSelector: src == dst");
  }
}

/// The cheapest unbanned src -> dst path, or nullopt when there is none.
std::optional<Path> cheapest(Workspace& ws, std::uint32_t src,
                             std::uint32_t dst) {
  ws.begin_search();
  ws.dijkstra(src, dst, kInf);
  if (ws.distance(dst) == kInf) return std::nullopt;
  Path path;
  path.nodes.push_back(src);
  ws.append_path(src, dst, path);
  path.cost = ws.dist[dst];
  return path;
}

/// The `need`-th smallest candidate cost (need >= 1), or +inf with
/// fewer than `need` candidates.
double threshold(const std::vector<Path>& candidates, std::size_t need,
                 std::vector<double>& costs) {
  if (candidates.size() < need) return kInf;
  costs.clear();
  for (const Path& p : candidates) costs.push_back(p.cost);
  std::nth_element(costs.begin(),
                   costs.begin() + static_cast<std::ptrdiff_t>(need - 1),
                   costs.end());
  return costs[need - 1];
}

/// Yen's algorithm: spur off every prefix of the last accepted path
/// with that prefix's nodes and the accepted paths' next edges banned,
/// and accept the cheapest candidate, until k paths are accepted.
///
/// Threshold prune. Once the candidate pool holds need = k - accepted
/// paths, let T be the need-th smallest pooled cost. A candidate
/// costing more than T can never be accepted: only acceptance removes
/// candidates, each acceptance takes the cheapest one, and the `need`
/// cheaper ones all leave first, which ends the search. (T can only
/// fall: additions lower it, and an acceptance removes the minimum
/// while `need` drops by one.) So a spur search with root cost R may
/// skip any node v whose distance d(v) plus the lower bound h(v) on its
/// remaining cost exceeds T - R. h is the exact distance to dst over
/// the non-excluded graph, from one extra search; bans only remove
/// arcs, so it bounds every spur search from below.
///
/// Why the kept candidates are byte-identical to the unpruned search:
/// - Ties are never pruned (the test is strict and padded by
///   kPruneSlack, far above float rounding), because the tie-break in
///   path_less may still prefer an equal-cost path.
/// - Every node on a spur path costing <= T - R, and its optimal
///   predecessor, satisfies d + h <= T - R (h is consistent:
///   h(u) <= w(u, v) + h(v)), so all of them are kept and reached at
///   the same distances.
/// - Pruning only drops heap entries; the kept nodes pop in the same
///   (distance, node) order, and a node reached late at a too-high
///   distance pops after its true predecessors. So the
///   first-popped-optimal-predecessor `via` rule picks the same edges.
/// - A spur whose true path costs more than the bar finds nothing (or
///   a path above T): such candidates were never accepted, never moved
///   T, and the pool keeps >= `need` cheaper ones, so it never runs
///   dry early.
/// Negative or NaN weights break the lower-bound argument, so the
/// prune stays off for graphs that have them.
std::vector<Path> yen(Workspace& ws, std::uint32_t src, std::uint32_t dst,
                      std::size_t k) {
  std::vector<Path> found;
  if (k == 0) return found;
  auto first = cheapest(ws, src, dst);
  if (!first) return found;
  found.push_back(std::move(*first));

  const bool prunable = std::all_of(ws.weight.begin(), ws.weight.end(),
                                    [](double w) { return w >= 0.0; });
  bool have_to_dst = false;
  const auto path_less = [](const Path& a, const Path& b) {
    if (a.cost != b.cost) return a.cost < b.cost;
    return a.nodes < b.nodes;  // deterministic tie-break
  };
  std::vector<Path> candidates;
  std::vector<double> costs;
  double bar = kInf;

  while (found.size() < k) {
    const Path& prev = found.back();
    double root_cost = 0.0;
    for (std::size_t i = 0; i < prev.edges.size(); ++i) {
      if (i > 0) root_cost += ws.weight[prev.edges[i - 1]];
      const std::uint32_t spur = prev.nodes[i];
      double budget = kInf;
      if (prunable && bar < kInf) {
        if (!have_to_dst) {
          ws.compute_to_dst(dst);
          have_to_dst = true;
        }
        budget = bar + kPruneSlack * bar - root_cost;
        // The same test on the spur node itself (distance 0).
        if (ws.to_dst[spur] > budget) continue;
      }

      ws.begin_search();
      // The root path up to the spur node must not be re-entered.
      for (std::size_t j = 0; j < i; ++j) {
        ws.node_ban[prev.nodes[j]] = ws.epoch;
      }
      // Any accepted path sharing this root must deviate here.
      for (const Path& p : found) {
        if (p.edges.size() > i &&
            std::equal(p.nodes.begin(), p.nodes.begin() + i + 1,
                       prev.nodes.begin())) {
          ws.edge_ban[p.edges[i]] = ws.epoch;
        }
      }
      ws.dijkstra(spur, dst, budget);
      if (ws.distance(dst) == kInf) continue;

      Path total;
      total.nodes.assign(prev.nodes.begin(), prev.nodes.begin() + i + 1);
      total.edges.assign(prev.edges.begin(), prev.edges.begin() + i);
      ws.append_path(spur, dst, total);
      total.cost = ws.dist[dst];
      for (std::size_t j = 0; j < i; ++j) {
        total.cost += ws.weight[prev.edges[j]];
      }

      const auto dup = [&](const Path& p) {
        return p.edges == total.edges;
      };
      if (std::none_of(found.begin(), found.end(), dup) &&
          std::none_of(candidates.begin(), candidates.end(), dup)) {
        candidates.push_back(std::move(total));
        bar = threshold(candidates, k - found.size(), costs);
      }
    }
    if (candidates.empty()) break;
    const auto best =
        std::min_element(candidates.begin(), candidates.end(), path_less);
    found.push_back(std::move(*best));
    candidates.erase(best);
  }
  return found;
}

/// The per-call weight table: edge_weight of every edge, +inf for the
/// excluded ones.
std::vector<double> edge_weights(const PathSelector& sel,
                                 std::span<const std::size_t> excluded) {
  const std::size_t num_edges = sel.graph().num_edges();
  std::vector<double> w(num_edges);
  for (std::size_t e = 0; e < num_edges; ++e) w[e] = sel.edge_weight(e);
  for (const std::size_t e : excluded) {
    if (e >= num_edges) {
      throw std::invalid_argument("PathSelector: unknown excluded edge");
    }
    w[e] = kInf;
  }
  return w;
}

}  // namespace

std::optional<Path> PathSelector::shortest(std::uint32_t src,
                                           std::uint32_t dst) const {
  check_endpoints(graph_, src, dst);
  Workspace ws(graph_, edge_weights(*this, {}));
  return cheapest(ws, src, dst);
}

std::vector<Path> PathSelector::k_shortest(std::uint32_t src,
                                           std::uint32_t dst,
                                           std::size_t k) const {
  return k_shortest(src, dst, k, {});
}

std::vector<Path> PathSelector::k_shortest(
    std::uint32_t src, std::uint32_t dst, std::size_t k,
    std::span<const std::size_t> excluded_edges) const {
  Workspace ws(graph_, edge_weights(*this, excluded_edges));
  check_endpoints(graph_, src, dst);
  return yen(ws, src, dst, k);
}

double PathSelector::estimated_fidelity(const Graph& graph,
                                        const Path& path) {
  if (path.edges.empty()) return 0.0;
  ba::BellCoeffs acc = werner_coeffs(graph.params(path.edges[0]).fidelity);
  for (std::size_t i = 1; i < path.edges.size(); ++i) {
    acc = ba::swap_coefficients(
        acc, werner_coeffs(graph.params(path.edges[i]).fidelity), 0, 0);
  }
  return acc[0];
}

double PathSelector::estimated_latency_s(const Graph& graph,
                                         const Path& path) {
  double total = 0.0;
  for (const std::size_t e : path.edges) {
    total += graph.params(e).pair_time_s + graph.params(e).delay_s;
  }
  return total;
}

}  // namespace qlink::routing
