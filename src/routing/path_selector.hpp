#pragma once

#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "routing/graph.hpp"

/// \file path_selector.hpp
/// Loop-free candidate-path computation over a routing::Graph.
///
/// A PathSelector turns a cost model into additive per-edge weights and
/// computes the k cheapest simple paths (Yen's algorithm over
/// deterministic Dijkstra). Three cost models ship:
///
///  - kHopCount: every edge costs 1 — classic shortest-path routing.
///  - kFidelity: edge weight -log w with w = (4F - 1)/3, the Werner
///    parameter of a pair at fidelity F. Entanglement swapping multiplies
///    Werner parameters (the XOR-convolution of Bell coefficient vectors,
///    qstate/bell_algebra.hpp), so minimising the sum of -log w maximises
///    the expected end-to-end fidelity estimate. `estimated_fidelity`
///    re-scores a candidate exactly by composing the per-edge Bell
///    coefficient vectors through the swap algebra.
///  - kLatency: edge weight = expected pair-generation time plus the
///    classical delay the swap announcements pick up crossing the edge.
///    (Hops generate in parallel, so the sum is a pessimistic proxy for
///    the wait on the slowest hop; it still orders candidates sensibly
///    because every summand also bounds that maximum.)
///
/// Calls keep no state between them (each builds its own search
/// workspace), so concurrent const calls on one selector are safe as
/// long as nobody edits the graph meanwhile.

namespace qlink::routing {

enum class CostModel { kHopCount, kFidelity, kLatency };

const char* cost_model_name(CostModel model) noexcept;
std::optional<CostModel> parse_cost_model(std::string_view name) noexcept;

/// A simple (loop-free) path: edge ids plus the node sequence they
/// traverse (nodes.size() == edges.size() + 1, nodes.front() == src).
struct Path {
  std::vector<std::size_t> edges;
  std::vector<std::uint32_t> nodes;
  double cost = 0.0;

  std::size_t hops() const noexcept { return edges.size(); }
  std::uint32_t src() const { return nodes.front(); }
  std::uint32_t dst() const { return nodes.back(); }
};

class PathSelector {
 public:
  explicit PathSelector(const Graph& graph,
                        CostModel model = CostModel::kHopCount);

  const Graph& graph() const noexcept { return graph_; }
  CostModel model() const noexcept { return model_; }

  /// Additive weight of one edge under the active cost model.
  double edge_weight(std::size_t edge) const;

  /// Cheapest path, or nullopt when src and dst are not connected.
  /// Throws std::invalid_argument for out-of-range ids or src == dst.
  std::optional<Path> shortest(std::uint32_t src, std::uint32_t dst) const;

  /// The k cheapest simple paths in nondecreasing cost order (fewer if
  /// the graph has fewer). Deterministic: ties break on node order.
  std::vector<Path> k_shortest(std::uint32_t src, std::uint32_t dst,
                               std::size_t k) const;

  /// As k_shortest, but no returned path uses any edge in
  /// `excluded_edges` — the re-routing search over a request's
  /// exclusion set (see Router). Unknown edge ids throw
  /// std::invalid_argument.
  std::vector<Path> k_shortest(std::uint32_t src, std::uint32_t dst,
                               std::size_t k,
                               std::span<const std::size_t> excluded_edges)
      const;

  /// Expected end-to-end fidelity of delivering over `path`: per-edge
  /// Werner states at EdgeParams::fidelity composed hop by hop through
  /// the Bell-diagonal swap algebra (exact for Werner inputs; the swap
  /// corrections make every measurement branch equivalent).
  static double estimated_fidelity(const Graph& graph, const Path& path);

  /// Expected latency proxy of `path`: sum of per-edge generation times
  /// plus the classical announcement delays (see kLatency above).
  static double estimated_latency_s(const Graph& graph, const Path& path);

 private:
  const Graph& graph_;
  CostModel model_;
};

}  // namespace qlink::routing
