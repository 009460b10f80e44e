#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <numeric>
#include <random>
#include <set>
#include <vector>

#include "routing/graph.hpp"
#include "routing/path_selector.hpp"

/// PathSelector's candidate lists, pinned two ways: a golden digest of
/// every k_shortest output (edges, nodes and the exact cost bits) over
/// a dragonfly island, a tie-heavy torus and seeded random graphs, and
/// a brute-force oracle that enumerates every simple path of small
/// graphs. The digest holds the search to byte-identical output across
/// rewrites of its kernel; the oracle holds it to the definition of
/// "k cheapest simple paths".

namespace qlink::routing {
namespace {

constexpr CostModel kModels[] = {CostModel::kHopCount, CostModel::kFidelity,
                                 CostModel::kLatency};

/// Uniform double in [lo, hi) from raw mt19937_64 output (the engine's
/// sequence is fixed by the standard; the distributions are not).
double uniform(std::mt19937_64& rng, double lo, double hi) {
  return lo + (hi - lo) * static_cast<double>(rng() >> 11) * 0x1.0p-53;
}

/// Seeded per-edge parameters spanning the ranges the cost models see.
void randomize_params(Graph& g, std::mt19937_64& rng) {
  for (std::size_t e = 0; e < g.num_edges(); ++e) {
    EdgeParams& p = g.params(e);
    p.fidelity = uniform(rng, 0.5, 1.0);
    p.pair_time_s = uniform(rng, 1e-4, 1e-2);
    p.delay_s = uniform(rng, 0.0, 1e-3);
  }
}

/// Island 0 of dragonfly(32 x 32) as a 4-way block sharding carves it:
/// 8 all-to-all groups of 32 routers (256 nodes, 3,996 edges).
Graph dragonfly_island() {
  std::vector<std::uint32_t> nodes(256);
  std::iota(nodes.begin(), nodes.end(), 0u);
  return Graph::dragonfly(32, 32).induced(nodes);
}

Graph random_graph(std::size_t n, double edge_prob, std::mt19937_64& rng) {
  Graph g(n);
  for (std::uint32_t a = 0; a < n; ++a) {
    for (std::uint32_t b = a + 1; b < n; ++b) {
      if (uniform(rng, 0.0, 1.0) < edge_prob) g.add_edge(a, b);
    }
  }
  randomize_params(g, rng);
  return g;
}

/// FNV-1a over 64-bit words.
struct Digest {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffU;
      h *= 0x100000001b3ULL;
    }
  }
  void add(double d) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &d, sizeof bits);
    add(bits);
  }
  void add(const std::vector<Path>& paths) {
    add(static_cast<std::uint64_t>(paths.size()));
    for (const Path& p : paths) {
      add(static_cast<std::uint64_t>(p.edges.size()));
      for (const std::size_t e : p.edges) add(static_cast<std::uint64_t>(e));
      for (const std::uint32_t v : p.nodes) add(static_cast<std::uint64_t>(v));
      add(p.cost);
    }
  }
};

/// k = 1..8 under every cost model, without and with an exclusion set
/// (the first edge of the cheapest path plus every edge a seeded coin
/// picks with probability `exclude_prob`).
void digest_pairs(Digest& d, Graph& g,
                  const std::vector<std::pair<std::uint32_t, std::uint32_t>>&
                      pairs,
                  double exclude_prob, std::mt19937_64& rng) {
  for (const CostModel model : kModels) {
    const PathSelector sel(g, model);
    for (const auto& [src, dst] : pairs) {
      std::vector<std::size_t> excluded;
      if (const auto best = sel.shortest(src, dst)) {
        excluded.push_back(best->edges.front());
      }
      for (std::size_t e = 0; e < g.num_edges(); ++e) {
        if (uniform(rng, 0.0, 1.0) < exclude_prob &&
            std::find(excluded.begin(), excluded.end(), e) ==
                excluded.end()) {
          excluded.push_back(e);
        }
      }
      for (std::size_t k = 1; k <= 8; ++k) {
        d.add(sel.k_shortest(src, dst, k));
        d.add(sel.k_shortest(src, dst, k, excluded));
      }
    }
  }
}

std::vector<std::pair<std::uint32_t, std::uint32_t>> random_pairs(
    std::size_t n, std::size_t count, std::mt19937_64& rng) {
  std::vector<std::pair<std::uint32_t, std::uint32_t>> pairs;
  while (pairs.size() < count) {
    const auto a = static_cast<std::uint32_t>(rng() % n);
    const auto b = static_cast<std::uint32_t>(rng() % n);
    if (a != b) pairs.emplace_back(a, b);
  }
  return pairs;
}

TEST(PathSelectorGolden, CandidateListsMatchThePinnedDigest) {
  std::mt19937_64 rng(20191019);
  Digest d;

  // The dragonfly island, hop costs as built, then seeded link params.
  Graph island = dragonfly_island();
  const auto island_pairs = random_pairs(island.num_nodes(), 5, rng);
  digest_pairs(d, island, island_pairs, 0.05, rng);
  randomize_params(island, rng);
  digest_pairs(d, island, island_pairs, 0.05, rng);

  // A uniform torus: every model sees equal weights, so nearly every
  // candidate ties with several others and the tie-break decides.
  Graph torus = Graph::torus(6, 6);
  digest_pairs(d, torus, {{0, 21}, {0, 35}, {7, 28}, {14, 15}}, 0.08, rng);

  // Seeded sparse random graphs (some pairs disconnected).
  for (int i = 0; i < 6; ++i) {
    Graph g = random_graph(24, 0.18, rng);
    digest_pairs(d, g, random_pairs(g.num_nodes(), 4, rng), 0.1, rng);
  }

  // Captured from the Yen/Dijkstra kernel before its workspace and
  // threshold-pruning rewrite; any rewrite must reproduce it exactly.
  constexpr std::uint64_t kGolden = 0xb0f2d1bae501dd8aULL;
  EXPECT_EQ(d.h, kGolden) << std::hex << "digest 0x" << d.h;
}

// ---- brute-force oracle ---------------------------------------------

struct Enumerated {
  std::vector<std::size_t> edges;
  double cost = 0.0;
};

/// Every simple src->dst path avoiding `excluded`, by depth-first search.
std::vector<Enumerated> all_simple_paths(
    const Graph& g, const PathSelector& sel, std::uint32_t src,
    std::uint32_t dst, const std::vector<std::size_t>& excluded) {
  std::vector<Enumerated> out;
  std::vector<bool> on_path(g.num_nodes(), false);
  Enumerated cur;
  const auto dfs = [&](auto&& self, std::uint32_t u) -> void {
    if (u == dst) {
      out.push_back(cur);
      return;
    }
    on_path[u] = true;
    for (const Graph::Adjacency& adj : g.neighbors(u)) {
      if (on_path[adj.peer] ||
          std::find(excluded.begin(), excluded.end(), adj.edge) !=
              excluded.end()) {
        continue;
      }
      cur.edges.push_back(adj.edge);
      const double before = cur.cost;
      cur.cost += sel.edge_weight(adj.edge);
      self(self, adj.peer);
      cur.cost = before;
      cur.edges.pop_back();
    }
    on_path[u] = false;
  };
  dfs(dfs, src);
  std::sort(out.begin(), out.end(),
            [](const Enumerated& a, const Enumerated& b) {
              return a.cost < b.cost;
            });
  return out;
}

bool close(double a, double b) {
  return std::abs(a - b) <= 1e-12 * std::max({1.0, std::abs(a), std::abs(b)});
}

/// The returned list is min(k, #paths) distinct simple walks over graph
/// edges from src to dst, avoiding `excluded`, in nondecreasing cost
/// order, whose costs are the k smallest the enumeration finds.
void expect_matches_oracle(const Graph& g, const PathSelector& sel,
                           std::uint32_t src, std::uint32_t dst,
                           std::size_t k,
                           const std::vector<std::size_t>& excluded) {
  SCOPED_TRACE(testing::Message() << "src " << src << " dst " << dst
                                  << " k " << k << " model "
                                  << cost_model_name(sel.model()));
  const auto oracle = all_simple_paths(g, sel, src, dst, excluded);
  const auto got = sel.k_shortest(src, dst, k, excluded);
  ASSERT_EQ(got.size(), std::min(k, oracle.size()));
  std::set<std::vector<std::size_t>> distinct;
  for (std::size_t i = 0; i < got.size(); ++i) {
    const Path& p = got[i];
    ASSERT_EQ(p.nodes.size(), p.edges.size() + 1);
    EXPECT_EQ(p.src(), src);
    EXPECT_EQ(p.dst(), dst);
    EXPECT_EQ(std::set<std::uint32_t>(p.nodes.begin(), p.nodes.end()).size(),
              p.nodes.size())
        << "path revisits a node";
    double sum = 0.0;
    for (std::size_t j = 0; j < p.edges.size(); ++j) {
      const Graph::Edge& e = g.edge(p.edges[j]);
      EXPECT_TRUE((e.a == p.nodes[j] && e.b == p.nodes[j + 1]) ||
                  (e.b == p.nodes[j] && e.a == p.nodes[j + 1]))
          << "edge " << p.edges[j] << " does not join hop " << j;
      EXPECT_EQ(std::find(excluded.begin(), excluded.end(), p.edges[j]),
                excluded.end());
      sum += sel.edge_weight(p.edges[j]);
    }
    EXPECT_TRUE(close(p.cost, sum)) << p.cost << " vs " << sum;
    EXPECT_TRUE(close(p.cost, oracle[i].cost))
        << "rank " << i << ": " << p.cost << " vs " << oracle[i].cost;
    if (i > 0) {
      EXPECT_LE(got[i - 1].cost, p.cost);
    }
    distinct.insert(p.edges);
  }
  EXPECT_EQ(distinct.size(), got.size()) << "duplicate candidate";
}

TEST(PathSelectorOracle, RandomSmallGraphsReturnTheKCheapestSimplePaths) {
  std::mt19937_64 rng(7);
  for (int trial = 0; trial < 40; ++trial) {
    const std::size_t n = 5 + trial % 4;  // 5..8 nodes
    Graph g = random_graph(n, 0.55, rng);
    std::vector<std::size_t> excluded;
    if (trial % 2 == 1 && g.num_edges() > 0) {
      excluded.push_back(rng() % g.num_edges());
    }
    const auto [src, dst] = random_pairs(n, 1, rng).front();
    for (const CostModel model : kModels) {
      const PathSelector sel(g, model);
      for (std::size_t k = 1; k <= 8; ++k) {
        expect_matches_oracle(g, sel, src, dst, k, excluded);
      }
    }
  }
}

// ---- pruning edge cases -----------------------------------------------

TEST(PathSelectorOracle, ZeroWeightEdgesTieEverywhere) {
  // kLatency with no generation time and no delay weighs every edge 0:
  // every candidate ties with every other at cost 0.
  EdgeParams free;
  free.pair_time_s = 0.0;
  free.delay_s = 0.0;
  const Graph g = Graph::torus(3, 3, free);
  const PathSelector sel(g, CostModel::kLatency);
  for (std::size_t k = 1; k <= 8; ++k) {
    expect_matches_oracle(g, sel, 0, 4, k, {});
    expect_matches_oracle(g, sel, 0, 8, k, {g.find_edge(0, 1)});
  }
  for (const Path& p : sel.k_shortest(0, 4, 8)) EXPECT_EQ(p.cost, 0.0);
}

TEST(PathSelectorOracle, KBeyondTheSimplePathCountReturnsThemAll) {
  // A ring has exactly two simple paths between any two nodes.
  const Graph ring = Graph::ring(5);
  for (const CostModel model : kModels) {
    const PathSelector sel(ring, model);
    EXPECT_EQ(sel.k_shortest(0, 2, 8).size(), 2u);
    expect_matches_oracle(ring, sel, 0, 2, 8, {});
    expect_matches_oracle(ring, sel, 1, 3, 50, {});
  }
}

TEST(PathSelectorOracle, ExclusionsThatDisconnectDstYieldNothing) {
  const Graph chain = Graph::chain(4);
  const Graph ring = Graph::ring(6);
  for (const CostModel model : kModels) {
    const PathSelector on_chain(chain, model);
    const std::vector<std::size_t> cut{1};
    EXPECT_TRUE(on_chain.k_shortest(0, 3, 1, cut).empty());
    EXPECT_TRUE(on_chain.k_shortest(0, 3, 8, cut).empty());
    const PathSelector on_ring(ring, model);
    const std::vector<std::size_t> both_sides{ring.find_edge(0, 1),
                                              ring.find_edge(5, 0)};
    EXPECT_TRUE(on_ring.k_shortest(0, 3, 4, both_sides).empty());
    // One cut leaves exactly the path around the other side.
    const auto one = on_ring.k_shortest(0, 3, 4, {both_sides.data(), 1});
    ASSERT_EQ(one.size(), 1u);
    EXPECT_EQ(one[0].nodes, (std::vector<std::uint32_t>{0, 5, 4, 3}));
  }
}

TEST(PathSelectorOracle, SpursNextToDstAndOneHopFirstPaths) {
  // The last spur of every accepted path sits on the node next to dst,
  // so its search is one relaxation from done; with src and dst
  // adjacent the one-hop first path has only that spur (src itself).
  const Graph k4 = Graph::dragonfly(1, 4);  // one all-to-all group
  std::mt19937_64 rng(11);
  Graph weighted = random_graph(6, 1.0, rng);  // complete K6
  for (const CostModel model : kModels) {
    const PathSelector sel(k4, model);
    for (std::size_t k = 1; k <= 6; ++k) {
      expect_matches_oracle(k4, sel, 0, 1, k, {});
    }
    const auto all = sel.k_shortest(0, 1, 8);
    ASSERT_EQ(all.size(), 5u);  // 0-1, 0-2-1, 0-3-1, 0-2-3-1, 0-3-2-1
    EXPECT_EQ(all[0].hops(), 1u);
    const PathSelector wsel(weighted, model);
    for (std::size_t k = 1; k <= 8; ++k) {
      expect_matches_oracle(weighted, wsel, 2, 5, k, {});
    }
  }
}

TEST(PathSelectorOracle, ThresholdTieKeepsTheLexicographicallySmallerPath) {
  // src 0, dst 5. The cheapest path is 0-1-5 (2 hops). Its first spur
  // (at 0, edge 0-1 banned) yields A = 0-4-3-5 at cost 3, which fills
  // the k = 2 pool and fixes the bar at 3. The second spur (at 1,
  // edge 1-5 banned) yields B = 0-1-2-5, also at cost 3: a tie with
  // the bar that must survive, because B < A in node order.
  Graph g(6);
  g.add_edge(0, 1);
  g.add_edge(1, 5);
  g.add_edge(0, 4);
  g.add_edge(4, 3);
  g.add_edge(3, 5);
  g.add_edge(1, 2);
  g.add_edge(2, 5);
  const PathSelector sel(g, CostModel::kHopCount);
  const auto got = sel.k_shortest(0, 5, 2);
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0].nodes, (std::vector<std::uint32_t>{0, 1, 5}));
  EXPECT_EQ(got[1].nodes, (std::vector<std::uint32_t>{0, 1, 2, 5}));
  EXPECT_EQ(got[1].cost, 3.0);
  const auto three = sel.k_shortest(0, 5, 3);
  ASSERT_EQ(three.size(), 3u);
  EXPECT_EQ(three[2].nodes, (std::vector<std::uint32_t>{0, 4, 3, 5}));
}

}  // namespace
}  // namespace qlink::routing
