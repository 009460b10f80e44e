#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <random>
#include <stdexcept>
#include <vector>

#include "qstate/bell_algebra.hpp"
#include "routing/graph.hpp"
#include "routing/path_selector.hpp"
#include "routing/reservation.hpp"

/// Unit tests for the routing subsystem's pure pieces: graph model and
/// generators, k-shortest path selection under the three cost models,
/// and the reservation table's admission / blocked-retry mechanics.
/// Router-over-QuantumNetwork integration lives in test_netlayer.cpp.

namespace qlink::routing {
namespace {

TEST(RoutingGraph, ValidatesEdges) {
  Graph g(4);
  g.add_edge(0, 1);
  EXPECT_THROW(g.add_edge(2, 2), std::invalid_argument);  // self-loop
  EXPECT_THROW(g.add_edge(0, 4), std::invalid_argument);  // unknown id
  EXPECT_THROW(g.add_edge(1, 0), std::invalid_argument);  // duplicate
  EdgeParams zero;
  zero.capacity = 0;
  EXPECT_THROW(g.add_edge(2, 3, zero), std::invalid_argument);
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_THROW(Graph(1), std::invalid_argument);
}

TEST(RoutingGraph, GeneratorShapes) {
  const Graph chain = Graph::chain(5);
  EXPECT_EQ(chain.num_nodes(), 5u);
  EXPECT_EQ(chain.num_edges(), 4u);
  EXPECT_TRUE(chain.connected());

  const Graph ring = Graph::ring(6);
  EXPECT_EQ(ring.num_edges(), 6u);
  for (std::uint32_t n = 0; n < 6; ++n) {
    EXPECT_EQ(ring.neighbors(n).size(), 2u);
  }

  const Graph star = Graph::star(4);
  EXPECT_EQ(star.num_nodes(), 5u);
  EXPECT_EQ(star.neighbors(0).size(), 4u);

  const Graph grid = Graph::grid(3, 4);
  EXPECT_EQ(grid.num_nodes(), 12u);
  // 3 rows x 3 horizontal + 2 x 4 vertical.
  EXPECT_EQ(grid.num_edges(), 3u * 3u + 2u * 4u);
  EXPECT_TRUE(grid.connected());
  EXPECT_NE(grid.find_edge(0, 1), Graph::npos);
  EXPECT_NE(grid.find_edge(0, 4), Graph::npos);
  EXPECT_EQ(grid.find_edge(0, 5), Graph::npos);

  const Graph torus = Graph::torus(3, 4);
  // Grid edges + 3 row wraps + 4 column wraps; every node degree 4.
  EXPECT_EQ(torus.num_edges(), 17u + 3u + 4u);
  for (std::uint32_t n = 0; n < 12; ++n) {
    EXPECT_EQ(torus.neighbors(n).size(), 4u);
  }
  // A torus of extent 2 in one dimension must not duplicate the mesh
  // edge with a wrap: only the extent-3 dimension gets its two wraps.
  const Graph thin = Graph::torus(2, 3);
  EXPECT_EQ(thin.num_edges(), 7u + 2u);

  const Graph fly = Graph::dragonfly(4, 3);
  EXPECT_EQ(fly.num_nodes(), 12u);
  // 4 groups x C(3,2) intra + C(4,2) global.
  EXPECT_EQ(fly.num_edges(), 4u * 3u + 6u);
  EXPECT_TRUE(fly.connected());
}

TEST(PathSelector, HopCountShortestOnRing) {
  const Graph ring = Graph::ring(6);
  const PathSelector sel(ring, CostModel::kHopCount);
  const auto best = sel.shortest(0, 5);
  ASSERT_TRUE(best.has_value());
  EXPECT_EQ(best->hops(), 1u);  // the closing edge 5-0
  EXPECT_EQ(best->nodes, (std::vector<std::uint32_t>{0, 5}));

  // k = 2 surfaces the long way around as well.
  const auto both = sel.k_shortest(0, 5, 2);
  ASSERT_EQ(both.size(), 2u);
  EXPECT_EQ(both[0].hops(), 1u);
  EXPECT_EQ(both[1].hops(), 5u);
  EXPECT_EQ(both[1].nodes, (std::vector<std::uint32_t>{0, 1, 2, 3, 4, 5}));
  EXPECT_LE(both[0].cost, both[1].cost);

  EXPECT_THROW(sel.shortest(0, 0), std::invalid_argument);
  EXPECT_THROW(sel.shortest(0, 9), std::invalid_argument);
}

TEST(PathSelector, KShortestAreSimpleAndOrdered) {
  const Graph grid = Graph::grid(3, 3);
  const PathSelector sel(grid, CostModel::kHopCount);
  const auto paths = sel.k_shortest(0, 8, 6);
  ASSERT_EQ(paths.size(), 6u);  // corner-to-corner: six 4-hop routes
  for (const Path& p : paths) {
    EXPECT_EQ(p.hops(), 4u);
    EXPECT_EQ(p.src(), 0u);
    EXPECT_EQ(p.dst(), 8u);
    // Simple: no node repeats.
    std::vector<std::uint32_t> nodes = p.nodes;
    std::sort(nodes.begin(), nodes.end());
    EXPECT_EQ(std::adjacent_find(nodes.begin(), nodes.end()), nodes.end());
  }
  // Distinct edge sequences.
  for (std::size_t i = 0; i < paths.size(); ++i) {
    for (std::size_t j = i + 1; j < paths.size(); ++j) {
      EXPECT_NE(paths[i].edges, paths[j].edges);
    }
  }
}

TEST(PathSelector, NoPathAcrossDisconnectedComponents) {
  Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(2, 3);
  const PathSelector sel(g);
  EXPECT_FALSE(sel.shortest(0, 3).has_value());
  EXPECT_TRUE(sel.k_shortest(0, 3, 3).empty());
  EXPECT_FALSE(g.connected());
}

TEST(PathSelector, FidelityModelPrefersCleanDetour) {
  // Ring of 6, endpoints 0 and 3: both ways are 3 hops, but the
  // low-numbered side is degraded. Hop count ties (and its
  // deterministic tie-break takes the degraded side); the fidelity
  // model must pay the identical hop count for the clean side.
  EdgeParams clean;
  clean.fidelity = 0.9;
  Graph ring = Graph::ring(6, clean);
  for (const auto [a, b] : {std::pair{0u, 1u}, {1u, 2u}, {2u, 3u}}) {
    ring.params(ring.find_edge(a, b)).fidelity = 0.6;
  }

  const PathSelector hops(ring, CostModel::kHopCount);
  const auto hop_path = hops.shortest(0, 3);
  ASSERT_TRUE(hop_path.has_value());
  EXPECT_EQ(hop_path->nodes, (std::vector<std::uint32_t>{0, 1, 2, 3}));

  const PathSelector fid(ring, CostModel::kFidelity);
  const auto fid_path = fid.shortest(0, 3);
  ASSERT_TRUE(fid_path.has_value());
  EXPECT_EQ(fid_path->nodes, (std::vector<std::uint32_t>{0, 5, 4, 3}));
  EXPECT_GT(PathSelector::estimated_fidelity(ring, *fid_path),
            PathSelector::estimated_fidelity(ring, *hop_path));
}

TEST(PathSelector, EstimatedFidelityMatchesSwapAlgebra) {
  // Two hops at Werner fidelities f1, f2 compose through the Bell
  // XOR-convolution; the closed form for Werner inputs is
  // F = f1 f2 + (1 - f1)(1 - f2) / 3.
  EdgeParams e1, e2;
  e1.fidelity = 0.9;
  e2.fidelity = 0.8;
  Graph chain(3);
  chain.add_edge(0, 1, e1);
  chain.add_edge(1, 2, e2);
  const PathSelector sel(chain, CostModel::kFidelity);
  const auto path = sel.shortest(0, 2);
  ASSERT_TRUE(path.has_value());
  const double expected = 0.9 * 0.8 + (0.1 * 0.2) / 3.0;
  EXPECT_NEAR(PathSelector::estimated_fidelity(chain, *path), expected,
              1e-12);
  // Single hop: the estimate is the edge fidelity itself.
  Path one;
  one.edges = {0};
  one.nodes = {0, 1};
  EXPECT_NEAR(PathSelector::estimated_fidelity(chain, one), 0.9, 1e-12);
}

TEST(PathSelector, LatencyModelAvoidsSlowLinks) {
  // 0-1-2 fast detour vs direct slow 0-2.
  EdgeParams fast, slow;
  fast.pair_time_s = 0.01;
  slow.pair_time_s = 0.2;
  Graph g(3);
  g.add_edge(0, 1, fast);
  g.add_edge(1, 2, fast);
  g.add_edge(0, 2, slow);
  const PathSelector lat(g, CostModel::kLatency);
  const auto path = lat.shortest(0, 2);
  ASSERT_TRUE(path.has_value());
  EXPECT_EQ(path->hops(), 2u);
  EXPECT_NEAR(PathSelector::estimated_latency_s(g, *path), 0.02, 1e-12);
  // Hop count would take the direct edge.
  const PathSelector hops(g, CostModel::kHopCount);
  EXPECT_EQ(hops.shortest(0, 2)->hops(), 1u);
}

TEST(ReservationTable, EdgeDisjointAdmission) {
  const Graph grid = Graph::grid(3, 3);
  ReservationTable table(grid);
  const PathSelector sel(grid, CostModel::kHopCount);

  const auto top = sel.shortest(0, 2);      // row 0
  const auto bottom = sel.shortest(6, 8);   // row 2
  ASSERT_TRUE(top && bottom);
  const auto t1 = table.try_reserve(top->edges);
  ASSERT_TRUE(t1.has_value());
  // Same edges again: at capacity.
  EXPECT_FALSE(table.can_reserve(top->edges));
  EXPECT_FALSE(table.try_reserve(top->edges).has_value());
  // Disjoint path: fine.
  const auto t2 = table.try_reserve(bottom->edges);
  ASSERT_TRUE(t2.has_value());
  EXPECT_EQ(table.active(), 2u);
  EXPECT_EQ(table.max_active(), 2u);

  table.release(*t1);
  EXPECT_TRUE(table.can_reserve(top->edges));
  EXPECT_EQ(table.active(), 1u);
  EXPECT_EQ(table.max_active(), 2u);
  EXPECT_THROW(table.release(*t1), std::invalid_argument);  // double free
}

TEST(ReservationTable, CapacityAboveOneAdmitsConcurrency) {
  EdgeParams wide;
  wide.capacity = 2;
  const Graph chain = Graph::chain(3, wide);
  ReservationTable table(chain);
  const std::vector<std::size_t> path{0, 1};
  const auto t1 = table.try_reserve(path);
  const auto t2 = table.try_reserve(path);
  ASSERT_TRUE(t1 && t2);
  EXPECT_EQ(table.in_use(0), 2u);
  EXPECT_FALSE(table.try_reserve(path).has_value());
  table.release(*t2);
  EXPECT_TRUE(table.try_reserve(path).has_value());
}

TEST(ReservationTable, RejectsNonSimplePaths) {
  const Graph chain = Graph::chain(3);
  ReservationTable table(chain);
  const std::vector<std::size_t> looped{0, 0, 1};
  EXPECT_THROW(table.try_reserve(looped), std::invalid_argument);
  EXPECT_THROW(table.try_reserve(std::vector<std::size_t>{}),
               std::invalid_argument);
  EXPECT_EQ(table.in_use(0), 0u);  // nothing was partially reserved
}

TEST(ReservationTable, TimeSlicedLeasesAdmitDisjointWindows) {
  const Graph chain = Graph::chain(3);
  ReservationTable table(chain);
  const std::vector<std::size_t> path{0, 1};
  using Ends = std::optional<sim::SimTime>;

  // A lease for [0, 100): the edges are busy inside the window ...
  const auto first = table.try_reserve(path, /*now=*/0, /*duration=*/100);
  ASSERT_TRUE(first.has_value());
  EXPECT_FALSE(table.can_reserve(path, 50));
  EXPECT_FALSE(table.try_reserve(path, 99, 100).has_value());
  EXPECT_EQ(table.next_expiry(), Ends(100));
  // ... and free at its end even though the holder has not released:
  // a second request sharing the edges at a disjoint time admits.
  EXPECT_TRUE(table.can_reserve(path, 100));
  const auto second = table.try_reserve(path, /*now=*/100, /*duration=*/50);
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(table.active(), 2u);  // both tickets still held
  EXPECT_EQ(table.next_expiry(), Ends(100));

  // Overrunning holders still release cleanly (their lapsed lease
  // entries are simply gone), and nothing double-frees.
  EXPECT_EQ(table.expire_until(120), 2u);  // first's two edge leases
  EXPECT_EQ(table.lease_expiries(), 2u);
  EXPECT_EQ(table.next_expiry(), Ends(150));  // second's window end
  table.release(*first);
  EXPECT_EQ(table.next_expiry(), Ends(150));
  table.release(*second);
  EXPECT_EQ(table.active(), 0u);
  EXPECT_EQ(table.in_use(0), 0u);
  EXPECT_FALSE(table.next_expiry().has_value());
  EXPECT_THROW(table.try_reserve(path, 0, 0), std::invalid_argument);
}

TEST(ReservationTable, FutureWindowBookingsBlockOverlappingAdmissions) {
  const Graph chain = Graph::chain(3);
  ReservationTable table(chain);
  const std::vector<std::size_t> path{0, 1};
  const std::vector<std::size_t> edge0{0};
  using Ends = std::optional<sim::SimTime>;

  const auto held = table.try_reserve(path, /*now=*/0, /*duration=*/100);
  ASSERT_TRUE(held.has_value());
  // The earliest whole-window slot behind a [0, 100) lease is its end.
  EXPECT_EQ(table.earliest_window(path, 0, 50), Ends(100));
  const auto booked = table.reserve_at(path, 100, 50);
  ASSERT_TRUE(booked.has_value());
  EXPECT_EQ(table.in_use(0), 2u);
  EXPECT_EQ(table.next_expiry(), Ends(100));

  // An instant admission whose window overlaps the booking is refused;
  // one fitting the gap after it admits.
  EXPECT_FALSE(table.try_reserve(edge0, 120, 50).has_value());
  EXPECT_FALSE(table.can_reserve(edge0, 120, 50));
  EXPECT_TRUE(table.can_reserve(edge0, 150, 50));
  // The next free whole-window slot is behind the booking...
  EXPECT_EQ(table.earliest_window(edge0, 0, 50), Ends(150));
  // ...but a shorter window still fits the gap in front of nothing: a
  // booking starting at the lease end leaves no gap on this edge, so
  // the earliest 1-tick slot after `now`=100 is also 150.
  EXPECT_EQ(table.earliest_window(edge0, 100, 1), Ends(150));

  // Unbounded pins never free a window, and never expire.
  const auto pin = table.try_reserve(edge0, 150);
  ASSERT_TRUE(pin.has_value());
  EXPECT_FALSE(table.earliest_window(edge0, 150, 10).has_value());
  EXPECT_EQ(table.next_expiry(), Ends(100));

  table.release(*held);
  EXPECT_EQ(table.next_expiry(), Ends(150));  // the booking's end
  table.release(*booked);
  EXPECT_FALSE(table.next_expiry().has_value());  // only the pin left
  table.release(*pin);
  EXPECT_FALSE(table.next_expiry().has_value());
  EXPECT_THROW(table.reserve_at(path, -1, 10), std::invalid_argument);
}

TEST(ReservationTable, GreedyDrainCountsQueueJumps) {
  // C (older, wants edges {0, 1}) blocks on edge 1; D (younger, wants
  // {0}) admits the freed edge 0 under the greedy policy — a counted
  // queue jump, and a batch admission past the blocked elder.
  const Graph chain = Graph::chain(3);
  ReservationTable table(chain);
  const auto hold0 = table.try_reserve(std::vector<std::size_t>{0}, 0, 50);
  const auto hold1 = table.try_reserve(std::vector<std::size_t>{1}, 0, 100);
  ASSERT_TRUE(hold0 && hold1);

  std::vector<char> admitted;
  const auto want = [&table, &admitted](char name,
                                        std::vector<std::size_t> edges) {
    table.enqueue_blocked(
        [&table, &admitted, edges, name] {
          const auto t = table.try_reserve(edges, 50, 1000);
          if (!t) return false;
          admitted.push_back(name);
          return true;
        },
        edges);
  };
  want('C', {0, 1});
  want('D', {0});

  EXPECT_EQ(table.expire_until(50), 1u);  // edge 0 frees; edge 1 busy
  EXPECT_EQ(admitted, (std::vector<char>{'D'}));
  EXPECT_EQ(table.steals(), 1u);
  EXPECT_EQ(table.batch_admits(), 1u);
  EXPECT_EQ(table.hol_holds(), 0u);
  EXPECT_EQ(table.blocked(), 1u);  // C still parked
}

TEST(ReservationTable, PerEdgeFifoDrainHoldsConflictsAdmitsDisjoint) {
  // Same shape under the batch policy, plus a disjoint E: D is held
  // back (it shares edge 0 with the still-blocked elder C), while E
  // (edge 2, disjoint) admits in the same wakeup.
  const Graph chain = Graph::chain(4);
  ReservationTable table(chain);
  table.set_drain_policy(DrainPolicy::kPerEdgeFifo);
  const auto hold0 = table.try_reserve(std::vector<std::size_t>{0}, 0, 50);
  const auto hold1 = table.try_reserve(std::vector<std::size_t>{1}, 0, 100);
  const auto hold2 = table.try_reserve(std::vector<std::size_t>{2}, 0, 50);
  ASSERT_TRUE(hold0 && hold1 && hold2);

  std::vector<char> admitted;
  ReservationTable::Ticket got_c = 0;
  const auto want = [&table, &admitted, &got_c](
                        char name, std::vector<std::size_t> edges) {
    table.enqueue_blocked(
        [&table, &admitted, &got_c, edges, name] {
          const auto t = table.try_reserve(edges, 50, 1000);
          if (!t) return false;
          admitted.push_back(name);
          if (name == 'C') got_c = *t;
          return true;
        },
        edges);
  };
  want('C', {0, 1});
  want('D', {0});
  want('E', {2});

  EXPECT_EQ(table.expire_until(50), 2u);  // edges 0 and 2 free
  // D was withheld (conflict with C); E admitted batch-style.
  EXPECT_EQ(admitted, (std::vector<char>{'E'}));
  EXPECT_EQ(table.hol_holds(), 1u);
  EXPECT_EQ(table.steals(), 0u);
  EXPECT_EQ(table.batch_admits(), 1u);
  EXPECT_EQ(table.blocked(), 2u);

  // When edge 1 frees, FIFO within the conflicting set resumes: C
  // admits first, D queues behind C's fresh lease on edge 0.
  table.release(*hold1);
  EXPECT_EQ(admitted, (std::vector<char>{'E', 'C'}));
  EXPECT_EQ(table.blocked(), 1u);
  table.release(got_c);
  EXPECT_EQ(admitted, (std::vector<char>{'E', 'C', 'D'}));
  EXPECT_EQ(table.blocked(), 0u);
}

TEST(ReservationTable, FreshReservationOverBlockedFootprintCountsSteal) {
  const Graph chain = Graph::chain(4);
  ReservationTable table(chain);
  const auto hold1 = table.try_reserve(std::vector<std::size_t>{1});
  ASSERT_TRUE(hold1.has_value());
  table.enqueue_blocked([] { return false; },
                        std::vector<std::size_t>{0, 1});
  EXPECT_THROW(table.enqueue_blocked([] { return false; },
                                     std::vector<std::size_t>{2, 99}),
               std::invalid_argument);
  EXPECT_EQ(table.blocked(), 1u);
  // A fresh out-of-queue admission touching the blocked footprint is a
  // queue jump; a disjoint one is not.
  const auto jump = table.try_reserve(std::vector<std::size_t>{0});
  ASSERT_TRUE(jump.has_value());
  EXPECT_EQ(table.steals(), 1u);
  const auto clean = table.try_reserve(std::vector<std::size_t>{2});
  ASSERT_TRUE(clean.has_value());
  EXPECT_EQ(table.steals(), 1u);
  // Booked future windows are scheduler promises, not jumps.
  table.release(*jump);
  const auto booked = table.reserve_at(std::vector<std::size_t>{0}, 10, 10);
  ASSERT_TRUE(booked.has_value());
  EXPECT_EQ(table.steals(), 1u);
}

TEST(ReservationTable, ExpiryRetriesBlockedQueue) {
  const Graph chain = Graph::chain(2);
  ReservationTable table(chain);
  const std::vector<std::size_t> path{0};
  const auto held = table.try_reserve(path, 0, 100);
  ASSERT_TRUE(held.has_value());
  ASSERT_EQ(table.next_expiry(), std::optional<sim::SimTime>(100));

  int admitted = 0;
  table.enqueue_blocked([&table, &admitted, path] {
    const auto t = table.try_reserve(path, 100, 100);
    if (!t) return false;
    ++admitted;
    return true;
  });
  EXPECT_EQ(admitted, 0);
  // The lease lapse alone — no release — wakes the blocked request.
  EXPECT_EQ(table.expire_until(100), 1u);
  EXPECT_EQ(admitted, 1);
  EXPECT_EQ(table.blocked(), 0u);
  EXPECT_EQ(table.next_expiry(), std::optional<sim::SimTime>(200));
  table.release(*held);  // lapsed but still held: release is fine
}

TEST(ReservationTable, BlockedRetryOrderSurvivesMixedWakeups) {
  // Regression: the old pop-front/push-back rotation left the queue
  // mid-rotation when a retry threw, so a later request could jump an
  // earlier one across mixed release/expiry wakeups. Pin the FIFO
  // order: A (wants edge 0), B (throws once), C (wants edge 0) must
  // admit as A-then-C no matter how the wakeups interleave.
  const Graph chain = Graph::chain(3);
  ReservationTable table(chain);
  const std::vector<std::size_t> edge0{0};
  const std::vector<std::size_t> edge1{1};
  const auto hold0 = table.try_reserve(edge0, 0, 100);   // lapses at 100
  const auto hold1 = table.try_reserve(edge1);           // pinned
  ASSERT_TRUE(hold0 && hold1);

  std::vector<char> admitted;
  sim::SimTime now = 0;
  const auto want_edge0 = [&table, &admitted, &now, edge0](char name) {
    return [&table, &admitted, &now, edge0, name] {
      const auto t = table.try_reserve(edge0, now, 1000);
      if (!t) return false;
      admitted.push_back(name);
      return true;
    };
  };
  bool threw = false;
  table.enqueue_blocked(want_edge0('A'));
  table.enqueue_blocked([&threw]() -> bool {
    if (!threw) {
      threw = true;
      throw std::runtime_error("poisoned retry");
    }
    return true;  // leaves the queue if ever retried again
  });
  table.enqueue_blocked(want_edge0('C'));

  // Wakeup 1 is a *release* (edge 1): A retries first but edge 0 is
  // still leased, B throws. C must stay behind A.
  EXPECT_THROW(table.release(*hold1), std::runtime_error);
  EXPECT_TRUE(admitted.empty());
  EXPECT_EQ(table.blocked(), 2u);

  // Wakeup 2 is a *lease expiry* (edge 0 lapses at t = 100): exactly
  // the older request A admits; C queues behind A's fresh lease.
  now = 100;
  EXPECT_EQ(table.expire_until(100), 1u);
  EXPECT_EQ(admitted, (std::vector<char>{'A'}));
  EXPECT_EQ(table.blocked(), 1u);

  // Wakeup 3, expiry again (A's lease ends at 1100): C's turn.
  now = 1100;
  table.expire_until(1100);
  EXPECT_EQ(admitted, (std::vector<char>{'A', 'C'}));
  EXPECT_EQ(table.blocked(), 0u);
}

TEST(ReservationTable, BlockedRequestsRetryOnRelease) {
  const Graph chain = Graph::chain(3);
  ReservationTable table(chain);
  const std::vector<std::size_t> path{0, 1};
  auto held = table.try_reserve(path);
  ASSERT_TRUE(held.has_value());

  // Two blocked requests in FIFO order; both want the same path, so
  // one release admits exactly the first.
  std::vector<int> admitted;
  ReservationTable::Ticket got = 0;
  for (int id : {1, 2}) {
    table.enqueue_blocked([&table, &admitted, &got, path, id] {
      const auto t = table.try_reserve(path);
      if (!t) return false;
      admitted.push_back(id);
      got = *t;
      return true;
    });
  }
  EXPECT_EQ(table.blocked(), 2u);
  EXPECT_TRUE(admitted.empty());  // nothing retries until a release

  table.release(*held);
  ASSERT_EQ(admitted, (std::vector<int>{1}));
  EXPECT_EQ(table.blocked(), 1u);

  table.release(got);
  EXPECT_EQ(admitted, (std::vector<int>{1, 2}));
  EXPECT_EQ(table.blocked(), 0u);
}

/// Admission order and drain counters of a seeded 240-entry blocked
/// queue on a 5x5 grid, driven by releases, lease expiries, mid-run
/// arrivals and out-of-queue reservations.
struct DrainRun {
  std::uint64_t order = 0xcbf29ce484222325ULL;  // FNV-1a of admitted ids
  std::size_t admitted = 0;
  std::size_t still_blocked = 0;
  std::uint64_t steals = 0;
  std::uint64_t hol_holds = 0;
  std::uint64_t batch_admits = 0;
};

DrainRun run_seeded_drain(DrainPolicy policy) {
  const Graph grid = Graph::grid(5, 5);  // 40 edges
  ReservationTable table(grid);
  table.set_drain_policy(policy);
  std::mt19937_64 rng(424242);
  const auto pick = [&rng](std::uint64_t n) { return rng() % n; };
  const auto footprint = [&] {
    std::vector<std::size_t> edges;
    const std::size_t len = 1 + pick(4);
    while (edges.size() < len) {
      const std::size_t e = pick(grid.num_edges());
      if (std::find(edges.begin(), edges.end(), e) == edges.end()) {
        edges.push_back(e);
      }
    }
    return edges;
  };

  DrainRun run;
  sim::SimTime now = 0;
  std::vector<ReservationTable::Ticket> held;
  // Every edge starts leased for a seeded window; a few are pinned.
  for (std::size_t e = 0; e < grid.num_edges(); ++e) {
    const std::vector<std::size_t> one{e};
    const auto t = e % 13 == 0
                       ? table.try_reserve(one, 0)
                       : table.try_reserve(one, 0, 20 + pick(200));
    held.push_back(*t);
  }
  int next_id = 0;
  const auto enqueue = [&] {
    const int id = next_id++;
    std::vector<std::size_t> edges = footprint();
    const sim::SimTime duration = 5 + pick(60);
    // Every seventh entry declares no footprint (opts out of ordering).
    std::vector<std::size_t> declared =
        id % 7 == 0 ? std::vector<std::size_t>{} : edges;
    table.enqueue_blocked(
        [&table, &now, &held, &run, edges, duration, id] {
          const auto t = table.try_reserve(edges, now, duration);
          if (!t) return false;
          held.push_back(*t);
          ++run.admitted;
          for (int i = 0; i < 4; ++i) {
            run.order ^= (static_cast<std::uint64_t>(id) >> (8 * i)) & 0xffU;
            run.order *= 0x100000001b3ULL;
          }
          return true;
        },
        std::move(declared));
  };
  for (int i = 0; i < 200; ++i) enqueue();

  for (int step = 0; step < 400; ++step) {
    now += 1 + static_cast<sim::SimTime>(pick(8));
    switch (pick(4)) {
      case 0:
        if (!held.empty()) {
          const std::size_t i = pick(held.size());
          const ReservationTable::Ticket t = held[i];
          held.erase(held.begin() + static_cast<std::ptrdiff_t>(i));
          table.release(t, now);
        }
        break;
      case 1:
        if (next_id < 240) enqueue();
        break;
      case 2: {
        const auto t = table.try_reserve(footprint(), now, 5 + pick(30));
        if (t) held.push_back(*t);
        break;
      }
      default:
        table.expire_until(now);
        break;
    }
  }
  run.still_blocked = table.blocked();
  run.steals = table.steals();
  run.hol_holds = table.hol_holds();
  run.batch_admits = table.batch_admits();
  return run;
}

TEST(ReservationTable, SeededDrainCountersArePinnedForBothPolicies) {
  // Captured from the linear-scan drain; any faster bookkeeping must
  // admit the same requests in the same order and count the same
  // steals, holds and batch admissions.
  const DrainRun greedy = run_seeded_drain(DrainPolicy::kGreedy);
  EXPECT_EQ(greedy.order, 0xb814f525d2715a9cULL);
  EXPECT_EQ(greedy.admitted, 191u);
  EXPECT_EQ(greedy.still_blocked, 49u);
  EXPECT_EQ(greedy.steals, 195u);
  EXPECT_EQ(greedy.hol_holds, 0u);
  EXPECT_EQ(greedy.batch_admits, 189u);

  const DrainRun fifo = run_seeded_drain(DrainPolicy::kPerEdgeFifo);
  EXPECT_EQ(fifo.order, 0x7011a10c36e67040ULL);
  EXPECT_EQ(fifo.admitted, 40u);
  EXPECT_EQ(fifo.still_blocked, 200u);
  EXPECT_EQ(fifo.steals, 76u);
  EXPECT_EQ(fifo.hol_holds, 29618u);
  EXPECT_EQ(fifo.batch_admits, 37u);
}

}  // namespace
}  // namespace qlink::routing
