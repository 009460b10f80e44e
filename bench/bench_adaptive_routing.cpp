// Adaptive re-routing bench (ISSUE 4): static vs adaptive routing on a
// degraded-edge grid, with time-sliced reservation leases.
//
// The topology is an R x C grid whose row corridors are the hop-count
// shortest routes between each row's west and east ends. Every row but
// the last has its middle corridor edge degraded to badly
// distinguishable photons (herald visibility 0.25): a CREATE at the
// 0.7 fidelity floor is infeasible there, so any route crossing it
// fails with UNSUPP. One request per row (west -> east) is submitted
// under the hop-count cost model — which happily walks into the
// degraded corridors.
//
//  static    max_reroutes = 0 (the PR-3 router): every request whose
//            corridor is degraded fails; only the clean last row
//            completes.
//  adaptive  max_reroutes > 0: each failure adds the failing edge to
//            the request's exclusion set and resubmits over a sibling
//            candidate. Requests discover the degraded middle column
//            edge by edge and converge on the clean last row, sharing
//            its edges under time-sliced leases (blocked requests
//            retry on lease expiry, not only on release).
//
// The JSON records both modes plus adaptive_completion_gain /
// adaptive_fidelity_sum_gain; CI's bench_diff gate requires the
// completion gain to stay strictly positive.
//
// Usage: bench_adaptive_routing [--rows R] [--cols C] [--pairs P]
//          [--reroutes N] [--lease-slack S] [--cap-seconds S]
//          [--backend dense|bell] [--seed K] [--json PATH|-]

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "netlayer/swap_service.hpp"
#include "netlayer/topology.hpp"
#include "qstate/backend_registry.hpp"
#include "routing/router.hpp"

using namespace qlink;
using namespace qlink::bench;

namespace {

struct Options {
  std::size_t rows = 4;
  std::size_t cols = 4;
  std::uint16_t pairs = 1;
  std::size_t reroutes = 4;
  double lease_slack = 2.0;
  double cap_seconds = 120.0;
  qstate::BackendKind backend = qstate::BackendKind::kBellDiagonal;
  std::uint64_t seed = 7;
  std::string json_path = "BENCH_adaptive_routing.json";
};

struct Row {
  const char* mode = "static";
  std::size_t reroute_budget = 0;
  const char* backend = "bell-diagonal";
  std::size_t nodes = 0;
  std::size_t links = 0;
  std::uint64_t submitted = 0;
  std::uint64_t admitted = 0;
  std::uint64_t blocked = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::uint64_t rerouted = 0;
  std::uint64_t abandoned = 0;
  std::uint64_t delivered = 0;
  std::uint64_t lease_expiries = 0;
  double completion_rate = 0.0;
  double mean_fidelity = 0.0;
  double fidelity_sum = 0.0;
  double mean_route_hops = 0.0;
  double sim_seconds = 0.0;
  double wall_seconds = 0.0;
  std::uint64_t events = 0;
};

double wall_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// One full scenario run at the given reroute budget.
Row run_mode(const Options& opt, const char* mode, std::size_t reroutes) {
  routing::Graph grid = routing::Graph::grid(opt.rows, opt.cols);
  // The middle corridor edge of every row but the last: between columns
  // mid and mid + 1.
  const std::size_t mid = (opt.cols - 1) / 2;
  std::vector<std::size_t> degraded;
  for (std::size_t r = 0; r + 1 < opt.rows; ++r) {
    const auto a = static_cast<std::uint32_t>(r * opt.cols + mid);
    const auto b = static_cast<std::uint32_t>(r * opt.cols + mid + 1);
    degraded.push_back(grid.find_edge(a, b));
  }
  const auto is_degraded = [&degraded](std::size_t link) {
    for (const std::size_t d : degraded) {
      if (d == link) return true;
    }
    return false;
  };

  netlayer::NetworkConfig nc = routing::make_network_config(
      grid, core::LinkConfig{}, opt.seed);
  nc.link.backend = opt.backend;
  nc.link.pauli_twirl_installs =
      opt.backend == qstate::BackendKind::kBellDiagonal;
  nc.link.scenario = hw::ScenarioParams::lab();
  // Decoherence-protected carbon memory ([82]): re-routed corridors run
  // up to ~2 R + C hops and wait for their slowest link.
  nc.link.scenario.nv.carbon_t2_ns = 5e9;
  nc.link.scenario.nv.carbon_coupling_rad_per_s /= 10.0;
  nc.configure_link = [is_degraded](std::size_t link,
                                    core::LinkConfig& lc) {
    // Badly distinguishable photons: a 0.7 CREATE floor is infeasible.
    if (is_degraded(link)) lc.scenario.herald.visibility = 0.25;
  };
  const auto net = std::make_unique<netlayer::QuantumNetwork>(nc);
  metrics::Collector collector;
  const auto swap =
      std::make_unique<netlayer::SwapService>(*net, &collector);

  routing::RouterConfig rc;
  rc.cost = routing::CostModel::kHopCount;
  rc.k_candidates = 4;
  rc.max_reroutes = reroutes;
  rc.lease_slack = opt.lease_slack;
  routing::Router router(grid, *swap, rc, &collector);
  const double menu[] = {0.7};
  router.annotate_from_network(menu);

  router.set_deliver_handler(
      [&swap](const netlayer::E2eOk& ok) { swap->release(ok); });

  net->start();
  for (std::size_t r = 0; r < opt.rows; ++r) {
    netlayer::E2eRequest req;
    req.src = static_cast<std::uint32_t>(r * opt.cols);
    req.dst = static_cast<std::uint32_t>(r * opt.cols + opt.cols - 1);
    req.num_pairs = opt.pairs;
    req.min_fidelity = 0.25;
    // Every hop's CREATE carries the 0.7 floor (annotated links agree;
    // a degraded link cannot support it and errors with UNSUPP).
    req.link_min_fidelity = 0.7;
    router.submit(req);
  }

  const auto start = std::chrono::steady_clock::now();
  const auto& stats = router.stats();
  while (stats.completed + stats.failed < opt.rows &&
         sim::to_seconds(net->simulator().now()) < opt.cap_seconds) {
    net->run_for(sim::duration::milliseconds(10));
  }

  const auto& nl = collector.kind(core::Priority::kNetworkLayer);
  Row row;
  row.mode = mode;
  row.reroute_budget = reroutes;
  row.backend = net->registry().backend().name();
  row.nodes = net->num_nodes();
  row.links = net->num_links();
  row.submitted = stats.submitted;
  row.admitted = stats.admitted;
  row.blocked = stats.blocked;
  row.completed = stats.completed;
  row.failed = stats.failed;
  row.rerouted = stats.rerouted;
  row.abandoned = stats.abandoned;
  row.delivered = stats.pairs_delivered;
  row.lease_expiries = router.reservations().lease_expiries();
  row.completion_rate = static_cast<double>(stats.completed) /
                        static_cast<double>(opt.rows);
  row.mean_fidelity = nl.fidelity.mean();
  row.fidelity_sum =
      nl.fidelity.mean() * static_cast<double>(nl.fidelity.count());
  row.mean_route_hops = collector.route_length().mean();
  row.sim_seconds = sim::to_seconds(net->simulator().now());
  row.wall_seconds = wall_since(start);
  row.events = net->simulator().events_processed();
  return row;
}

void print_row(const Row& r) {
  std::printf(
      "%-8s %6zu %4llu %4llu %5llu %5llu %5llu %6llu %5llu %6llu %9.4f "
      "%8.2f %8.2f %10.0f\n",
      r.mode, r.reroute_budget,
      static_cast<unsigned long long>(r.submitted),
      static_cast<unsigned long long>(r.completed),
      static_cast<unsigned long long>(r.failed),
      static_cast<unsigned long long>(r.rerouted),
      static_cast<unsigned long long>(r.abandoned),
      static_cast<unsigned long long>(r.blocked),
      static_cast<unsigned long long>(r.delivered),
      static_cast<unsigned long long>(r.lease_expiries), r.mean_fidelity,
      r.sim_seconds, r.wall_seconds,
      r.wall_seconds > 0.0 ? static_cast<double>(r.events) / r.wall_seconds
                           : 0.0);
}

void write_json(const std::string& path, const Row& st, const Row& ad,
                const Options& opt) {
  if (path == "-") return;
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
    return;
  }
  const auto row = [f](const Row& r, const char* tail) {
    std::fprintf(
        f,
        "    {\"mode\": \"%s\", \"reroute_budget\": %zu, \"backend\": "
        "\"%s\", \"nodes\": %zu, \"links\": %zu, \"submitted\": %llu, "
        "\"admitted\": %llu, \"blocked\": %llu, \"completed\": %llu, "
        "\"failed\": %llu, \"rerouted\": %llu, \"abandoned\": %llu, "
        "\"delivered\": %llu, \"lease_expiries\": %llu, "
        "\"completion_rate\": %.6f, \"mean_fidelity\": %.6f, "
        "\"fidelity_sum\": %.6f, \"mean_route_hops\": %.3f, "
        "\"sim_seconds\": %.3f, \"wall_seconds\": %.4f, \"events\": "
        "%llu, \"events_per_sec\": %.1f}%s\n",
        r.mode, r.reroute_budget, r.backend, r.nodes, r.links,
        static_cast<unsigned long long>(r.submitted),
        static_cast<unsigned long long>(r.admitted),
        static_cast<unsigned long long>(r.blocked),
        static_cast<unsigned long long>(r.completed),
        static_cast<unsigned long long>(r.failed),
        static_cast<unsigned long long>(r.rerouted),
        static_cast<unsigned long long>(r.abandoned),
        static_cast<unsigned long long>(r.delivered),
        static_cast<unsigned long long>(r.lease_expiries),
        r.completion_rate, r.mean_fidelity, r.fidelity_sum,
        r.mean_route_hops, r.sim_seconds, r.wall_seconds,
        static_cast<unsigned long long>(r.events),
        r.wall_seconds > 0.0
            ? static_cast<double>(r.events) / r.wall_seconds
            : 0.0,
        tail);
  };
  std::fprintf(f,
               "{\n  \"bench\": \"adaptive_routing\",\n  \"topology\": "
               "\"grid%zux%zu-degraded-mid-column\",\n  \"rows\": [\n",
               opt.rows, opt.cols);
  row(st, ",");
  row(ad, "");
  std::fprintf(f,
               "  ],\n  \"adaptive_completion_gain\": %.6f,\n"
               "  \"adaptive_fidelity_sum_gain\": %.6f\n}\n",
               ad.completion_rate - st.completion_rate,
               ad.fidelity_sum - st.fidelity_sum);
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
}

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--rows R] [--cols C] [--pairs P] "
               "[--reroutes N] [--lease-slack S] [--cap-seconds S] "
               "[--backend dense|bell] %s\n",
               argv0, qlink::bench::Args::kUsage);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  bench::Args shared;
  shared.seed = opt.seed;
  shared.json_path = opt.json_path;
  for (int i = 1; i < argc; ++i) {
    if (shared.consume(argc, argv, i, [&] { usage(argv[0]); })) continue;
    const auto arg = std::string(argv[i]);
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    if (arg == "--rows") {
      opt.rows = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--cols") {
      opt.cols = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--pairs") {
      opt.pairs = static_cast<std::uint16_t>(
          std::strtoul(next(), nullptr, 10));
    } else if (arg == "--reroutes") {
      opt.reroutes = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--lease-slack") {
      opt.lease_slack = std::strtod(next(), nullptr);
    } else if (arg == "--cap-seconds") {
      opt.cap_seconds = std::strtod(next(), nullptr);
    } else if (arg == "--backend") {
      const auto kind = qstate::parse_backend_kind(next());
      if (!kind) usage(argv[0]);
      opt.backend = *kind;
    } else {
      usage(argv[0]);
    }
  }
  opt.seed = shared.seed;
  opt.json_path = shared.json_path;
  if (opt.rows < 2 || opt.cols < 3 || opt.pairs < 1 ||
      opt.reroutes < 1 || opt.cap_seconds <= 0.0) {
    std::fprintf(stderr,
                 "need rows >= 2 (one clean row), cols >= 3 (a middle "
                 "edge to degrade), pairs/reroutes >= 1, positive "
                 "cap-seconds\n");
    usage(argv[0]);
  }

  print_header(
      "Adaptive re-routing: exclusion-set retries + time-sliced leases "
      "on a degraded-edge grid");
  std::printf("%zux%zu grid, %zu requests (one per row), %u pair(s) "
              "each, degraded middle column in all but the last row\n\n",
              opt.rows, opt.cols, opt.rows, opt.pairs);
  std::printf("%-8s %6s %4s %4s %5s %5s %5s %6s %5s %6s %9s %8s %8s "
              "%10s\n",
              "mode", "budget", "subm", "done", "fail", "rert", "aban",
              "blckd", "pairs", "expry", "fidelity", "sim(s)", "wall(s)",
              "events/s");

  const Row st = run_mode(opt, "static", 0);
  print_row(st);
  const Row ad = run_mode(opt, "adaptive", opt.reroutes);
  print_row(ad);

  std::printf("\n  -> adaptive re-routing: completion rate %.3f vs "
              "%.3f static (gain %+.3f), delivered fidelity sum %.3f "
              "vs %.3f (gain %+.3f)\n",
              ad.completion_rate, st.completion_rate,
              ad.completion_rate - st.completion_rate, ad.fidelity_sum,
              st.fidelity_sum, ad.fidelity_sum - st.fidelity_sum);
  write_json(opt.json_path, st, ad, opt);

  // The bench's own acceptance bar (also enforced by CI's bench_diff
  // gate on the JSON): adaptive must strictly beat static on
  // completion rate.
  return ad.completion_rate > st.completion_rate ? 0 : 1;
}
