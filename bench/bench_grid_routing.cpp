// General-graph routing bench (ISSUE 3): end-to-end entanglement on
// grid and dragonfly topologies through the routing subsystem
// (routing::Graph + PathSelector + ReservationTable + Router).
//
// Three scenarios, all on one binary:
//
//  grid       An 8x8 grid (64 nodes, 112 links, default size) runs 8
//             end-to-end requests concurrently, pinned to the 8
//             edge-disjoint row corridors (7 hops each). Exercises
//             admission at scale: all requests hold reservations at
//             once (max_concurrent == 8) and every one completes.
//  dragonfly  dragonfly(4 groups x 4 routers): multi-pair random
//             traffic through the routed WorkloadDriver mode; blocked
//             requests queue behind the reservation table and retry.
//  hetero     A 3x3 grid whose hop-count-preferred corner-to-corner
//             staircase (0-1-2-5-8) is degraded hardware (herald
//             visibility 0.25, only a 0.6 CREATE floor is feasible),
//             while the rest runs clean at 0.8. The same multi-pair
//             request is routed once under the hop-count cost model
//             (which walks into the degraded corridor) and once under
//             the fidelity model (which pays the same hop count for
//             the clean detour annotated from each link's FEU). The
//             JSON records both mean delivered fidelities and the gain.
//
// Usage: bench_grid_routing [--scenario all|grid|dragonfly|hetero]
//          [--rows R] [--cols C] [--requests N] [--pairs P]
//          [--seconds S] [--cap-seconds S] [--backend dense|bell]
//          [--seed K] [--json PATH|-] [--trace PATH] [--monitor PATH]
//          [--netstate PATH] [--report PATH]
//   --seconds bounds the dragonfly traffic run (default 2 simulated s);
//   --cap-seconds bounds the grid/hetero request-completion scenarios
//   (default 60 simulated s — they normally finish far earlier).
//   --json writes machine-readable results (default
//   BENCH_grid_routing.json in the working directory; "-" disables).
//   --trace writes the grid scenario's request-lifecycle trace: Chrome
//   trace-event JSON (Perfetto-loadable) at PATH plus compact JSONL at
//   PATH.jsonl. Traces are keyed by sim time only, so two same-seed
//   runs write byte-identical files.
//   --monitor writes the grid + dragonfly scenarios' interval telemetry
//   (obs::Monitor, ISSUE 7) as JSONL at PATH, one "run"-labelled record
//   per 100 ms of sim time — validated in CI by tools/interval_check.py.
//   The monitors run regardless (they cannot perturb the trajectory);
//   their stalled_intervals / peak_backlog land in the JSON scalars.
//   --netstate writes every scenario's per-edge network-state stream
//   (obs::NetState, ISSUE 8) as "run"-labelled JSONL at PATH —
//   utilization, contention, and hot-edge records validated in CI by
//   tools/interval_check.py. Like the monitors, the samplers run
//   regardless; the run-wide max per-edge utilization lands in the
//   hot_edge_max_utilization JSON scalar (<= 1 by construction).
//   --report writes a human-readable Markdown run report at PATH: per
//   scenario, the summary counters, hottest edges, contention
//   analysis, and the latency phase decomposition (obs::report).

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "metrics/edge_stats.hpp"
#include "netlayer/swap_service.hpp"
#include "netlayer/topology.hpp"
#include "obs/monitor.hpp"
#include "obs/netstate.hpp"
#include "obs/report.hpp"
#include "obs/snapshot.hpp"
#include "obs/trace.hpp"
#include "qstate/backend_registry.hpp"
#include "routing/router.hpp"

using namespace qlink;
using namespace qlink::bench;

namespace {

struct Options {
  std::string scenario = "all";
  std::size_t rows = 8;
  std::size_t cols = 8;
  std::size_t requests = 8;
  std::uint16_t pairs = 6;
  double seconds = 2.0;
  double cap_seconds = 60.0;
  qstate::BackendKind backend = qstate::BackendKind::kBellDiagonal;
  std::uint64_t seed = 7;
  std::string json_path = "BENCH_grid_routing.json";
  std::string trace_path;    // empty = tracing off
  std::string monitor_path;  // empty = keep records in memory only
  std::string netstate_path;  // empty = keep records in memory only
  std::string report_path;    // empty = no Markdown report
};

struct Row {
  std::string scenario;
  std::string topology;
  const char* cost = "hops";
  const char* backend = "bell-diagonal";
  std::size_t nodes = 0;
  std::size_t links = 0;
  std::uint64_t submitted = 0;
  std::uint64_t admitted = 0;
  std::size_t max_concurrent = 0;
  std::uint64_t blocked = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::uint64_t delivered = 0;
  double mean_fidelity = 0.0;
  double mean_route_hops = 0.0;
  double mean_latency_ms = 0.0;
  double p50_request_latency_s = 0.0;
  double p99_request_latency_s = 0.0;
  double sim_seconds = 0.0;
  double wall_seconds = 0.0;
  std::uint64_t events = 0;
  std::string obs_json;  // merged obs::Snapshot of the run
  // Interval telemetry (ISSUE 7); monitored only on grid + dragonfly.
  bool monitored = false;
  std::uint64_t stalled_intervals = 0;
  std::uint64_t peak_backlog = 0;
  std::string monitor_jsonl;
  // Per-edge network state (ISSUE 8); sampled on every scenario.
  double max_utilization = 0.0;
  std::string netstate_jsonl;
  std::string report_md;
};

/// The shared world of one scenario run. Heap-held parts keep
/// construction order honest (network before services).
struct World {
  routing::Graph graph;
  std::unique_ptr<netlayer::QuantumNetwork> net;
  metrics::Collector collector;
  std::unique_ptr<netlayer::SwapService> swap;
  std::unique_ptr<routing::Router> router;
  std::unique_ptr<metrics::EdgeStats> edge_stats;

  World(routing::Graph g, const Options& opt, routing::CostModel cost,
        std::function<void(std::size_t, core::LinkConfig&)> configure)
      : graph(std::move(g)) {
    netlayer::NetworkConfig nc = routing::make_network_config(
        graph, core::LinkConfig{}, opt.seed);
    nc.link.backend = opt.backend;
    nc.link.pauli_twirl_installs =
        opt.backend == qstate::BackendKind::kBellDiagonal;
    nc.link.scenario = hw::ScenarioParams::lab();
    // Deep decoherence-protected carbon memory ([82]): corridors of 7
    // hops wait hundreds of ms for their slowest link.
    nc.link.scenario.nv.carbon_t2_ns = 5e9;
    nc.link.scenario.nv.carbon_coupling_rad_per_s /= 10.0;
    nc.configure_link = std::move(configure);
    net = std::make_unique<netlayer::QuantumNetwork>(nc);
    swap = std::make_unique<netlayer::SwapService>(*net, &collector);
    routing::RouterConfig rc;
    rc.cost = cost;
    rc.k_candidates = 4;
    router = std::make_unique<routing::Router>(graph, *swap, rc, &collector);
    edge_stats = std::make_unique<metrics::EdgeStats>(graph.num_edges(),
                                                      graph.num_nodes());
    router->set_edge_stats(edge_stats.get());
    // Per-label event counts for the snapshot's engine section.
    net->simulator().set_telemetry(true);
  }

  /// A per-run NetState over this world's substrate, labelled `run`.
  obs::NetState make_netstate(std::string run) const {
    obs::NetStateConfig nc;
    nc.run = std::move(run);
    obs::NetState ns(net->simulator(), *edge_stats, std::move(nc));
    ns.attach_collector(&collector);
    ns.attach_graph(&graph);
    return ns;
  }

  Row finish(const char* scenario, std::string topology,
             double wall_seconds) {
    const auto& nl = collector.kind(core::Priority::kNetworkLayer);
    Row row;
    row.scenario = scenario;
    row.topology = std::move(topology);
    row.cost = routing::cost_model_name(router->selector().model());
    row.backend = net->registry().backend().name();
    row.nodes = net->num_nodes();
    row.links = net->num_links();
    row.submitted = router->stats().submitted;
    row.admitted = router->stats().admitted;
    row.max_concurrent = router->reservations().max_active();
    row.blocked = router->stats().blocked;
    row.completed = router->stats().completed;
    row.failed = router->stats().failed;
    row.delivered = router->stats().pairs_delivered;
    row.mean_fidelity = nl.fidelity.mean();
    row.mean_route_hops = collector.route_length().mean();
    row.mean_latency_ms = nl.pair_latency_s.mean() * 1e3;
    row.p50_request_latency_s = collector.request_latency_hist().p50();
    row.p99_request_latency_s = collector.request_latency_hist().p99();
    row.sim_seconds = sim::to_seconds(net->simulator().now());
    row.wall_seconds = wall_seconds;
    row.events = net->simulator().events_processed();
    obs::Snapshot snap;
    snap.collector = &collector;
    snap.router = &router->stats();
    snap.swap = &swap->stats();
    snap.backend = &net->registry().backend().stats();
    snap.simulator = &net->simulator();
    row.obs_json = snap.json();
    obs::RunReportOptions ro;
    ro.title = std::string(scenario) + " (" + row.topology + ", " +
               row.cost + " cost)";
    row.report_md = obs::render_run_report(net->simulator(), *edge_stats,
                                           collector, &graph, ro);
    return row;
  }
};

double wall_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Grid scenario: `requests` pinned edge-disjoint row corridors, all
/// concurrent, run to completion.
Row run_grid(const Options& opt) {
  const std::size_t corridors = std::min(opt.requests, opt.rows);
  World w(routing::Graph::grid(opt.rows, opt.cols), opt,
          routing::CostModel::kHopCount, nullptr);
  const double menu[] = {0.7};
  w.router->annotate_from_network(menu);

  obs::Tracer tracer;
  if (!opt.trace_path.empty()) {
    w.router->set_tracer(&tracer);
    w.swap->set_tracer(&tracer);
  }

  obs::MonitorConfig mc;
  mc.run = "grid";
  mc.target_requests = corridors;
  if (!opt.trace_path.empty()) mc.tracer = &tracer;
  obs::Monitor monitor(w.net->simulator(), w.collector, std::move(mc));
  monitor.attach_router(w.router.get());
  obs::NetState netstate = w.make_netstate("grid");

  w.router->set_deliver_handler(
      [&w](const netlayer::E2eOk& ok) { w.swap->release(ok); });

  w.net->start();
  for (std::size_t r = 0; r < corridors; ++r) {
    netlayer::E2eRequest req;
    req.src = static_cast<std::uint32_t>(r * opt.cols);
    req.dst = static_cast<std::uint32_t>(r * opt.cols + opt.cols - 1);
    req.min_fidelity = 0.25;
    // Pin the straight row corridor: the r-th corridors are mutually
    // edge-disjoint, so all of them hold reservations at once.
    routing::Path corridor;
    for (std::size_t c = 0; c < opt.cols; ++c) {
      corridor.nodes.push_back(static_cast<std::uint32_t>(r * opt.cols + c));
      if (c + 1 < opt.cols) {
        corridor.edges.push_back(w.graph.find_edge(
            corridor.nodes.back(),
            static_cast<std::uint32_t>(r * opt.cols + c + 1)));
      }
    }
    w.router->submit_on(req, corridor);
  }

  const auto start = std::chrono::steady_clock::now();
  const auto& stats = w.router->stats();
  while (stats.completed + stats.failed < corridors &&
         sim::to_seconds(w.net->simulator().now()) < opt.cap_seconds) {
    w.net->run_for(sim::duration::milliseconds(10));
    monitor.poll();
    netstate.poll();
  }
  monitor.finish();
  netstate.finish();

  if (!opt.trace_path.empty()) {
    std::FILE* f = std::fopen(opt.trace_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "warning: cannot write %s\n",
                   opt.trace_path.c_str());
    } else {
      tracer.write_chrome_json(f);
      std::fclose(f);
      const std::string jsonl_path = opt.trace_path + ".jsonl";
      f = std::fopen(jsonl_path.c_str(), "w");
      if (f != nullptr) {
        tracer.write_jsonl(f);
        std::fclose(f);
      }
      std::printf("wrote %s (+ .jsonl), %zu events\n",
                  opt.trace_path.c_str(), tracer.num_events());
    }
  }
  Row row = w.finish(
      "grid", std::to_string(opt.rows) + "x" + std::to_string(opt.cols),
      wall_since(start));
  row.monitored = true;
  row.stalled_intervals = monitor.stalled_intervals();
  row.peak_backlog = monitor.peak_backlog();
  row.monitor_jsonl = monitor.jsonl();
  row.max_utilization = netstate.max_utilization();
  row.netstate_jsonl = netstate.jsonl();
  return row;
}

/// Dragonfly scenario: random multi-pair routed traffic for a fixed
/// span of simulated time.
Row run_dragonfly(const Options& opt) {
  World w(routing::Graph::dragonfly(4, 4), opt,
          routing::CostModel::kHopCount, nullptr);
  const double menu[] = {0.7};
  w.router->annotate_from_network(menu);

  workload::WorkloadConfig wl;
  wl.nl = {0.9, 2};
  wl.origin = workload::OriginMode::kRandom;
  wl.min_fidelity = 0.5;
  wl.seed = opt.seed;
  auto driver_ptr = workload::WorkloadDriver::for_routed(
      *w.router, wl.traffic(), wl.tuning(), w.collector);
  workload::WorkloadDriver& driver = *driver_ptr;

  obs::MonitorConfig mc;
  mc.run = "dragonfly";
  // Random traffic legitimately has quiet 100 ms intervals with a
  // blocked request in the queue; only a sustained run is a stall.
  mc.stall_consecutive = 3;
  obs::Monitor monitor(w.net->simulator(), w.collector, std::move(mc));
  monitor.attach_router(w.router.get());
  driver.set_monitor(&monitor);
  obs::NetState netstate = w.make_netstate("dragonfly");
  driver.set_netstate(&netstate);

  const auto start = std::chrono::steady_clock::now();
  w.net->start();
  driver.start();
  w.net->run_for(sim::duration::seconds(opt.seconds));
  driver.stop();
  monitor.finish();
  netstate.finish();
  Row row = w.finish("dragonfly", "dragonfly4x4", wall_since(start));
  row.monitored = true;
  row.stalled_intervals = monitor.stalled_intervals();
  row.peak_backlog = monitor.peak_backlog();
  row.monitor_jsonl = monitor.jsonl();
  row.max_utilization = netstate.max_utilization();
  row.netstate_jsonl = netstate.jsonl();
  return row;
}

/// Heterogeneous scenario: corner-to-corner multi-pair request on a
/// 3x3 grid whose hop-count-preferred staircase is degraded hardware.
Row run_hetero(const Options& opt, routing::CostModel cost) {
  routing::Graph grid = routing::Graph::grid(3, 3);
  // The staircase the hop-count tie-break walks from 0 to 8.
  std::vector<std::size_t> degraded;
  for (const auto [a, b] :
       {std::pair{0u, 1u}, {1u, 2u}, {2u, 5u}, {5u, 8u}}) {
    degraded.push_back(grid.find_edge(a, b));
  }
  const auto is_degraded = [degraded](std::size_t link) {
    for (const std::size_t d : degraded) {
      if (d == link) return true;
    }
    return false;
  };
  World w(std::move(grid), opt, cost,
          [is_degraded](std::size_t link, core::LinkConfig& lc) {
            // Badly distinguishable photons: the herald's post-state
            // cannot support a high CREATE floor.
            if (is_degraded(link)) lc.scenario.herald.visibility = 0.25;
          });
  // Operate every link at the best feasible quality set-point: clean
  // links land at 0.8, the degraded staircase only supports 0.6.
  const double menu[] = {0.8, 0.7, 0.6};
  w.router->annotate_from_network(menu);

  w.router->set_deliver_handler(
      [&w](const netlayer::E2eOk& ok) { w.swap->release(ok); });

  obs::NetState netstate = w.make_netstate(
      cost == routing::CostModel::kHopCount ? "hetero-hops"
                                            : "hetero-fidelity");

  netlayer::E2eRequest req;
  req.src = 0;
  req.dst = 8;
  req.num_pairs = opt.pairs;
  req.min_fidelity = 0.25;

  const auto start = std::chrono::steady_clock::now();
  w.net->start();
  w.router->submit(req);
  const auto& stats = w.router->stats();
  while (stats.completed + stats.failed < 1 &&
         sim::to_seconds(w.net->simulator().now()) < opt.cap_seconds) {
    w.net->run_for(sim::duration::milliseconds(10));
    netstate.poll();
  }
  netstate.finish();
  Row row = w.finish("hetero", "grid3x3-degraded-staircase",
                     wall_since(start));
  row.max_utilization = netstate.max_utilization();
  row.netstate_jsonl = netstate.jsonl();
  return row;
}

void print_row(const Row& r) {
  std::printf(
      "%-10s %-24s %-8s %3zu/%3zu %4llu %4llu %7zu %5llu %5llu %9.4f "
      "%7.1f %8.2f %8.2f %10.0f\n",
      r.scenario.c_str(), r.topology.c_str(), r.cost, r.nodes, r.links,
      static_cast<unsigned long long>(r.submitted),
      static_cast<unsigned long long>(r.completed), r.max_concurrent,
      static_cast<unsigned long long>(r.blocked),
      static_cast<unsigned long long>(r.delivered), r.mean_fidelity,
      r.mean_latency_ms, r.sim_seconds, r.wall_seconds,
      static_cast<double>(r.events) / r.wall_seconds);
}

void write_json(const std::string& path, const std::vector<Row>& rows,
                bool hetero_ran, double fidelity_gain) {
  if (path == "-") return;
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"grid_routing\",\n  \"rows\": [\n");
  std::uint64_t stalled_total = 0;
  std::uint64_t peak_backlog = 0;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    // Interval-telemetry scalars only on monitored rows (grid and
    // dragonfly); hetero rows have no monitor and omit them.
    char mon_fields[96] = "";
    if (r.monitored) {
      stalled_total += r.stalled_intervals;
      peak_backlog = std::max(peak_backlog, r.peak_backlog);
      std::snprintf(mon_fields, sizeof(mon_fields),
                    "\"stalled_intervals\": %llu, \"peak_backlog\": "
                    "%llu, ",
                    static_cast<unsigned long long>(r.stalled_intervals),
                    static_cast<unsigned long long>(r.peak_backlog));
    }
    std::fprintf(
        f,
        "    {\"scenario\": \"%s\", \"topology\": \"%s\", \"cost\": "
        "\"%s\", \"backend\": \"%s\", \"nodes\": %zu, \"links\": %zu, "
        "\"submitted\": %llu, \"admitted\": %llu, \"max_concurrent\": "
        "%zu, \"blocked\": %llu, \"completed\": %llu, \"failed\": %llu, "
        "\"delivered\": %llu, \"mean_fidelity\": %.6f, "
        "\"mean_route_hops\": %.3f, \"mean_latency_ms\": %.3f, "
        "\"p50_request_latency_s\": %.6f, "
        "\"p99_request_latency_s\": %.6f, "
        "\"max_utilization\": %.6f, "
        "\"sim_seconds\": %.3f, \"wall_seconds\": %.4f, \"events\": "
        "%llu, \"events_per_sec\": %.1f, %s\"obs\": %s}%s\n",
        r.scenario.c_str(), r.topology.c_str(), r.cost, r.backend,
        r.nodes, r.links, static_cast<unsigned long long>(r.submitted),
        static_cast<unsigned long long>(r.admitted), r.max_concurrent,
        static_cast<unsigned long long>(r.blocked),
        static_cast<unsigned long long>(r.completed),
        static_cast<unsigned long long>(r.failed),
        static_cast<unsigned long long>(r.delivered), r.mean_fidelity,
        r.mean_route_hops, r.mean_latency_ms, r.p50_request_latency_s,
        r.p99_request_latency_s, r.max_utilization, r.sim_seconds,
        r.wall_seconds,
        static_cast<unsigned long long>(r.events),
        static_cast<double>(r.events) / r.wall_seconds,
        mon_fields,
        r.obs_json.c_str(),
        i + 1 < rows.size() ? "," : "");
  }
  double hot_edge_max_util = 0.0;
  for (const Row& r : rows) {
    hot_edge_max_util = std::max(hot_edge_max_util, r.max_utilization);
  }
  std::fprintf(f,
               "  ],\n  \"stalled_intervals\": %llu,\n"
               "  \"peak_backlog\": %llu,\n"
               "  \"hot_edge_max_utilization\": %.6f,\n",
               static_cast<unsigned long long>(stalled_total),
               static_cast<unsigned long long>(peak_backlog),
               hot_edge_max_util);
  // null, not a fabricated 0.0, when the hetero comparison did not run.
  if (hetero_ran) {
    std::fprintf(f, "  \"hetero_fidelity_gain\": %.6f\n}\n",
                 fidelity_gain);
  } else {
    std::fprintf(f, "  \"hetero_fidelity_gain\": null\n}\n");
  }
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
}

/// Concatenate every monitored run's interval records into one JSONL
/// file; the "run" label keys each record back to its scenario.
void write_monitor(const std::string& path, const std::vector<Row>& rows) {
  if (path.empty()) return;
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
    return;
  }
  std::size_t records = 0;
  for (const Row& r : rows) {
    if (!r.monitored) continue;
    std::fwrite(r.monitor_jsonl.data(), 1, r.monitor_jsonl.size(), f);
    for (const char c : r.monitor_jsonl) records += c == '\n';
  }
  std::fclose(f);
  std::printf("wrote %s, %zu records\n", path.c_str(), records);
}

/// Concatenate every run's per-edge network-state records into one
/// JSONL file ("run"-labelled, like write_monitor).
void write_netstate(const std::string& path,
                    const std::vector<Row>& rows) {
  if (path.empty()) return;
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
    return;
  }
  std::size_t records = 0;
  for (const Row& r : rows) {
    std::fwrite(r.netstate_jsonl.data(), 1, r.netstate_jsonl.size(), f);
    for (const char c : r.netstate_jsonl) records += c == '\n';
  }
  std::fclose(f);
  std::printf("wrote %s, %zu records\n", path.c_str(), records);
}

/// One Markdown report: a header, then each scenario's rendered
/// section (obs::render_run_report) in run order.
void write_report(const std::string& path, const std::vector<Row>& rows) {
  if (path.empty()) return;
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "# Grid routing run report\n\n");
  for (const Row& r : rows) {
    std::fwrite(r.report_md.data(), 1, r.report_md.size(), f);
    std::fputc('\n', f);
  }
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
}

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--scenario all|grid|dragonfly|hetero] "
               "[--rows R] [--cols C] [--requests N] [--pairs P] "
               "[--seconds S] [--cap-seconds S] [--backend dense|bell] "
               "%s\n",
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
    if (arg == "--scenario") {
      opt.scenario = next();
    } else if (arg == "--rows") {
      opt.rows = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--cols") {
      opt.cols = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--requests") {
      opt.requests = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--pairs") {
      opt.pairs = static_cast<std::uint16_t>(
          std::strtoul(next(), nullptr, 10));
    } else if (arg == "--seconds") {
      opt.seconds = std::strtod(next(), nullptr);
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
  opt.trace_path = shared.trace_path;
  opt.monitor_path = shared.monitor_path;
  opt.netstate_path = shared.netstate_path;
  opt.report_path = shared.report_path;
  if (opt.scenario != "all" && opt.scenario != "grid" &&
      opt.scenario != "dragonfly" && opt.scenario != "hetero") {
    std::fprintf(stderr, "unknown scenario '%s'\n", opt.scenario.c_str());
    usage(argv[0]);
  }
  if (opt.rows < 1 || opt.cols < 2 || opt.requests < 1 || opt.pairs < 1 ||
      opt.seconds <= 0.0 || opt.cap_seconds <= 0.0) {
    std::fprintf(stderr,
                 "need rows >= 1, cols >= 2 (each corridor spans a row), "
                 "requests/pairs >= 1, positive seconds\n");
    usage(argv[0]);
  }

  print_header(
      "Grid routing: fidelity-aware path selection + per-request "
      "reservations on general graphs");
  std::printf("%-10s %-24s %-8s %7s %4s %4s %7s %5s %5s %9s %7s %8s "
              "%8s %10s\n",
              "scenario", "topology", "cost", "nod/lnk", "subm", "done",
              "maxconc", "blckd", "pairs", "fidelity", "lat(ms)",
              "sim(s)", "wall(s)", "events/s");

  std::vector<Row> rows;
  double hetero_hops_fidelity = 0.0;
  double hetero_fid_fidelity = 0.0;
  const bool all = opt.scenario == "all";
  if (all || opt.scenario == "grid") {
    rows.push_back(run_grid(opt));
    print_row(rows.back());
  }
  if (all || opt.scenario == "dragonfly") {
    rows.push_back(run_dragonfly(opt));
    print_row(rows.back());
  }
  bool hetero_ran = false;
  if (all || opt.scenario == "hetero") {
    hetero_ran = true;
    Row hops = run_hetero(opt, routing::CostModel::kHopCount);
    print_row(hops);
    hetero_hops_fidelity = hops.mean_fidelity;
    rows.push_back(std::move(hops));
    Row fid = run_hetero(opt, routing::CostModel::kFidelity);
    print_row(fid);
    hetero_fid_fidelity = fid.mean_fidelity;
    rows.push_back(std::move(fid));
    std::printf("  -> fidelity-aware routing: mean delivered fidelity "
                "%.4f vs %.4f hop-count (gain %+.4f)\n",
                hetero_fid_fidelity, hetero_hops_fidelity,
                hetero_fid_fidelity - hetero_hops_fidelity);
  }
  write_json(opt.json_path, rows, hetero_ran,
             hetero_fid_fidelity - hetero_hops_fidelity);
  write_monitor(opt.monitor_path, rows);
  write_netstate(opt.netstate_path, rows);
  write_report(opt.report_path, rows);
  return 0;
}
