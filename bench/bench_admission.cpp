// Scheduler-grade admission bench (ISSUE 5): the PR-4 queue-blind
// policy vs deferred-window + batch admission, on grid and dragonfly
// contention scenarios.
//
// Each scenario picks node-disjoint multi-hop corridors on the
// topology. On every corridor, two "head" requests lease its first
// edge (a) and its remaining edges (b) with staggered windows
// (head_b asks for more pairs, so its lease ends later), and a
// "waiter" wants the whole corridor — it can only start once *both*
// windows have opened. On the first corridor a long "newcomer"
// arrives between the two lease ends, wanting edge a only.
//
//  pr4    defer_admission = false: the waiter parks blind in the
//         blocked queue. When edge a's lease lapses the waiter still
//         cannot start (b is busy), so a sits free until the newcomer
//         snatches it for a long window — a queue jump ("steal") that
//         pushes the waiter's admission past the newcomer's whole
//         lease, while edge b sits idle: the coordination loss of
//         blind queueing.
//  sched  defer_admission = true (which also selects the per-edge-FIFO
//         batch drain): the waiter books the earliest window in which
//         a AND b are both free (ReservationTable::earliest_window)
//         the moment it fails to admit. The newcomer's instant window
//         would overlap that booking, so it defers behind it instead
//         of jumping the queue. The waiter starts exactly when b
//         frees; nobody queues blind (steals = 0).
//
// Corridors beyond the first see no newcomer: they behave identically
// under both policies (their waiters admit at the same wakeup, batch
// style), pinning down that the gains come from the contended
// corridor alone. The JSON carries per-row admission-wait stats plus
// the summary scalars `mean_admission_wait_gain` (pr4 mean admission
// wait minus sched's, averaged over scenarios, sim-seconds) and
// `hol_blocking_reduction` (relative reduction in queue jumps);
// CI's bench_diff gate requires both strictly positive.
//
// Usage: bench_admission [--scenario grid|dragonfly|all]
//          [--lease-slack S] [--cap-seconds S] [--backend dense|bell]
//          [--seed K] [--json PATH|-] [--monitor PATH]
//          [--netstate PATH] [--report PATH]
//   --monitor writes every run's interval telemetry (obs::Monitor,
//   ISSUE 7) as one JSONL file; records carry a "scenario/mode" run
//   label (e.g. "grid/pr4") so tools/interval_check.py validates each
//   of the four runs separately. Monitors are always attached (they
//   cannot perturb the trajectory); per-run stalled_intervals and
//   peak_backlog land in the JSON rows and as summed/max'd top-level
//   scalars for the CI gate.
//   --netstate writes every run's per-edge network-state stream
//   (obs::NetState, ISSUE 8) as "scenario/mode"-labelled JSONL,
//   validated in CI by tools/interval_check.py; the run-wide max
//   per-edge utilization lands in the hot_edge_max_utilization scalar.
//   --report writes a Markdown run report (obs::report) with summary
//   counters, hot edges, contention, and latency phase decomposition.

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
#include "qstate/backend_registry.hpp"
#include "routing/router.hpp"

using namespace qlink;
using namespace qlink::bench;

namespace {

struct Options {
  std::string scenario = "all";
  // < 1 so leases lapse before holders finish: admission is governed
  // by the lease calendar, the regime deferred booking schedules.
  double lease_slack = 0.5;
  double cap_seconds = 120.0;
  std::uint16_t head_a_pairs = 4;
  std::uint16_t head_b_pairs = 8;
  std::uint16_t waiter_pairs = 2;
  std::uint16_t newcomer_pairs = 16;
  qstate::BackendKind backend = qstate::BackendKind::kBellDiagonal;
  std::uint64_t seed = 7;
  std::string json_path = "BENCH_admission.json";
  std::string monitor_path;  // empty = keep records in memory only
  std::string netstate_path;  // empty = keep records in memory only
  std::string report_path;    // empty = no Markdown report
};

struct Row {
  const char* scenario = "grid";
  const char* mode = "pr4";
  const char* backend = "bell-diagonal";
  std::size_t nodes = 0;
  std::size_t links = 0;
  std::size_t corridors = 0;
  std::uint64_t submitted = 0;
  std::uint64_t admitted = 0;
  std::uint64_t blocked = 0;
  std::uint64_t deferred = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::uint64_t delivered = 0;
  std::uint64_t steals = 0;
  std::uint64_t hol_holds = 0;
  std::uint64_t batch_admits = 0;
  std::uint64_t lease_expiries = 0;
  double deferred_wait_total_s = 0.0;
  double mean_admission_wait_s = 0.0;
  double max_admission_wait_s = 0.0;
  double p50_admission_wait_s = 0.0;
  double p99_admission_wait_s = 0.0;
  double p99_request_latency_s = 0.0;
  double completion_rate = 0.0;
  double sim_seconds = 0.0;
  double wall_seconds = 0.0;
  std::uint64_t events = 0;
  // Interval telemetry (ISSUE 7); every admission run is monitored.
  std::uint64_t stalled_intervals = 0;
  std::uint64_t peak_backlog = 0;
  std::string monitor_jsonl;
  // Per-edge network state (ISSUE 8); sampled on every run.
  double max_utilization = 0.0;
  std::string netstate_jsonl;
  std::string report_md;
};

double wall_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Up to `want` mutually node-disjoint shortest corridors of >= 2 hops,
/// scanned in deterministic node order.
std::vector<routing::Path> pick_corridors(const routing::PathSelector& sel,
                                          const routing::Graph& graph,
                                          std::size_t want) {
  std::vector<routing::Path> out;
  std::vector<char> used(graph.num_nodes(), 0);
  for (std::uint32_t u = 0; u < graph.num_nodes() && out.size() < want;
       ++u) {
    for (std::uint32_t v = u + 1;
         v < graph.num_nodes() && out.size() < want; ++v) {
      const auto path = sel.shortest(u, v);
      if (!path || path->hops() < 2) continue;
      bool clean = true;
      for (const std::uint32_t n : path->nodes) {
        if (used[n]) {
          clean = false;
          break;
        }
      }
      if (!clean) continue;
      for (const std::uint32_t n : path->nodes) used[n] = 1;
      out.push_back(*path);
    }
  }
  return out;
}

/// The sub-walk of `path` spanning node positions [from, to].
routing::Path subpath(const routing::Path& path, std::size_t from,
                      std::size_t to) {
  routing::Path out;
  out.nodes.assign(path.nodes.begin() + static_cast<std::ptrdiff_t>(from),
                   path.nodes.begin() + static_cast<std::ptrdiff_t>(to) + 1);
  out.edges.assign(path.edges.begin() + static_cast<std::ptrdiff_t>(from),
                   path.edges.begin() + static_cast<std::ptrdiff_t>(to));
  return out;
}

Row run_mode(const Options& opt, const char* scenario, const char* mode,
             bool scheduler) {
  routing::Graph graph = scenario == std::string("grid")
                             ? routing::Graph::grid(3, 3)
                             : routing::Graph::dragonfly(3, 3);
  const std::size_t want_corridors =
      scenario == std::string("grid") ? 3 : 2;

  netlayer::NetworkConfig nc = routing::make_network_config(
      graph, core::LinkConfig{}, opt.seed);
  nc.link.backend = opt.backend;
  nc.link.pauli_twirl_installs =
      opt.backend == qstate::BackendKind::kBellDiagonal;
  nc.link.scenario = hw::ScenarioParams::lab();
  // Decoherence-protected carbon memory ([82]): waiters hold their
  // first pairs across the slower hop's window.
  nc.link.scenario.nv.carbon_t2_ns = 5e9;
  nc.link.scenario.nv.carbon_coupling_rad_per_s /= 10.0;
  const auto net = std::make_unique<netlayer::QuantumNetwork>(nc);
  metrics::Collector collector;
  const auto swap =
      std::make_unique<netlayer::SwapService>(*net, &collector);

  routing::RouterConfig rc;
  rc.cost = routing::CostModel::kHopCount;
  rc.k_candidates = 1;  // corridors are pinned; keep admission exact
  rc.lease_slack = opt.lease_slack;
  rc.defer_admission = scheduler;
  routing::Router router(graph, *swap, rc, &collector);
  metrics::EdgeStats edge_stats(graph.num_edges(), graph.num_nodes());
  router.set_edge_stats(&edge_stats);
  const double menu[] = {0.7};
  router.annotate_from_network(menu);

  router.set_deliver_handler(
      [&swap](const netlayer::E2eOk& ok) { swap->release(ok); });

  const std::vector<routing::Path> corridors =
      pick_corridors(router.selector(), router.graph(), want_corridors);
  if (corridors.empty()) {
    std::fprintf(stderr, "no corridor on %s\n", scenario);
    std::exit(1);
  }

  const auto request = [&opt](std::uint32_t src, std::uint32_t dst,
                              std::uint16_t pairs) {
    netlayer::E2eRequest req;
    req.src = src;
    req.dst = dst;
    req.num_pairs = pairs;
    req.min_fidelity = 0.25;
    req.link_min_fidelity = 0.7;
    (void)opt;
    return req;
  };

  // Construct the sampler before any submission: its baseline snapshot
  // must predate the first lease so the per-interval deltas sum to the
  // final cumulative table (interval_check.py reconciles exactly that).
  obs::NetStateConfig nsc;
  nsc.run = std::string(scenario) + "/" + mode;
  obs::NetState netstate(net->simulator(), edge_stats, std::move(nsc));
  netstate.attach_collector(&collector);
  netstate.attach_graph(&graph);

  net->start();
  std::uint64_t expected = 0;
  for (std::size_t c = 0; c < corridors.size(); ++c) {
    const routing::Path& corridor = corridors[c];
    const routing::Path head_a = subpath(corridor, 0, 1);
    const routing::Path head_b =
        subpath(corridor, 1, corridor.nodes.size() - 1);

    const auto req_a =
        request(head_a.src(), head_a.dst(), opt.head_a_pairs);
    const auto req_b =
        request(head_b.src(), head_b.dst(), opt.head_b_pairs);
    router.submit_on(req_a, head_a);
    router.submit_on(req_b, head_b);
    router.submit_on(request(corridor.src(), corridor.dst(),
                             opt.waiter_pairs),
                     corridor);
    expected += 3;

    if (c == 0) {
      // The contended corridor: a long newcomer for edge a lands
      // between the two head leases' ends — exactly when a is free
      // but the waiter still cannot start.
      const sim::SimTime t1 = router.lease_duration(head_a, req_a);
      const sim::SimTime t2 = router.lease_duration(head_b, req_b);
      const sim::SimTime tn = t1 + (t2 - t1) / 2;
      net->simulator().schedule_at(
          tn, [&router, &request, head_a, pairs = opt.newcomer_pairs] {
            router.submit_on(
                request(head_a.src(), head_a.dst(), pairs), head_a);
          });
      expected += 1;
    }
  }

  obs::MonitorConfig mc;
  mc.run = std::string(scenario) + "/" + mode;
  mc.target_requests = expected;
  obs::Monitor monitor(net->simulator(), collector, std::move(mc));
  monitor.attach_router(&router);

  const auto start = std::chrono::steady_clock::now();
  const auto& stats = router.stats();
  while (stats.completed + stats.failed < expected &&
         sim::to_seconds(net->simulator().now()) < opt.cap_seconds) {
    net->run_for(sim::duration::milliseconds(10));
    monitor.poll();
    netstate.poll();
  }
  monitor.finish();
  netstate.finish();

  Row row;
  row.scenario = scenario;
  row.mode = mode;
  row.backend = net->registry().backend().name();
  row.nodes = net->num_nodes();
  row.links = net->num_links();
  row.corridors = corridors.size();
  row.submitted = stats.submitted;
  row.admitted = stats.admitted;
  row.blocked = stats.blocked;
  row.deferred = stats.deferred;
  row.completed = stats.completed;
  row.failed = stats.failed;
  row.delivered = stats.pairs_delivered;
  row.steals = router.reservations().steals();
  row.hol_holds = router.reservations().hol_holds();
  row.batch_admits = router.reservations().batch_admits();
  row.lease_expiries = router.reservations().lease_expiries();
  row.deferred_wait_total_s = sim::to_seconds(stats.deferred_wait_total);
  row.mean_admission_wait_s = collector.admission_wait().mean();
  row.max_admission_wait_s = collector.admission_wait().max();
  row.p50_admission_wait_s = collector.admission_wait_hist().p50();
  row.p99_admission_wait_s = collector.admission_wait_hist().p99();
  row.p99_request_latency_s = collector.request_latency_hist().p99();
  row.completion_rate = static_cast<double>(stats.completed) /
                        static_cast<double>(expected);
  row.sim_seconds = sim::to_seconds(net->simulator().now());
  row.wall_seconds = wall_since(start);
  row.events = net->simulator().events_processed();
  row.stalled_intervals = monitor.stalled_intervals();
  row.peak_backlog = monitor.peak_backlog();
  row.monitor_jsonl = monitor.jsonl();
  row.max_utilization = netstate.max_utilization();
  row.netstate_jsonl = netstate.jsonl();
  obs::RunReportOptions ro;
  ro.title = std::string(scenario) + "/" + mode + " (" +
             (scheduler ? "scheduler admission" : "queue-blind") + ")";
  row.report_md = obs::render_run_report(net->simulator(), edge_stats,
                                         collector, &graph, ro);
  return row;
}

void print_row(const Row& r) {
  std::printf(
      "%-10s %-6s %5llu %5llu %5llu %5llu %5llu %6llu %6llu %9.4f %9.4f "
      "%7.2f %8.2f\n",
      r.scenario, r.mode, static_cast<unsigned long long>(r.submitted),
      static_cast<unsigned long long>(r.completed),
      static_cast<unsigned long long>(r.blocked),
      static_cast<unsigned long long>(r.deferred),
      static_cast<unsigned long long>(r.steals),
      static_cast<unsigned long long>(r.hol_holds),
      static_cast<unsigned long long>(r.batch_admits),
      r.mean_admission_wait_s, r.max_admission_wait_s, r.sim_seconds,
      r.wall_seconds);
}

void write_row(std::FILE* f, const Row& r, const char* tail) {
  std::fprintf(
      f,
      "    {\"scenario\": \"%s\", \"mode\": \"%s\", \"backend\": \"%s\", "
      "\"nodes\": %zu, \"links\": %zu, \"corridors\": %zu, "
      "\"submitted\": %llu, \"admitted\": %llu, \"blocked\": %llu, "
      "\"deferred\": %llu, \"completed\": %llu, \"failed\": %llu, "
      "\"delivered\": %llu, \"steals\": %llu, \"hol_holds\": %llu, "
      "\"batch_admits\": %llu, \"lease_expiries\": %llu, "
      "\"deferred_wait_total_s\": %.6f, \"mean_admission_wait_s\": %.6f, "
      "\"max_admission_wait_s\": %.6f, \"p50_admission_wait_s\": %.6f, "
      "\"p99_admission_wait_s\": %.6f, \"p99_request_latency_s\": %.6f, "
      "\"completion_rate\": %.6f, \"max_utilization\": %.6f, "
      "\"sim_seconds\": %.3f, \"wall_seconds\": %.4f, \"events\": %llu, "
      "\"events_per_sec\": %.1f, \"stalled_intervals\": %llu, "
      "\"peak_backlog\": %llu}%s\n",
      r.scenario, r.mode, r.backend, r.nodes, r.links, r.corridors,
      static_cast<unsigned long long>(r.submitted),
      static_cast<unsigned long long>(r.admitted),
      static_cast<unsigned long long>(r.blocked),
      static_cast<unsigned long long>(r.deferred),
      static_cast<unsigned long long>(r.completed),
      static_cast<unsigned long long>(r.failed),
      static_cast<unsigned long long>(r.delivered),
      static_cast<unsigned long long>(r.steals),
      static_cast<unsigned long long>(r.hol_holds),
      static_cast<unsigned long long>(r.batch_admits),
      static_cast<unsigned long long>(r.lease_expiries),
      r.deferred_wait_total_s, r.mean_admission_wait_s,
      r.max_admission_wait_s, r.p50_admission_wait_s,
      r.p99_admission_wait_s, r.p99_request_latency_s,
      r.completion_rate, r.max_utilization, r.sim_seconds,
      r.wall_seconds, static_cast<unsigned long long>(r.events),
      r.wall_seconds > 0.0
          ? static_cast<double>(r.events) / r.wall_seconds
          : 0.0,
      static_cast<unsigned long long>(r.stalled_intervals),
      static_cast<unsigned long long>(r.peak_backlog),
      tail);
}

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--scenario grid|dragonfly|all] "
               "[--lease-slack S] [--cap-seconds S] "
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
    if (arg == "--scenario") {
      opt.scenario = next();
      if (opt.scenario != "grid" && opt.scenario != "dragonfly" &&
          opt.scenario != "all") {
        usage(argv[0]);
      }
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
  opt.monitor_path = shared.monitor_path;
  opt.netstate_path = shared.netstate_path;
  opt.report_path = shared.report_path;
  if (opt.lease_slack <= 0.0 || opt.cap_seconds <= 0.0) {
    std::fprintf(stderr,
                 "need positive lease-slack (finite windows) and "
                 "cap-seconds\n");
    usage(argv[0]);
  }

  print_header(
      "Admission control: deferred window booking + batch drain vs the "
      "queue-blind policy");
  std::printf("%-10s %-6s %5s %5s %5s %5s %5s %6s %6s %9s %9s %7s %8s\n",
              "scenario", "mode", "subm", "done", "blckd", "defer",
              "steal", "holds", "batch", "meanwait", "maxwait", "sim(s)",
              "wall(s)");

  std::vector<const char*> scenarios;
  if (opt.scenario == "all" || opt.scenario == "grid") {
    scenarios.push_back("grid");
  }
  if (opt.scenario == "all" || opt.scenario == "dragonfly") {
    scenarios.push_back("dragonfly");
  }

  std::vector<Row> rows;
  double wait_gain_sum = 0.0;
  std::uint64_t steals_pr4 = 0;
  std::uint64_t steals_sched = 0;
  for (const char* scenario : scenarios) {
    const Row pr4 = run_mode(opt, scenario, "pr4", false);
    print_row(pr4);
    const Row sched = run_mode(opt, scenario, "sched", true);
    print_row(sched);
    wait_gain_sum +=
        pr4.mean_admission_wait_s - sched.mean_admission_wait_s;
    steals_pr4 += pr4.steals;
    steals_sched += sched.steals;
    rows.push_back(pr4);
    rows.push_back(sched);
  }
  const double wait_gain =
      wait_gain_sum / static_cast<double>(scenarios.size());
  const double hol_reduction =
      static_cast<double>(steals_pr4 - std::min(steals_sched, steals_pr4)) /
      static_cast<double>(std::max<std::uint64_t>(steals_pr4, 1));

  std::printf("\n  -> scheduler admission: mean admission wait gain "
              "%+.4f s, head-of-line queue jumps %llu -> %llu "
              "(reduction %.2f)\n",
              wait_gain, static_cast<unsigned long long>(steals_pr4),
              static_cast<unsigned long long>(steals_sched),
              hol_reduction);

  std::uint64_t stalled_total = 0;
  std::uint64_t peak_backlog = 0;
  double hot_edge_max_util = 0.0;
  for (const Row& r : rows) {
    stalled_total += r.stalled_intervals;
    peak_backlog = std::max(peak_backlog, r.peak_backlog);
    hot_edge_max_util = std::max(hot_edge_max_util, r.max_utilization);
  }

  if (opt.json_path != "-") {
    std::FILE* f = std::fopen(opt.json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "warning: cannot write %s\n",
                   opt.json_path.c_str());
    } else {
      std::fprintf(f, "{\n  \"bench\": \"admission\",\n  \"rows\": [\n");
      for (std::size_t i = 0; i < rows.size(); ++i) {
        write_row(f, rows[i], i + 1 < rows.size() ? "," : "");
      }
      std::fprintf(f,
                   "  ],\n  \"stalled_intervals\": %llu,\n"
                   "  \"peak_backlog\": %llu,\n"
                   "  \"hot_edge_max_utilization\": %.6f,\n"
                   "  \"mean_admission_wait_gain\": %.6f,\n"
                   "  \"hol_blocking_reduction\": %.6f\n}\n",
                   static_cast<unsigned long long>(stalled_total),
                   static_cast<unsigned long long>(peak_backlog),
                   hot_edge_max_util, wait_gain, hol_reduction);
      std::fclose(f);
      std::printf("wrote %s\n", opt.json_path.c_str());
    }
  }

  if (!opt.monitor_path.empty()) {
    std::FILE* f = std::fopen(opt.monitor_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "warning: cannot write %s\n",
                   opt.monitor_path.c_str());
    } else {
      for (const Row& r : rows) {
        std::fwrite(r.monitor_jsonl.data(), 1, r.monitor_jsonl.size(), f);
      }
      std::fclose(f);
      std::printf("wrote %s\n", opt.monitor_path.c_str());
    }
  }

  if (!opt.netstate_path.empty()) {
    std::FILE* f = std::fopen(opt.netstate_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "warning: cannot write %s\n",
                   opt.netstate_path.c_str());
    } else {
      for (const Row& r : rows) {
        std::fwrite(r.netstate_jsonl.data(), 1, r.netstate_jsonl.size(),
                    f);
      }
      std::fclose(f);
      std::printf("wrote %s\n", opt.netstate_path.c_str());
    }
  }

  if (!opt.report_path.empty()) {
    std::FILE* f = std::fopen(opt.report_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "warning: cannot write %s\n",
                   opt.report_path.c_str());
    } else {
      std::fprintf(f, "# Admission control run report\n\n");
      for (const Row& r : rows) {
        std::fwrite(r.report_md.data(), 1, r.report_md.size(), f);
        std::fputc('\n', f);
      }
      std::fclose(f);
      std::printf("wrote %s\n", opt.report_path.c_str());
    }
  }

  // The bench's own acceptance bar (also enforced by CI's bench_diff
  // gate): the scheduler must strictly beat the queue-blind policy on
  // mean admission wait and eliminate at least some queue jumps.
  return wait_gain > 0.0 && hol_reduction > 0.0 ? 0 : 1;
}
