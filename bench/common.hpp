#pragma once

#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>

#include "metrics/collector.hpp"
#include "workload/workload.hpp"

/// \file common.hpp
/// Shared harness for the reproduction benches: configure a Link +
/// WorkloadDriver, run it for a span of simulated time, and hand back the
/// collector. Each bench binary regenerates one table/figure of the
/// paper (see DESIGN.md's experiment index).
///
/// Live telemetry (`--monitor PATH`, ISSUE 7): the routing benches
/// (bench_grid_routing, bench_admission) attach an obs::Monitor to each
/// run and stream one JSONL record per 100 ms of *simulated* time —
/// counter deltas, rates, backlog, histogram deltas, stall-watchdog
/// flags. The monitor is polled from the run loop and never touches the
/// event heap or RNG, so records are byte-identical across same-seed
/// runs and attaching one cannot change any bench number. `--monitor`
/// only selects where the records are written; the derived scalars
/// (`stalled_intervals`, `peak_backlog`) always land in the bench JSON,
/// and tools/interval_check.py validates the stream's invariants in CI.

namespace qlink::bench {

/// Shared command-line flags (ISSUE 9): every observability-aware bench
/// accepts the same six flags with the same spelling and semantics, and
/// parses them through this one implementation. A bench's argv loop
/// calls consume() first and falls through to its own flags only when
/// the argument is not one of ours:
///
///   bench::Args shared;
///   for (int i = 1; i < argc; ++i) {
///     if (shared.consume(argc, argv, i, [&] { usage(argv[0]); }))
///       continue;
///     ... bench-specific flags ...
///   }
///
/// Help text: embed Args::kUsage in the bench's usage() line so every
/// binary advertises the shared flags identically.
struct Args {
  std::uint64_t seed = 7;
  std::string json_path;      // "-" = stdout; empty = bench's default
  std::string trace_path;     // empty = tracing off
  std::string monitor_path;   // empty = keep records in memory only
  std::string netstate_path;  // empty = keep records in memory only
  std::string report_path;    // empty = no Markdown report

  static constexpr const char* kUsage =
      "[--seed K] [--json PATH|-] [--trace PATH] [--monitor PATH] "
      "[--netstate PATH] [--report PATH]";

  /// Consume argv[i] (and its value) if it is a shared flag; advances
  /// i past the value and returns true on success. `usage` must not
  /// return (print help and exit).
  template <typename Usage>
  bool consume(int argc, char** argv, int& i, Usage&& usage) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        usage();
        std::exit(2);  // unreachable: usage() exits
      }
      return argv[++i];
    };
    if (arg == "--seed") {
      seed = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--json") {
      json_path = next();
    } else if (arg == "--trace") {
      trace_path = next();
    } else if (arg == "--monitor") {
      monitor_path = next();
    } else if (arg == "--netstate") {
      netstate_path = next();
    } else if (arg == "--report") {
      report_path = next();
    } else {
      return false;
    }
    return true;
  }
};

struct RunSpec {
  hw::ScenarioParams scenario = hw::ScenarioParams::lab();
  workload::WorkloadConfig workload;
  core::SchedulerConfig scheduler;
  double classical_loss = 0.0;
  std::uint64_t seed = 1;
  double simulated_seconds = 10.0;
  double test_round_probability = 0.0;
};

struct RunResult {
  metrics::Collector collector;
  core::Egp::Stats stats_a;
  core::Egp::Stats stats_b;
  double mean_heralded_fidelity = 0.0;
  std::uint64_t dqp_retransmissions = 0;
};

inline RunResult run_scenario(const RunSpec& spec) {
  core::LinkConfig link_cfg;
  link_cfg.scenario = spec.scenario;
  link_cfg.scenario.classical_loss_prob = spec.classical_loss;
  link_cfg.seed = spec.seed;
  link_cfg.scheduler = spec.scheduler;
  link_cfg.test_round_probability = spec.test_round_probability;
  core::Link link(link_cfg);

  RunResult result;
  auto driver_ptr = workload::WorkloadDriver::for_link(
      link, spec.workload.traffic(), spec.workload.tuning(), result.collector);
  workload::WorkloadDriver& driver = *driver_ptr;
  link.start();
  driver.start();
  link.run_for(sim::duration::seconds(spec.simulated_seconds));
  driver.stop();

  result.stats_a = link.egp_a().stats();
  result.stats_b = link.egp_b().stats();
  result.mean_heralded_fidelity = link.station().mean_heralded_fidelity();
  result.dqp_retransmissions = link.egp_a().queue().retransmissions() +
                               link.egp_b().queue().retransmissions();
  return result;
}

inline const char* kind_name(core::Priority p) {
  return core::priority_name(p);
}

inline void print_header(const std::string& title) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("================================================================\n");
}

}  // namespace qlink::bench
