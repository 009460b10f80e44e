// Micro-benchmarks of the substrate hot paths: event scheduling (bare,
// labeled, telemetered, scheduled-then-cancelled), the periodic timer, density-matrix operations,
// the herald model, a full protocol cycle, and the router's Yen path
// search over one dragonfly island. These bound the
// simulation throughput reported in EXPERIMENTS.md.
//
// Self-timed (no external benchmark library): each case runs batches of
// its inner loop until `--min-seconds` of wall time accumulates, then
// reports ops/s over the timed batches. The JSON rows are keyed by
// "scenario" so tools/bench_diff.py can gate events_per_sec against the
// checked-in baseline with its perf tolerance class (wall-clock noise
// on shared CI runners is absorbed by the perf factor, not a tight
// percentage).
//
// Usage: bench_micro_engine [--min-seconds S] [--json PATH|-]

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <numeric>
#include <random>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/network.hpp"
#include "hw/herald_model.hpp"
#include "quantum/bell.hpp"
#include "quantum/channels.hpp"
#include "quantum/registry.hpp"
#include "routing/graph.hpp"
#include "routing/path_selector.hpp"
#include "sim/simulator.hpp"

using namespace qlink;
using namespace qlink::bench;

namespace {

struct Options {
  double min_seconds = 0.5;  // timed wall budget per case
  std::uint64_t seed = 7;
  std::string json_path = "BENCH_micro_engine.json";
};

struct Row {
  const char* scenario = "";
  std::uint64_t ops = 0;
  double wall_seconds = 0.0;
  double events_per_sec = 0.0;  // ops/s; named for bench_diff's perf gate
};

/// Run `body(batch_ops)` batches until `min_seconds` of wall time
/// accrues (after one untimed warm-up batch), and report ops/s.
Row time_case(const char* scenario, double min_seconds,
              std::uint64_t batch_ops,
              const std::function<void(std::uint64_t)>& body) {
  body(batch_ops);  // warm-up: first-touch allocations, caches
  Row row;
  row.scenario = scenario;
  const auto start = std::chrono::steady_clock::now();
  double elapsed = 0.0;
  while (elapsed < min_seconds) {
    body(batch_ops);
    row.ops += batch_ops;
    elapsed = std::chrono::duration<double>(
                  std::chrono::steady_clock::now() - start)
                  .count();
  }
  row.wall_seconds = elapsed;
  row.events_per_sec =
      elapsed > 0.0 ? static_cast<double>(row.ops) / elapsed : 0.0;
  return row;
}

Row bench_schedule_and_run(const Options& opt, const char* scenario,
                           bool label, bool telemetry) {
  sim::Simulator s;
  s.set_telemetry(telemetry);
  std::uint64_t sink = 0;
  return time_case(scenario, opt.min_seconds, 100000, [&](std::uint64_t n) {
    for (std::uint64_t i = 0; i < n; ++i) {
      s.schedule_in(10, [&sink] { ++sink; },
                    label ? "bench.event" : nullptr);
      s.step();
    }
  });
}

Row bench_schedule_cancel(const Options& opt) {
  // The mhp.timeout pattern: a timeout armed and cancelled before it
  // fires. Each op is one schedule + cancel pair; the clock then moves
  // past the timeout so its stale heap key surfaces and is skipped, as
  // it would in a run.
  sim::Simulator s;
  return time_case("event_schedule_cancel", opt.min_seconds, 100000,
                   [&](std::uint64_t n) {
                     for (std::uint64_t i = 0; i < n; ++i) {
                       const sim::EventId id =
                           s.schedule_in(10, [] {}, "bench.timeout");
                       s.cancel(id);
                       s.run_until(s.now() + 1);
                     }
                   });
}

Row bench_periodic_timer(const Options& opt) {
  sim::Simulator s;
  std::uint64_t ticks = 0;
  sim::PeriodicTimer t(s, 100, [&ticks] { ++ticks; }, "bench.tick");
  t.start();
  return time_case("periodic_timer_tick", opt.min_seconds, 100000,
                   [&](std::uint64_t n) {
                     for (std::uint64_t i = 0; i < n; ++i) s.step();
                   });
}

Row bench_single_qubit_kraus(const Options& opt) {
  sim::Random rnd(opt.seed);
  quantum::QuantumRegistry reg(rnd);
  const auto q = reg.create();
  const auto kraus = quantum::channels::t1t2(1000.0, 2.86e6, 1.0e6);
  const quantum::QubitId ids[] = {q};
  return time_case("single_qubit_kraus", opt.min_seconds, 20000,
                   [&](std::uint64_t n) {
                     for (std::uint64_t i = 0; i < n; ++i) {
                       reg.apply_kraus(kraus, ids);
                     }
                   });
}

Row bench_two_qubit_fidelity(const Options& opt) {
  sim::Random rnd(opt.seed);
  quantum::QuantumRegistry reg(rnd);
  const auto a = reg.create();
  const auto b = reg.create();
  const quantum::QubitId ab[] = {a, b};
  reg.set_state(ab, quantum::DensityMatrix::from_pure(
                        quantum::bell::state_vector(
                            quantum::bell::BellState::kPsiPlus)));
  const auto& psi =
      quantum::bell::state_vector(quantum::bell::BellState::kPsiPlus);
  double sink = 0.0;
  Row row = time_case("two_qubit_fidelity", opt.min_seconds, 20000,
                      [&](std::uint64_t n) {
                        for (std::uint64_t i = 0; i < n; ++i) {
                          sink += reg.fidelity(ab, psi);
                        }
                      });
  if (sink < 0.0) std::printf("%f\n", sink);  // keep the loop observable
  return row;
}

Row bench_herald_compute(const Options& opt) {
  const hw::HeraldModel model(hw::ScenarioParams::lab().herald);
  double alpha = 0.05;
  double sink = 0.0;
  Row row = time_case("herald_model_compute", opt.min_seconds, 200,
                      [&](std::uint64_t n) {
                        for (std::uint64_t i = 0; i < n; ++i) {
                          sink += model.compute(alpha, alpha).p_success();
                          // defeat caching: measure the full pipeline
                          alpha += 1e-6;
                        }
                      });
  if (sink < 0.0) std::printf("%f\n", sink);
  return row;
}

Row bench_herald_cached(const Options& opt) {
  const hw::HeraldModel model(hw::ScenarioParams::lab().herald);
  double sink = 0.0;
  Row row = time_case("herald_model_cached_lookup", opt.min_seconds,
                      100000, [&](std::uint64_t n) {
                        for (std::uint64_t i = 0; i < n; ++i) {
                          sink += model.distribution(0.1, 0.1).p_success();
                        }
                      });
  if (sink < 0.0) std::printf("%f\n", sink);
  return row;
}

Row bench_protocol_millisecond(const Options& opt) {
  // End-to-end cost of one simulated millisecond of an idle-ish link
  // with an active MD request stream (the dominant bench workload).
  // "ops" are engine events, so events_per_sec is real event throughput.
  core::LinkConfig cfg;
  cfg.scenario = hw::ScenarioParams::lab();
  cfg.seed = opt.seed;
  core::Link link(cfg);
  link.start();
  core::CreateRequest r;
  r.type = core::RequestType::kCreateMeasure;
  r.num_pairs = 60000;
  r.min_fidelity = 0.6;
  r.priority = core::Priority::kMeasureDirectly;
  r.consecutive = true;
  link.egp_a().create(r);

  link.run_for(sim::duration::milliseconds(1));  // warm-up
  Row row;
  row.scenario = "protocol_simulated_millisecond";
  const std::uint64_t events_before = link.simulator().events_processed();
  const auto start = std::chrono::steady_clock::now();
  double elapsed = 0.0;
  while (elapsed < opt.min_seconds) {
    link.run_for(sim::duration::milliseconds(1));
    elapsed = std::chrono::duration<double>(
                  std::chrono::steady_clock::now() - start)
                  .count();
  }
  row.ops = link.simulator().events_processed() - events_before;
  row.wall_seconds = elapsed;
  row.events_per_sec =
      elapsed > 0.0 ? static_cast<double>(row.ops) / elapsed : 0.0;
  return row;
}

Row bench_k_shortest_island(const Options& opt) {
  // The path search a sharded island router runs per request with the
  // path cache off: Yen, k = 4, hop costs, over island 0 of
  // dragonfly(32 x 32) (8 all-to-all groups of 32 routers: 256 nodes,
  // 3,996 edges). One op is one k_shortest call on a fixed seeded
  // endpoint list.
  std::vector<std::uint32_t> nodes(256);
  std::iota(nodes.begin(), nodes.end(), 0u);
  const routing::Graph island =
      routing::Graph::dragonfly(32, 32).induced(nodes);
  const routing::PathSelector sel(island, routing::CostModel::kHopCount);
  std::mt19937_64 rng(opt.seed);
  std::vector<std::pair<std::uint32_t, std::uint32_t>> pairs;
  while (pairs.size() < 64) {
    const auto a = static_cast<std::uint32_t>(rng() % nodes.size());
    const auto b = static_cast<std::uint32_t>(rng() % nodes.size());
    if (a != b) pairs.emplace_back(a, b);
  }
  std::size_t sink = 0;
  Row row = time_case("k_shortest_dragonfly_island", opt.min_seconds,
                      pairs.size(), [&](std::uint64_t n) {
                        for (std::uint64_t i = 0; i < n; ++i) {
                          const auto& [src, dst] = pairs[i % pairs.size()];
                          sink += sel.k_shortest(src, dst, 4).size();
                        }
                      });
  if (sink == 0) std::printf("%zu\n", sink);
  return row;
}

void print_row(const Row& r) {
  std::printf("%-32s %12llu %9.3f %14.0f\n", r.scenario,
              static_cast<unsigned long long>(r.ops), r.wall_seconds,
              r.events_per_sec);
}

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr, "usage: %s [--min-seconds S] %s\n", argv0,
               qlink::bench::Args::kUsage);
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
    if (arg == "--min-seconds") {
      opt.min_seconds = std::strtod(next(), nullptr);
    } else {
      usage(argv[0]);
    }
  }
  opt.seed = shared.seed;
  opt.json_path = shared.json_path;
  if (opt.min_seconds <= 0.0) usage(argv[0]);

  print_header("Engine micro-benchmarks: substrate hot-path throughput");
  std::printf("%-32s %12s %9s %14s\n", "scenario", "ops", "wall(s)",
              "events/s");

  std::vector<Row> rows;
  rows.push_back(
      bench_schedule_and_run(opt, "event_schedule_and_run", false, false));
  print_row(rows.back());
  rows.push_back(bench_schedule_and_run(opt, "event_schedule_labeled",
                                        true, false));
  print_row(rows.back());
  rows.push_back(bench_schedule_and_run(opt, "event_schedule_telemetry",
                                        true, true));
  print_row(rows.back());
  rows.push_back(bench_schedule_cancel(opt));
  print_row(rows.back());
  rows.push_back(bench_periodic_timer(opt));
  print_row(rows.back());
  rows.push_back(bench_single_qubit_kraus(opt));
  print_row(rows.back());
  rows.push_back(bench_two_qubit_fidelity(opt));
  print_row(rows.back());
  rows.push_back(bench_herald_compute(opt));
  print_row(rows.back());
  rows.push_back(bench_herald_cached(opt));
  print_row(rows.back());
  rows.push_back(bench_protocol_millisecond(opt));
  print_row(rows.back());
  rows.push_back(bench_k_shortest_island(opt));
  print_row(rows.back());

  if (opt.json_path != "-") {
    std::FILE* f = std::fopen(opt.json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "warning: cannot write %s\n",
                   opt.json_path.c_str());
    } else {
      std::fprintf(f, "{\n  \"bench\": \"micro_engine\",\n  \"rows\": [\n");
      for (std::size_t i = 0; i < rows.size(); ++i) {
        const Row& r = rows[i];
        std::fprintf(f,
                     "    {\"scenario\": \"%s\", \"ops\": %llu, "
                     "\"wall_seconds\": %.4f, \"events_per_sec\": %.1f}%s\n",
                     r.scenario, static_cast<unsigned long long>(r.ops),
                     r.wall_seconds, r.events_per_sec,
                     i + 1 < rows.size() ? "," : "");
      }
      std::fprintf(f, "  ]\n}\n");
      std::fclose(f);
      std::printf("wrote %s\n", opt.json_path.c_str());
    }
  }
  return 0;
}
