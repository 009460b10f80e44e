// repobench: the repository benchmark. One binary, three workloads, all
// open loop in simulated time (Poisson arrivals that do not wait for
// progress), each run on the host as a batch:
//
//  flow-dragonfly  dragonfly(32x32), the 3-class Poisson mix through
//                  Router (k=2, path cache on) + FlowPlane, with
//                  EdgeStats, Monitor and NetState attached: the scale
//                  row of bench_workload_scale as users run it.
//  full-chain      chain(3) full detail: QuantumNetwork + SwapService on
//                  the Bell-diagonal backend at 0.3 utilization, k=1. A
//                  FlowPlane twin on the same arrival trains checks the
//                  fast path against it.
//  island-shards   the dragonfly carved into 4 islands on a
//                  ShardedEngine, per-island mixes, default RouterConfig
//                  (path cache off), 50 ms heartbeat channels.
//
// A run simulates a fixed number of sub-batches, each seeded from
// --seed, and pools their simulated outputs; it then repeats the
// sub-batches until --seconds of host time have passed, and reports
// the host-time metrics as medians over every repetition. Simulated
// outputs are a pure function of the seed, so every repetition of a
// sub-batch must reproduce its digest; the checks also compare the
// digest against a traced repetition, an obs-detached one
// (flow-dragonfly) and a single-thread one (island-shards).
//
// --trace 0 prints the end-to-end metrics; --trace 1 alternates traced
// and untraced repetitions of the first sub-batch and prints the
// per-layer metrics. Layers are timed only from outside the library:
// the engine's per-label profiler, the seam decorators of seams.hpp,
// and each layer's public stats.
//
// Usage: repobench --workload NAME --seed N --seconds S --trace 0|1
//                  [--scale F]   (sub-batch size multiplier, default 1)
//        repobench --selftest [--seed N] [--scale F]
//        repobench --list-metrics

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <limits>
#include <map>
#include <queue>
#include <unordered_set>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "metrics/edge_stats.hpp"
#include "net/channel.hpp"
#include "netlayer/flow_plane.hpp"
#include "netlayer/swap_service.hpp"
#include "netlayer/topology.hpp"
#include "obs/monitor.hpp"
#include "obs/netstate.hpp"
#include "obs/report.hpp"
#include "obs/snapshot.hpp"
#include "routing/router.hpp"
#include "seams.hpp"
#include "sim/sharded_engine.hpp"
#include "workload/arrival.hpp"
#include "workload/workload.hpp"

#ifndef REPOBENCH_COMPILER
#define REPOBENCH_COMPILER "unknown"
#endif
#ifndef REPOBENCH_BUILD_TYPE
#define REPOBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace qlink;
using repobench::Clock;
using repobench::SeamSet;
using repobench::seconds_between;
using repobench::TimedArrivals;
using repobench::TimedPlane;

using Layers = std::map<std::string, double>;

struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"requests_per_s", "1/s"},
    {"peak_rss_mb", "MB"},
    {"completion_ratio", "ratio"},
    {"sim_p50_latency_s", "s"},
    {"sim_tail_latency_s", "s"},
    {"sim_mean_fidelity", "fidelity"},
};

// Every per-layer metric, in report order. A layer a workload does not
// exercise reports 0 (see layers.json for what each one should move).
constexpr MetricDef kPerLayer[] = {
    {"sim.events", "count"},
    {"sim.events_per_request", "count"},
    {"sim.heap_high_water", "count"},
    {"sim.dispatch_s", "s"},
    {"sim.dispatch_ns_per_event", "ns"},
    {"sim.rounds", "count"},
    {"sim.parallel_rounds", "count"},
    {"sim.idle_jumps", "count"},
    {"sim.cross_shard_posted", "count"},
    {"sim.ring_overflows", "count"},
    {"sim.shard_busy_s", "s"},
    {"sim.parallel_efficiency", "ratio"},
    {"sim.parallel_speedup", "ratio"},
    {"proto.mhp_cycle.count", "count"},
    {"proto.mhp_cycle.host_s", "s"},
    {"proto.gen_frames", "count"},
    {"proto.idle_cycle_ratio", "ratio"},
    {"proto.attempts", "count"},
    {"proto.success_ratio", "ratio"},
    {"net.frames_sent", "count"},
    {"net.frames_dropped", "count"},
    {"net.channel.host_s", "s"},
    {"net.ns_per_frame", "ns"},
    {"core.creates", "count"},
    {"core.oks", "count"},
    {"core.errors", "count"},
    {"core.expires", "count"},
    {"core.dqp_retransmissions", "count"},
    {"core.timers.host_s", "s"},
    {"qstate.fast_ops", "count"},
    {"qstate.dense_ops", "count"},
    {"qstate.promotions", "count"},
    {"qstate.pool_hit_ratio", "ratio"},
    {"netlayer.submit.count", "count"},
    {"netlayer.submit.host_s", "s"},
    {"netlayer.release.host_s", "s"},
    {"netlayer.deliver_self.host_s", "s"},
    {"netlayer.swaps", "count"},
    {"netlayer.flow_attempts", "count"},
    {"routing.admit.host_s", "s"},
    {"routing.admit_us_per_request", "us"},
    {"routing.on_deliver.host_s", "s"},
    {"routing.k_shortest_us", "us"},
    {"routing.submitted", "count"},
    {"routing.admitted", "count"},
    {"routing.blocked", "count"},
    {"routing.deferred", "count"},
    {"routing.rejected", "count"},
    {"routing.rerouted", "count"},
    {"routing.max_active_leases", "count"},
    {"routing.lease_expiries", "count"},
    {"routing.admission_wait_p99_sim_s", "s"},
    {"workload.arrival_sample.host_s", "s"},
    {"workload.cycle.count", "count"},
    {"workload.cycle.host_s", "s"},
    {"metrics.merge_s", "s"},
    {"metrics.open_evicted", "count"},
    {"obs.overhead_ratio", "ratio"},
    {"obs.poll.host_s", "s"},
    {"obs.finish_s", "s"},
    {"obs.records", "count"},
    {"obs.bytes", "bytes"},
    {"setup.topology_s", "s"},
    {"setup.calibrate_s", "s"},
    {"setup.build_s", "s"},
    {"setup.annotate_s", "s"},
    {"trace.overhead_ratio", "ratio"},
    {"model.fastpath_tail_error", "ratio"},
};

/// Per-layer metrics measured in host time, reported as the median
/// over the traced repetitions. The others are counts and simulated
/// quantities, identical in every repetition.
bool is_host_time(const MetricDef& m) {
  const std::string unit = m.unit;
  return unit == "s" || unit == "us" || unit == "ns" ||
         std::string(m.name) == "sim.parallel_efficiency";
}

// ---- Workload definitions ---------------------------------------------

/// Batch sizes at --scale 1. A run simulates `*_batches` sub-batches,
/// each seeded from the run's seed, and pools their simulated outputs:
/// enough requests that the simulated percentiles move little from
/// seed to seed. Each sub-batch takes about a second of host time
/// (full-chain about three), so several repetitions fit in a run and
/// the host-time metrics are medians.
struct Size {
  std::uint64_t dragonfly_requests = 20000;
  std::size_t dragonfly_batches = 8;
  std::uint64_t chain_requests = 50;
  std::size_t chain_batches = 8;
  std::uint64_t island_requests = 8000;
  std::size_t island_batches = 4;
};

Size size_for(double scale) {
  Size s;
  const auto scaled = [&](std::uint64_t n, std::uint64_t floor) {
    return std::max<std::uint64_t>(
        floor, static_cast<std::uint64_t>(std::llround(n * scale)));
  };
  s.dragonfly_requests = scaled(s.dragonfly_requests, 200);
  s.chain_requests = scaled(s.chain_requests, 10);
  s.island_requests = scaled(s.island_requests, 200);
  return s;
}

constexpr double kFloorMenu[] = {0.7};
constexpr std::size_t kIslands = 4;
constexpr double kTailTolerance = 0.35;

/// Host-speed probe: about 3 ms of the engine's kind of work (a binary
/// heap of timestamped events, a hash set of live ids, a std::function
/// call per event) in code that does not depend on the library. The
/// host shares its cores with other machines; each core's speed drifts
/// by tens of percent, both within a second and over tens of seconds,
/// independently of the other cores. A timed repetition samples the
/// probe on its own thread between simulation chunks, so the mean probe
/// time tracks the speed the repetition actually ran at, and the
/// end-to-end host times are reported at a fixed reference speed (see
/// normalized()).
double probe_once() {
  using Event = std::pair<std::uint64_t, std::uint64_t>;
  std::priority_queue<Event, std::vector<Event>, std::greater<>> heap;
  std::unordered_set<std::uint64_t> live;
  std::uint64_t z = 0x2545f4914f6cdd1dULL;
  std::uint64_t acc = 0;
  const auto t0 = Clock::now();
  for (std::uint64_t i = 0; i < 24000; ++i) {
    z = z * 6364136223846793005ULL + 1442695040888963407ULL;
    heap.emplace(z >> 20, i);
    live.insert(i);
    if (heap.size() > 512) {
      const Event top = heap.top();
      heap.pop();
      live.erase(top.second);
      const std::function<void()> fn = [&acc, top] { acc += top.first; };
      fn();
    }
  }
  volatile std::uint64_t sink = acc;
  (void)sink;
  return seconds_between(t0, Clock::now());
}

/// The probe time that defines the reference speed.
constexpr double kProbeReferenceS = 0.003;

/// Probe samples of one timed repetition: a few before its set-up, and
/// during its run phase one between simulation chunks every 100 ms of
/// host time (often enough to follow the drift, rarely enough not to
/// cool the simulation's caches). A run phase that runs on `width`
/// threads probes on as many threads at once and keeps their mean.
struct SpeedProbe {
  std::size_t width = 1;
  double setup_sum_s = 0.0;
  std::uint64_t setup_count = 0;
  double run_sum_s = 0.0;  // probe times (per-thread mean) in the run phase
  double probing_s = 0.0;  // host time spent probing in the run phase
  std::uint64_t run_count = 0;
  Clock::time_point last = Clock::now();

  void before_setup() {
    for (int i = 0; i < 4; ++i, ++setup_count) setup_sum_s += probe_once();
    last = Clock::now();
  }
  void between_chunks() {
    const auto now = Clock::now();
    if (seconds_between(last, now) < 0.1) return;
    if (width <= 1) {
      run_sum_s += probe_once();
    } else {
      std::vector<double> t(width);
      std::vector<std::thread> probes;
      for (std::size_t i = 0; i < width; ++i) {
        probes.emplace_back([&t, i] { t[i] = probe_once(); });
      }
      for (std::thread& th : probes) th.join();
      for (double x : t) run_sum_s += x / static_cast<double>(width);
    }
    ++run_count;
    last = Clock::now();
    probing_s += seconds_between(now, last);
  }
};

/// A host time measured while the probe averaged `sum / count`, as it
/// would read on a host where the probe takes kProbeReferenceS.
double normalized(double host_s, double sum, std::uint64_t count) {
  return count > 0 ? host_s * kProbeReferenceS * double(count) / sum : host_s;
}

/// One variant of a repetition. The default is the untraced run users
/// would make; the trace switches add observation only.
struct Leg {
  bool profile = false;       // engine per-label profiler
  bool plane_seam = false;    // TimedPlane around the entanglement plane
  bool arrival_seam = false;  // TimedArrivals around the arrival process
  bool obs = true;            // flow-dragonfly: EdgeStats/Monitor/NetState
  bool threads = true;        // island-shards: Parallel::kAuto vs kOff
  /// Timed repetitions only: host-speed samples. The probe runs outside
  /// the simulation, and its time is excluded from run_s.
  SpeedProbe* probe = nullptr;

  void between_chunks() const {
    if (probe != nullptr) probe->between_chunks();
  }
  double probe_run_s() const {
    return probe != nullptr ? probe->probing_s : 0.0;
  }

  bool traced() const { return profile || plane_seam || arrival_seam; }
  static Leg untraced() { return {}; }
  static Leg full_trace() { return {true, true, true, true, true, nullptr}; }
};

/// What one repetition produced.
struct Rep {
  double setup_s = 0.0;
  double run_s = 0.0;
  SpeedProbe probe;  // timed repetitions only
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;  // terminal failures + rejections
  std::uint64_t open = 0;
  bool conserved = false;
  std::uint64_t events = 0;
  std::uint64_t pairs = 0;
  double fidelity_sum = 0.0;
  std::uint64_t fidelity_count = 0;
  metrics::Histogram latency;  // request latency, simulated seconds
  Layers layers;

  /// Simulated outputs only: equal across repetitions of one seed.
  std::string digest() const {
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "events=%llu submitted=%llu completed=%llu failed=%llu "
                  "pairs=%llu fsum=%.17g p50=%.17g p99=%.17g",
                  static_cast<unsigned long long>(events),
                  static_cast<unsigned long long>(submitted),
                  static_cast<unsigned long long>(completed),
                  static_cast<unsigned long long>(failed),
                  static_cast<unsigned long long>(pairs), fidelity_sum,
                  latency.p50(), latency.p99());
    return buf;
  }
};

// ---- Measurement helpers ------------------------------------------------

struct LabelCost {
  std::uint64_t count = 0;
  double wall_s = 0.0;
};
using Profile = std::map<std::string, LabelCost>;

Profile profile_of(const std::vector<const sim::Simulator*>& sims) {
  Profile p;
  for (const sim::Simulator* s : sims) {
    for (const auto& ls : s->label_stats()) {
      p[ls.label].count += ls.count;
      p[ls.label].wall_s += ls.wall_seconds;
    }
  }
  return p;
}

LabelCost label(const Profile& p, const std::string& name) {
  const auto it = p.find(name);
  return it == p.end() ? LabelCost{} : it->second;
}

double prefix_wall(const Profile& p, const std::string& prefix) {
  double s = 0.0;
  for (const auto& [name, cost] : p) {
    if (name.rfind(prefix, 0) == 0) s += cost.wall_s;
  }
  return s;
}

double handler_wall(const Profile& p) {
  double s = 0.0;
  for (const auto& [name, cost] : p) s += cost.wall_s;
  return s;
}

/// Engine and event-label layers (sim, proto, net, core timers,
/// workload cycle) from a profiled run.
void fill_engine(Layers& L, const Profile& p, double run_s,
                 std::uint64_t events, std::size_t heap_hw,
                 std::uint64_t completed, double threads) {
  L["sim.events"] = static_cast<double>(events);
  L["sim.events_per_request"] =
      static_cast<double>(events) /
      static_cast<double>(std::max<std::uint64_t>(completed, 1));
  L["sim.heap_high_water"] = static_cast<double>(heap_hw);
  const double dispatch =
      std::max(0.0, run_s - handler_wall(p) / std::max(threads, 1.0));
  L["sim.dispatch_s"] = dispatch;
  L["sim.dispatch_ns_per_event"] =
      events > 0 ? dispatch / static_cast<double>(events) * 1e9 : 0.0;
  L["proto.mhp_cycle.count"] = static_cast<double>(label(p, "mhp.cycle").count);
  L["proto.mhp_cycle.host_s"] = label(p, "mhp.cycle").wall_s;
  L["net.channel.host_s"] = label(p, "net.channel").wall_s;
  L["core.timers.host_s"] = prefix_wall(p, "egp.") + prefix_wall(p, "dqp.");
  L["workload.cycle.count"] =
      static_cast<double>(label(p, "workload.cycle").count);
  L["workload.cycle.host_s"] = label(p, "workload.cycle").wall_s;
}

/// Link-layer public stats (proto, net, core) over full-detail links.
void fill_links(Layers& L, const std::vector<core::Link*>& links) {
  std::uint64_t gens = 0, attempts = 0, successes = 0, sent = 0,
                dropped = 0, delivered = 0, creates = 0, oks = 0,
                errors = 0, expires = 0, retx = 0;
  for (core::Link* link : links) {
    gens += link->station().gen_frames();
    for (net::ClassicalChannel* ch :
         {&link->peer_channel(), &link->station_channel_a(),
          &link->station_channel_b()}) {
      sent += ch->frames_sent();
      dropped += ch->frames_dropped();
      delivered += ch->frames_delivered();
    }
    for (core::Egp* egp : {&link->egp_a(), &link->egp_b()}) {
      const auto& st = egp->stats();
      attempts += st.attempts;
      successes += st.successes;
      creates += st.creates;
      oks += st.oks;
      errors += st.errors;
      expires += st.expires_sent;
      retx += egp->queue().retransmissions();
    }
  }
  L["proto.gen_frames"] = static_cast<double>(gens);
  const double cycles = L["proto.mhp_cycle.count"];
  L["proto.idle_cycle_ratio"] =
      cycles > 0.0 ? 1.0 - static_cast<double>(gens) / cycles : 0.0;
  L["proto.attempts"] = static_cast<double>(attempts);
  L["proto.success_ratio"] =
      attempts > 0 ? static_cast<double>(successes) /
                         static_cast<double>(attempts)
                   : 0.0;
  L["net.frames_sent"] = static_cast<double>(sent);
  L["net.frames_dropped"] = static_cast<double>(dropped);
  L["net.ns_per_frame"] =
      delivered > 0
          ? L["net.channel.host_s"] / static_cast<double>(delivered) * 1e9
          : 0.0;
  L["core.creates"] = static_cast<double>(creates);
  L["core.oks"] = static_cast<double>(oks);
  L["core.errors"] = static_cast<double>(errors);
  L["core.expires"] = static_cast<double>(expires);
  L["core.dqp_retransmissions"] = static_cast<double>(retx);
}

void fill_backend(Layers& L, const qstate::BackendStats& st) {
  L["qstate.fast_ops"] = static_cast<double>(st.fast_ops);
  L["qstate.dense_ops"] = static_cast<double>(st.dense_ops);
  L["qstate.promotions"] = static_cast<double>(st.promotions);
  const std::uint64_t pool = st.pool_hits + st.pool_misses;
  L["qstate.pool_hit_ratio"] =
      pool > 0 ? static_cast<double>(st.pool_hits) / static_cast<double>(pool)
               : 0.0;
}

/// Seam-decorator layers (netlayer, routing admission, workload
/// sampling), with the plane's delivery events taken from the profile.
void fill_seams(Layers& L, const SeamSet& s, const Profile& p,
                std::uint64_t submitted) {
  L["netlayer.submit.count"] = static_cast<double>(s.submit.count);
  L["netlayer.submit.host_s"] = s.submit.total_s;
  L["netlayer.release.host_s"] = s.release.total_s;
  L["routing.on_deliver.host_s"] = s.deliver.self_s;
  const double plane_deliver =
      label(p, "flow.deliver").wall_s + label(p, "swap.deliver").wall_s;
  L["netlayer.deliver_self.host_s"] =
      std::max(0.0, plane_deliver - s.deliver.total_s);
  const double sampling = s.sample_shape.total_s + s.next_arrival.total_s;
  L["workload.arrival_sample.host_s"] = sampling;
  const double admit = std::max(0.0, label(p, "workload.arrival").wall_s -
                                         s.submit_in_arrival_s - sampling);
  L["routing.admit.host_s"] = admit;
  L["routing.admit_us_per_request"] =
      submitted > 0 ? admit / static_cast<double>(submitted) * 1e6 : 0.0;
}

void add_seams(SeamSet& into, const SeamSet& from) {
  const auto add = [](repobench::Seam& a, const repobench::Seam& b) {
    a.count += b.count;
    a.total_s += b.total_s;
    a.self_s += b.self_s;
  };
  add(into.submit, from.submit);
  add(into.release, from.release);
  add(into.deliver, from.deliver);
  add(into.sample_shape, from.sample_shape);
  add(into.next_arrival, from.next_arrival);
  into.submit_in_arrival_s += from.submit_in_arrival_s;
}

void add_router_stats(routing::Router::Stats& into,
                      const routing::Router::Stats& s) {
  into.submitted += s.submitted;
  into.admitted += s.admitted;
  into.blocked += s.blocked;
  into.deferred += s.deferred;
  into.rejected += s.rejected;
  into.completed += s.completed;
  into.failed += s.failed;
  into.rerouted += s.rerouted;
  into.pairs_delivered += s.pairs_delivered;
}

void fill_router(Layers& L, const routing::Router::Stats& s,
                 double max_active, double lease_expiries,
                 const metrics::Collector& collector) {
  L["routing.submitted"] = static_cast<double>(s.submitted);
  L["routing.admitted"] = static_cast<double>(s.admitted);
  L["routing.blocked"] = static_cast<double>(s.blocked);
  L["routing.deferred"] = static_cast<double>(s.deferred);
  L["routing.rejected"] = static_cast<double>(s.rejected);
  L["routing.rerouted"] = static_cast<double>(s.rerouted);
  L["routing.max_active_leases"] = max_active;
  L["routing.lease_expiries"] = lease_expiries;
  L["routing.admission_wait_p99_sim_s"] = collector.admission_wait_hist().p99();
  L["metrics.open_evicted"] = static_cast<double>(collector.open_evicted());
}

/// Mean host microseconds of PathSelector::k_shortest over `pairs`,
/// replayed after the run so the search is timed on its own.
double k_shortest_us(
    const routing::PathSelector& selector,
    const std::vector<std::pair<std::uint32_t, std::uint32_t>>& pairs,
    std::size_t k) {
  if (pairs.empty()) return 0.0;
  std::size_t calls = 0;
  std::size_t paths = 0;
  const auto start = Clock::now();
  do {
    for (const auto& [src, dst] : pairs) {
      paths += selector.k_shortest(src, dst, k).size();
      ++calls;
    }
  } while (calls < 256);
  const double s = seconds_between(start, Clock::now());
  return paths > 0 ? s / static_cast<double>(calls) * 1e6 : 0.0;
}

/// Routed workloads: request conservation at quiescence.
bool routed_conserved(const routing::Router& router,
                      const metrics::Collector& collector) {
  const auto& rs = router.stats();
  return rs.submitted == rs.completed + rs.failed + rs.rejected &&
         collector.open_requests() == 0 &&
         router.reservations().active() == 0 &&
         router.reservations().blocked() == 0 &&
         router.deferred_pending() == 0;
}

void fill_outcome(Rep& rep, const metrics::Collector& collector,
                  const metrics::Collector::KindMetrics& km) {
  rep.latency = collector.request_latency_hist();
  rep.fidelity_sum = km.fidelity.mean() * static_cast<double>(km.fidelity.count());
  rep.fidelity_count = km.fidelity.count();
}

// ---- Shared flow-plane pieces -------------------------------------------

/// The hardware model every flow-calibrated link uses: the lab scenario
/// with deep decoherence-protected carbon memory, Bell-diagonal backend
/// (as bench_workload_scale).
core::LinkConfig flow_link_config(std::uint64_t seed) {
  core::LinkConfig lc;
  lc.scenario = hw::ScenarioParams::lab();
  lc.scenario.nv.carbon_t2_ns = 5e9;
  lc.scenario.nv.carbon_coupling_rad_per_s /= 10.0;
  lc.backend = qstate::BackendKind::kBellDiagonal;
  lc.pauli_twirl_installs = true;
  lc.seed = seed;
  return lc;
}

netlayer::FlowCalibration calibrate(std::uint64_t seed) {
  core::Link link(flow_link_config(seed));
  netlayer::FlowCalibration cal =
      netlayer::FlowCalibration::from_link(link, kFloorMenu);
  if (cal.best() == nullptr) {
    std::fprintf(stderr, "flow calibration: no feasible operating point\n");
    std::exit(1);
  }
  return cal;
}

using PairList = std::vector<std::pair<std::uint32_t, std::uint32_t>>;

/// The 3-class mix over pinned endpoint pools (40 bulk, 20 interactive,
/// 10 batch pairs carrying two pairs each), drawn as positions into
/// `nodes`; `pairs_out` collects the pool for the path-search replay.
std::shared_ptr<workload::ArrivalProcess> make_mix(
    double rate_hz, const std::vector<std::uint32_t>& nodes,
    std::uint64_t seed, PairList& pairs_out) {
  sim::Random pick(seed ^ 0x9e3779b97f4a7c15ULL);
  const auto pool = [&](std::size_t n) {
    PairList pairs;
    const auto hi = static_cast<std::int64_t>(nodes.size()) - 1;
    while (pairs.size() < n) {
      const auto src = static_cast<std::uint32_t>(pick.uniform_int(0, hi));
      const auto dst = static_cast<std::uint32_t>(pick.uniform_int(0, hi));
      if (src == dst) continue;
      pairs.emplace_back(nodes[src], nodes[dst]);
    }
    pairs_out.insert(pairs_out.end(), pairs.begin(), pairs.end());
    return pairs;
  };
  std::vector<workload::ClassMixProcess::Class> classes(3);
  classes[0].weight = 4.0;
  classes[0].shape.name = "bulk";
  classes[0].shape.endpoints = pool(40);
  classes[1].weight = 2.0;
  classes[1].shape.name = "interactive";
  classes[1].shape.endpoints = pool(20);
  classes[2].weight = 1.0;
  classes[2].shape.name = "batch";
  classes[2].shape.num_pairs = 2;
  classes[2].shape.endpoints = pool(10);
  return std::make_shared<workload::ClassMixProcess>(
      std::make_shared<workload::PoissonProcess>(rate_hz),
      std::move(classes));
}

std::vector<std::uint32_t> iota_nodes(std::size_t n) {
  std::vector<std::uint32_t> v(n);
  for (std::uint32_t i = 0; i < n; ++i) v[i] = i;
  return v;
}

netlayer::FlowPlaneConfig flow_config(const routing::Graph& graph,
                                      const netlayer::FlowCalibration& cal,
                                      metrics::Collector& collector,
                                      std::uint64_t seed) {
  netlayer::FlowPlaneConfig fc;
  fc.num_nodes = graph.num_nodes();
  fc.edges.reserve(graph.num_edges());
  for (const routing::Graph::Edge& e : graph.edges()) {
    fc.edges.emplace_back(e.a, e.b);
  }
  fc.calibration = cal;
  fc.collector = &collector;
  fc.seed = seed;
  return fc;
}

/// The plane routers and drivers see: the decorator when traced.
struct PlaneSlot {
  std::unique_ptr<TimedPlane> timed;
  netlayer::EntanglementPlane* plane = nullptr;

  PlaneSlot(netlayer::EntanglementPlane& inner, SeamSet& seams, bool wrap) {
    if (wrap) timed = std::make_unique<TimedPlane>(inner, seams);
    plane = wrap ? static_cast<netlayer::EntanglementPlane*>(timed.get())
                 : &inner;
  }
};

std::shared_ptr<workload::ArrivalProcess> maybe_timed(
    std::shared_ptr<workload::ArrivalProcess> inner, SeamSet& seams,
    bool wrap) {
  if (!wrap) return inner;
  return std::make_shared<TimedArrivals>(std::move(inner), seams);
}

// ---- flow-dragonfly ------------------------------------------------------

Rep run_flow_dragonfly(std::uint64_t seed, const Size& size, const Leg& leg) {
  Rep rep;
  Layers& L = rep.layers;
  SeamSet seams;
  const auto t0 = Clock::now();
  routing::Graph graph = routing::Graph::dragonfly(32, 32);
  const auto t1 = Clock::now();
  const netlayer::FlowCalibration cal = calibrate(seed);
  const auto t2 = Clock::now();

  metrics::Collector collector;
  collector.set_open_capacity(1u << 16);
  netlayer::FlowPlane flow(flow_config(graph, cal, collector, seed));
  flow.simulator().set_telemetry(true);
  flow.simulator().set_profiler(leg.profile);
  PlaneSlot slot(flow, seams, leg.plane_seam);
  routing::RouterConfig rc;
  rc.k_candidates = 2;
  rc.cache_paths = true;
  routing::Router router(graph, *slot.plane, rc, &collector);
  const auto t3 = Clock::now();
  router.annotate_from_network(kFloorMenu);
  const auto t4 = Clock::now();

  const double svc_s = std::max(cal.best()->pair_time_s, 1e-9);
  PairList pairs;
  workload::TrafficConfig traffic;
  traffic.min_fidelity = 0.4;
  traffic.link_min_fidelity = kFloorMenu[0];
  traffic.arrivals = maybe_timed(
      make_mix(0.2 * 70.0 / svc_s, iota_nodes(graph.num_nodes()), seed, pairs),
      seams, leg.arrival_seam);
  workload::DriverConfig tuning;
  tuning.seed = seed;
  tuning.poll_interval = sim::duration::milliseconds(10);
  tuning.max_requests = size.dragonfly_requests;
  auto driver =
      workload::WorkloadDriver::for_routed(router, traffic, tuning, collector);

  std::unique_ptr<metrics::EdgeStats> edge_stats;
  std::unique_ptr<obs::Monitor> monitor;
  std::unique_ptr<obs::NetState> netstate;
  if (leg.obs) {
    edge_stats = std::make_unique<metrics::EdgeStats>(graph.num_edges(),
                                                      graph.num_nodes());
    router.set_edge_stats(edge_stats.get());
    obs::MonitorConfig mc;
    mc.run = "flow-dragonfly";
    mc.target_requests = size.dragonfly_requests;
    mc.stall_consecutive = 10;
    monitor = std::make_unique<obs::Monitor>(flow.simulator(), collector,
                                             std::move(mc));
    monitor->attach_router(&router);
    driver->set_monitor(monitor.get());
    obs::NetStateConfig nsc;
    nsc.run = "flow-dragonfly";
    nsc.interval = sim::duration::seconds(1);
    netstate = std::make_unique<obs::NetState>(flow.simulator(), *edge_stats,
                                               std::move(nsc));
    netstate->attach_collector(&collector);
    netstate->attach_graph(&graph);
    driver->set_netstate(netstate.get());
  }
  const auto t5 = Clock::now();
  rep.setup_s = seconds_between(t0, t5);
  L["setup.topology_s"] = seconds_between(t0, t1);
  L["setup.calibrate_s"] = seconds_between(t1, t2);
  L["setup.build_s"] = seconds_between(t2, t3) + seconds_between(t4, t5);
  L["setup.annotate_s"] = seconds_between(t3, t4);

  const auto& rs = router.stats();
  driver->start();
  while ((driver->requests_issued() < size.dragonfly_requests ||
          rs.completed + rs.failed + rs.rejected < rs.submitted) &&
         sim::to_seconds(flow.simulator().now()) < 7200.0) {
    flow.run_for(sim::duration::milliseconds(500));
    leg.between_chunks();
  }
  driver->stop();
  rep.run_s = seconds_between(t5, Clock::now()) - leg.probe_run_s();

  if (leg.obs) {
    const auto f0 = Clock::now();
    monitor->finish();
    netstate->finish();
    obs::Snapshot snap;
    snap.collector = &collector;
    snap.router = &rs;
    snap.simulator = &flow.simulator();
    const std::string snapshot = snap.json();
    obs::RunReportOptions ro;
    ro.title = "flow-dragonfly";
    const std::string report = obs::render_run_report(
        flow.simulator(), *edge_stats, collector, &graph, ro);
    L["obs.finish_s"] = seconds_between(f0, Clock::now());
    const std::string& mj = monitor->jsonl();
    const std::string& nj = netstate->jsonl();
    L["obs.records"] = static_cast<double>(
        std::count(mj.begin(), mj.end(), '\n') +
        std::count(nj.begin(), nj.end(), '\n'));
    L["obs.bytes"] = static_cast<double>(mj.size() + nj.size() +
                                         snapshot.size() + report.size());
  }

  rep.submitted = rs.submitted;
  rep.completed = rs.completed;
  rep.failed = rs.failed + rs.rejected;
  rep.open = collector.open_requests();
  rep.conserved = routed_conserved(router, collector);
  rep.events = flow.simulator().events_processed();
  rep.pairs = rs.pairs_delivered;
  fill_outcome(rep, collector, collector.kind(core::Priority::kNetworkLayer));

  if (leg.traced()) {
    const Profile p = profile_of({&flow.simulator()});
    fill_engine(L, p, rep.run_s, rep.events,
                flow.simulator().heap_high_water(), rep.completed, 1.0);
    fill_seams(L, seams, p, rs.submitted);
    fill_router(L, rs, static_cast<double>(router.reservations().max_active()),
                static_cast<double>(router.reservations().lease_expiries()),
                collector);
    L["netlayer.flow_attempts"] = static_cast<double>(flow.stats().attempts);
    L["routing.k_shortest_us"] = k_shortest_us(router.selector(), pairs, 2);
  }
  return rep;
}

// ---- island-shards -------------------------------------------------------

Rep run_island_shards(std::uint64_t seed, const Size& size, const Leg& leg) {
  Rep rep;
  Layers& L = rep.layers;
  const std::size_t shards = kIslands;
  const std::uint64_t per_island = size.island_requests / shards;
  const auto t0 = Clock::now();
  routing::Graph graph = routing::Graph::dragonfly(32, 32);
  const auto assign = sim::ShardAssignment::blocks(graph.num_nodes(), shards);
  std::vector<std::vector<std::uint32_t>> islands(shards);
  for (std::uint32_t n = 0; n < graph.num_nodes(); ++n) {
    islands[assign.shard(n)].push_back(n);
  }
  const auto t1 = Clock::now();
  const netlayer::FlowCalibration cal = calibrate(seed);
  const auto t2 = Clock::now();

  sim::ShardedEngine::Config ecfg;
  ecfg.num_shards = shards;
  ecfg.parallel = leg.threads ? sim::ShardedEngine::Parallel::kAuto
                              : sim::ShardedEngine::Parallel::kOff;
  sim::ShardedEngine engine(ecfg);
  const auto island_seed = [&](std::size_t s) {
    return seed + 0x100000001b3ULL * (s + 1);
  };
  const double svc_s = std::max(cal.best()->pair_time_s, 1e-9);
  const double island_rate_hz = 0.2 * 70.0 / svc_s;

  std::vector<std::unique_ptr<metrics::Collector>> collectors;
  std::vector<std::unique_ptr<routing::Graph>> graphs;
  std::vector<std::unique_ptr<netlayer::FlowPlane>> planes;
  std::vector<std::unique_ptr<SeamSet>> seams;
  std::vector<std::unique_ptr<PlaneSlot>> slots;
  std::vector<std::unique_ptr<routing::Router>> routers;
  std::vector<std::unique_ptr<workload::WorkloadDriver>> drivers;
  std::vector<PairList> pairs(shards);
  double annotate_s = 0.0;
  for (std::size_t s = 0; s < shards; ++s) {
    collectors.push_back(std::make_unique<metrics::Collector>());
    graphs.push_back(
        std::make_unique<routing::Graph>(graph.induced(islands[s])));
    netlayer::FlowPlaneConfig fc =
        flow_config(*graphs[s], cal, *collectors[s], island_seed(s));
    fc.engine = &engine;
    fc.shard = s;
    planes.push_back(std::make_unique<netlayer::FlowPlane>(std::move(fc)));
    engine.sim(s).set_telemetry(true);
    engine.sim(s).set_profiler(leg.profile);
    seams.push_back(std::make_unique<SeamSet>());
    slots.push_back(
        std::make_unique<PlaneSlot>(*planes[s], *seams[s], leg.plane_seam));
    routers.push_back(std::make_unique<routing::Router>(
        *graphs[s], *slots[s]->plane, routing::RouterConfig{},
        collectors[s].get()));
    const auto a0 = Clock::now();
    routers[s]->annotate_from_network(kFloorMenu);
    annotate_s += seconds_between(a0, Clock::now());

    workload::TrafficConfig traffic;
    traffic.min_fidelity = 0.4;
    traffic.link_min_fidelity = kFloorMenu[0];
    traffic.arrivals =
        maybe_timed(make_mix(island_rate_hz, iota_nodes(islands[s].size()),
                             island_seed(s), pairs[s]),
                    *seams[s], leg.arrival_seam);
    workload::DriverConfig tuning;
    tuning.seed = island_seed(s);
    tuning.poll_interval = sim::duration::milliseconds(10);
    tuning.max_requests = per_island;
    drivers.push_back(workload::WorkloadDriver::for_routed(
        *routers[s], traffic, tuning, *collectors[s]));
  }

  // Heartbeats: a classical channel between consecutive islands, 50 ms
  // delay (the lookahead), a frame each way every 100 ms.
  const sim::SimTime heartbeat_delay = sim::duration::milliseconds(50);
  const sim::SimTime heartbeat_period = sim::duration::milliseconds(100);
  std::vector<std::unique_ptr<sim::Random>> channel_randoms;
  std::vector<std::unique_ptr<net::ClassicalChannel>> channels;
  std::atomic<std::uint64_t> heartbeats{0};
  for (std::size_t s = 0; s + 1 < shards; ++s) {
    channel_randoms.push_back(
        std::make_unique<sim::Random>(island_seed(s) ^ 0x5eedULL));
    channel_randoms.push_back(
        std::make_unique<sim::Random>(island_seed(s + 1) ^ 0x5eedULL));
    channels.push_back(std::make_unique<net::ClassicalChannel>(
        engine.ref(s), *channel_randoms[2 * s], engine.ref(s + 1),
        *channel_randoms[2 * s + 1], "heartbeat." + std::to_string(s),
        heartbeat_delay));
    for (int end : {0, 1}) {
      channels[s]->set_receiver(end, [&heartbeats](std::vector<std::uint8_t>) {
        heartbeats.fetch_add(1, std::memory_order_relaxed);
      });
    }
  }
  std::vector<std::function<void()>> ticks(shards);
  for (std::size_t s = 0; s < shards; ++s) {
    ticks[s] = [&, s] {
      if (s + 1 < shards) channels[s]->send_from(0, {0xA1});
      if (s > 0) channels[s - 1]->send_from(1, {0xB2});
      engine.sim(s).schedule_at(engine.sim(s).now() + heartbeat_period,
                                [&ticks, s] { ticks[s](); },
                                "bench.heartbeat");
    };
    engine.sim(s).schedule_at(engine.sim(s).now() + heartbeat_period,
                              [&ticks, s] { ticks[s](); }, "bench.heartbeat");
  }
  const auto t3 = Clock::now();
  rep.setup_s = seconds_between(t0, t3);
  L["setup.topology_s"] = seconds_between(t0, t1);
  L["setup.calibrate_s"] = seconds_between(t1, t2);
  L["setup.build_s"] = seconds_between(t2, t3) - annotate_s;
  L["setup.annotate_s"] = annotate_s;

  const auto settled = [&] {
    for (std::size_t s = 0; s < shards; ++s) {
      const auto& rs = routers[s]->stats();
      if (drivers[s]->requests_issued() < per_island ||
          rs.completed + rs.failed + rs.rejected < rs.submitted) {
        return false;
      }
    }
    return true;
  };
  for (auto& d : drivers) d->start();
  while (!settled() && sim::to_seconds(engine.now()) < 7200.0) {
    engine.run_for(sim::duration::milliseconds(500));
    leg.between_chunks();
  }
  for (auto& d : drivers) d->stop();
  rep.run_s = seconds_between(t3, Clock::now()) - leg.probe_run_s();

  const auto m0 = Clock::now();
  metrics::Collector merged;
  for (const auto& c : collectors) merged.merge(*c);
  L["metrics.merge_s"] = seconds_between(m0, Clock::now());

  routing::Router::Stats rs;
  double max_active = 0.0, lease_expiries = 0.0;
  rep.conserved = true;
  for (std::size_t s = 0; s < shards; ++s) {
    add_router_stats(rs, routers[s]->stats());
    max_active += static_cast<double>(routers[s]->reservations().max_active());
    lease_expiries +=
        static_cast<double>(routers[s]->reservations().lease_expiries());
    rep.conserved = rep.conserved && routed_conserved(*routers[s], *collectors[s]);
  }
  rep.submitted = rs.submitted;
  rep.completed = rs.completed;
  rep.failed = rs.failed + rs.rejected;
  rep.open = merged.open_requests();
  rep.events = engine.events_processed();
  rep.pairs = rs.pairs_delivered;
  // Fidelity sum per island in shard order: identical threads on or off.
  rep.latency = merged.request_latency_hist();
  for (const auto& c : collectors) {
    const auto& km = c->kind(core::Priority::kNetworkLayer);
    rep.fidelity_sum += km.fidelity.mean() * static_cast<double>(km.fidelity.count());
    rep.fidelity_count += km.fidelity.count();
  }

  if (leg.traced()) {
    std::vector<const sim::Simulator*> sims;
    for (std::size_t s = 0; s < shards; ++s) sims.push_back(&engine.sim(s));
    const Profile p = profile_of(sims);
    const double threads = engine.threads_enabled() ? double(shards) : 1.0;
    fill_engine(L, p, rep.run_s, rep.events, engine.heap_high_water(),
                rep.completed, threads);
    SeamSet total;
    for (const auto& s : seams) add_seams(total, *s);
    fill_seams(L, total, p, rs.submitted);
    fill_router(L, rs, max_active, lease_expiries, merged);
    std::uint64_t attempts = 0;
    for (const auto& pl : planes) attempts += pl->stats().attempts;
    L["netlayer.flow_attempts"] = static_cast<double>(attempts);
    const auto es = engine.stats();
    L["sim.rounds"] = static_cast<double>(es.rounds);
    L["sim.parallel_rounds"] = static_cast<double>(es.parallel_rounds);
    L["sim.idle_jumps"] = static_cast<double>(es.idle_jumps);
    L["sim.cross_shard_posted"] = static_cast<double>(es.posted);
    L["sim.ring_overflows"] = static_cast<double>(es.ring_overflows);
    const double busy = handler_wall(p);
    L["sim.shard_busy_s"] = busy;
    L["sim.parallel_efficiency"] =
        rep.run_s > 0.0 ? busy / (rep.run_s * double(shards)) : 0.0;
    double ks = 0.0;
    for (std::size_t s = 0; s < shards; ++s) {
      ks += k_shortest_us(routers[s]->selector(), pairs[s],
                          routing::RouterConfig{}.k_candidates);
    }
    L["routing.k_shortest_us"] = ks / double(shards);
  }
  return rep;
}

// ---- full-chain ------------------------------------------------------------

/// Poisson arrivals conditioned on their count: `count` instants drawn
/// uniformly over count / rate_hz seconds, sorted. Full detail costs
/// host time per simulated second (idle MHP cycles), so fixing both the
/// count and the window keeps a sub-batch's host work the same from
/// seed to seed while the arrival pattern stays Poisson. A pure
/// function of `now` that draws nothing from the WorkloadDriver's
/// Random, as ArrivalProcess requires.
class ConditionedPoisson final : public workload::ArrivalProcess {
 public:
  ConditionedPoisson(double rate_hz, std::uint64_t count, std::uint64_t seed)
      : rate_hz_(rate_hz) {
    sim::Random random(seed ^ 0xa11a1ULL);
    const double window_s = static_cast<double>(count) / rate_hz;
    for (std::uint64_t i = 0; i < count; ++i) {
      at_.push_back(sim::duration::seconds(random.uniform() * window_s));
    }
    std::sort(at_.begin(), at_.end());
    sim::SimTime prev = 0;
    for (sim::SimTime& t : at_) t = prev = std::max(t, prev + 1);
  }

  sim::SimTime next_arrival(sim::Random&, sim::SimTime now) const override {
    const auto it = std::upper_bound(at_.begin(), at_.end(), now);
    return it == at_.end() ? std::numeric_limits<sim::SimTime>::max() / 2
                           : *it;
  }
  double mean_rate_hz() const override { return rate_hz_; }

 private:
  double rate_hz_;
  std::vector<sim::SimTime> at_;
};


/// Full-detail chain(3) driven through Router + SwapService, or its
/// FlowPlane twin on the same arrival train (`flow_twin`).
Rep run_chain(std::uint64_t seed, const Size& size, const Leg& leg,
              bool flow_twin) {
  Rep rep;
  Layers& L = rep.layers;
  SeamSet seams;
  const auto t0 = Clock::now();
  routing::Graph graph = routing::Graph::chain(3);
  const auto t1 = Clock::now();
  const netlayer::FlowCalibration cal = calibrate(seed);
  const auto t2 = Clock::now();
  const double rate_hz = 0.3 / std::max(cal.best()->pair_time_s, 1e-9);

  metrics::Collector collector;
  std::unique_ptr<netlayer::QuantumNetwork> net;
  std::unique_ptr<netlayer::SwapService> swap;
  std::unique_ptr<netlayer::FlowPlane> flow;
  netlayer::EntanglementPlane* inner = nullptr;
  if (flow_twin) {
    flow = std::make_unique<netlayer::FlowPlane>(
        flow_config(graph, cal, collector, seed));
    inner = flow.get();
  } else {
    net = std::make_unique<netlayer::QuantumNetwork>(
        routing::make_network_config(graph, flow_link_config(seed), seed));
    swap = std::make_unique<netlayer::SwapService>(*net, &collector);
    inner = swap.get();
  }
  sim::Simulator& simulator = inner->simulator();
  simulator.set_telemetry(true);
  simulator.set_profiler(leg.profile);
  PlaneSlot slot(*inner, seams, leg.plane_seam);
  routing::RouterConfig rc;
  rc.k_candidates = 1;
  routing::Router router(graph, *slot.plane, rc, &collector);
  const auto t3 = Clock::now();
  router.annotate_from_network(kFloorMenu);
  const auto t4 = Clock::now();

  workload::TrafficConfig traffic;
  traffic.origin = workload::OriginMode::kAllA;
  traffic.min_fidelity = 0.4;
  traffic.link_min_fidelity = kFloorMenu[0];
  traffic.arrivals = maybe_timed(
      std::make_shared<ConditionedPoisson>(rate_hz, size.chain_requests, seed),
      seams, leg.arrival_seam);
  workload::DriverConfig tuning;
  tuning.seed = seed;
  tuning.poll_interval = sim::duration::milliseconds(1);
  tuning.max_requests = size.chain_requests;
  auto driver =
      workload::WorkloadDriver::for_routed(router, traffic, tuning, collector);
  const auto t5 = Clock::now();
  rep.setup_s = seconds_between(t0, t5);
  L["setup.topology_s"] = seconds_between(t0, t1);
  L["setup.calibrate_s"] = seconds_between(t1, t2);
  L["setup.build_s"] = seconds_between(t2, t3) + seconds_between(t4, t5);
  L["setup.annotate_s"] = seconds_between(t3, t4);

  const auto& rs = router.stats();
  if (net) net->start();
  driver->start();
  while ((driver->requests_issued() < size.chain_requests ||
          rs.completed + rs.failed + rs.rejected < rs.submitted) &&
         sim::to_seconds(simulator.now()) < 600.0) {
    if (net) {
      net->run_for(sim::duration::milliseconds(500));
    } else {
      flow->run_for(sim::duration::milliseconds(500));
    }
    leg.between_chunks();
  }
  driver->stop();
  rep.run_s = seconds_between(t5, Clock::now()) - leg.probe_run_s();

  rep.submitted = rs.submitted;
  rep.completed = rs.completed;
  rep.failed = rs.failed + rs.rejected;
  rep.open = collector.open_requests();
  rep.conserved = routed_conserved(router, collector);
  rep.events = simulator.events_processed();
  rep.pairs = rs.pairs_delivered;
  fill_outcome(rep, collector, collector.kind(core::Priority::kNetworkLayer));

  if (leg.traced() && net) {
    const Profile p = profile_of({&simulator});
    fill_engine(L, p, rep.run_s, rep.events, simulator.heap_high_water(),
                rep.completed, 1.0);
    std::vector<core::Link*> links;
    for (std::size_t i = 0; i < net->num_links(); ++i) {
      links.push_back(&net->link(i));
    }
    fill_links(L, links);
    fill_backend(L, net->registry().backend().stats());
    fill_seams(L, seams, p, rs.submitted);
    fill_router(L, rs, static_cast<double>(router.reservations().max_active()),
                static_cast<double>(router.reservations().lease_expiries()),
                collector);
    L["netlayer.swaps"] = static_cast<double>(swap->stats().swaps);
    const PairList pairs = {{0, 2}};
    L["routing.k_shortest_us"] = k_shortest_us(router.selector(), pairs, 1);
  }
  return rep;
}

// ---- Runner ----------------------------------------------------------------

struct Workload {
  const char* name;
  std::function<Rep(std::uint64_t, const Size&, const Leg&)> run;
  std::size_t Size::*batches_field;
  std::size_t batches(const Size& s) const { return s.*batches_field; }
};

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> w = {
      {"flow-dragonfly", run_flow_dragonfly, &Size::dragonfly_batches},
      {"full-chain",
       [](std::uint64_t seed, const Size& size, const Leg& leg) {
         return run_chain(seed, size, leg, false);
       },
       &Size::chain_batches},
      {"island-shards", run_island_shards, &Size::island_batches},
  };
  return w;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double relative_error(double cur, double ref) {
  return std::abs(cur - ref) / std::max(std::abs(ref), 1e-9);
}

/// Highest percentile of a grid with at least ten samples beyond it.
double tail_percentile(std::uint64_t samples) {
  for (double p : {99.99, 99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 80.0}) {
    if (static_cast<double>(samples) * (1.0 - p / 100.0) >= 10.0) return p;
  }
  return 50.0;
}

std::uint64_t peak_rss_kb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<std::uint64_t>(ru.ru_maxrss);
}

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned int regs[12] = {};
  unsigned int max_ext = __get_cpuid_max(0x80000000, nullptr);
  if (max_ext >= 0x80000004) {
    for (unsigned int i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002 + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    }
    std::string s(reinterpret_cast<const char*>(regs), sizeof regs);
    s = s.c_str();
    const auto b = s.find_first_not_of(' ');
    return b == std::string::npos ? "unknown" : s.substr(b);
  }
#endif
  return "unknown";
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) >= 0x20) {
      out += c;
    }
  }
  return out;
}

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

struct Check {
  std::string name;
  bool ok;
  std::string detail;
};

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  double scale = 1.0;
};

/// The seed of sub-batch `i` of a run seeded `seed` (splitmix64).
std::uint64_t batch_seed(std::uint64_t seed, std::size_t i) {
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL + i + 1;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

void check_digests(std::vector<Check>& checks, const std::string& name,
                   const std::vector<Rep>& reps, const Rep& ref) {
  bool ok = true;
  std::string detail;
  for (const Rep& r : reps) {
    if (r.digest() != ref.digest()) {
      ok = false;
      detail = r.digest() + " != " + ref.digest();
    }
  }
  checks.push_back({name, ok, detail});
}

double median_of(const std::vector<Rep>& reps, double (*get)(const Rep&)) {
  std::vector<double> v;
  for (const Rep& r : reps) v.push_back(get(r));
  return median(v);
}

/// An untraced repetition timed for the end-to-end metrics; its run
/// phase uses `threads` threads.
Rep timed_run(const Workload& w, std::uint64_t seed, const Size& size,
              Leg leg, std::size_t threads) {
  SpeedProbe probe;
  probe.width = threads;
  probe.before_setup();
  leg.probe = &probe;
  Rep r = w.run(seed, size, leg);
  r.probe = probe;
  return r;
}

double run_s_of(const Rep& r) { return r.run_s; }
double setup_s_of(const Rep& r) {
  return normalized(r.setup_s, r.probe.setup_sum_s, r.probe.setup_count);
}
double rps_of(const Rep& r) {
  const double t = normalized(r.run_s, r.probe.run_sum_s, r.probe.run_count);
  return t > 0.0 ? static_cast<double>(r.completed) / t : 0.0;
}

int run(const RunOptions& opt) {
  const Workload* w = nullptr;
  for (const Workload& cand : workloads()) {
    if (opt.workload == cand.name) w = &cand;
  }
  if (w == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", opt.workload.c_str());
    return 2;
  }
  const Size size = size_for(opt.scale);
  const bool dragonfly = opt.workload == "flow-dragonfly";
  const bool islands = opt.workload == "island-shards";
  const bool chain = opt.workload == "full-chain";
  const unsigned hw_threads = std::max(1u, std::thread::hardware_concurrency());
  // Never run more threads than the host has cores: with fewer cores
  // than islands the islands run in turn (same trajectory).
  Leg base = Leg::untraced();
  base.threads = !islands || hw_threads >= kIslands;
  Leg traced = Leg::full_trace();
  traced.threads = base.threads;
  Leg detached = base;
  detached.obs = false;
  Leg single = base;
  single.threads = false;

  const std::size_t batches = w->batches(size);
  const std::size_t run_threads = islands && base.threads ? kIslands : 1;
  std::vector<Check> checks;
  std::vector<Rep> primary;  // one per sub-batch: the simulated outputs
  std::vector<Rep> timed;    // every untraced repetition: host metrics
  Layers layers;
  double rss_mb = 0.0;
  const auto start = Clock::now();
  const auto elapsed = [&] { return seconds_between(start, Clock::now()); };

  if (opt.trace == 0) {
    // Every sub-batch once, then repeat them in turn until --seconds.
    for (std::size_t i = 0; i < batches; ++i) {
      primary.push_back(
          timed_run(*w, batch_seed(opt.seed, i), size, base, run_threads));
    }
    timed = primary;
    Check repeat{"repeat_digest", true, ""};
    for (std::size_t i = 0; elapsed() < opt.seconds; ++i) {
      const std::size_t b = i % batches;
      Rep r = timed_run(*w, batch_seed(opt.seed, b), size, base, run_threads);
      if (r.digest() != primary[b].digest()) {
        repeat = {"repeat_digest", false,
                  r.digest() + " != " + primary[b].digest()};
      }
      timed.push_back(std::move(r));
    }
    checks.push_back(repeat);
    rss_mb = static_cast<double>(peak_rss_kb()) / 1024.0;
    const std::uint64_t seed0 = batch_seed(opt.seed, 0);
    check_digests(checks, "traced_digest", {w->run(seed0, size, traced)},
                  primary[0]);
    if (dragonfly) {
      check_digests(checks, "obs_detached_digest",
                    {w->run(seed0, size, detached)}, primary[0]);
    }
    if (islands && base.threads) {
      check_digests(checks, "single_thread_digest",
                    {w->run(seed0, size, single)}, primary[0]);
    }
  } else {
    // Sub-batch 0 only: untraced and traced repetitions alternate
    // (plus the obs-detached and single-thread legs) until --seconds.
    std::vector<Leg> legs = {base, traced};
    if (dragonfly) {
      Leg traced_detached = traced;
      traced_detached.obs = false;
      legs.push_back(detached);
      legs.push_back(traced_detached);
    }
    if (islands) legs.push_back(single);
    std::vector<std::vector<Rep>> reps(legs.size());
    const std::uint64_t seed0 = batch_seed(opt.seed, 0);
    while (elapsed() < opt.seconds || reps.back().size() < 3) {
      for (std::size_t i = 0; i < legs.size(); ++i) {
        reps[i].push_back(w->run(seed0, size, legs[i]));
      }
    }
    rss_mb = static_cast<double>(peak_rss_kb()) / 1024.0;
    primary = {reps[0].front()};
    timed = reps[0];
    const std::vector<Rep>& tr = reps[1];
    check_digests(checks, "repeat_digest", reps[0], primary[0]);
    check_digests(checks, "traced_digest", tr, primary[0]);
    // Host-time layers: median over traced repetitions; the rest are
    // identical in every repetition.
    for (const MetricDef& m : kPerLayer) layers[m.name] = 0.0;
    for (const auto& [name, value] : tr.back().layers) layers[name] = value;
    for (const MetricDef& m : kPerLayer) {
      if (!is_host_time(m)) continue;
      std::vector<double> v;
      for (const Rep& r : tr) {
        const auto it = r.layers.find(m.name);
        if (it != r.layers.end()) v.push_back(it->second);
      }
      if (!v.empty()) layers[m.name] = median(v);
    }
    const double untraced_run = median_of(reps[0], run_s_of);
    layers["trace.overhead_ratio"] = median_of(tr, run_s_of) / untraced_run;
    if (dragonfly) {
      check_digests(checks, "obs_detached_digest", reps[2], primary[0]);
      check_digests(checks, "obs_detached_traced_digest", reps[3],
                    primary[0]);
      layers["obs.overhead_ratio"] = untraced_run / median_of(reps[2], run_s_of);
      std::vector<double> att, det;
      for (const Rep& r : tr) att.push_back(r.layers.at("workload.cycle.host_s"));
      for (const Rep& r : reps[3]) {
        det.push_back(r.layers.at("workload.cycle.host_s"));
      }
      layers["obs.poll.host_s"] = std::max(0.0, median(att) - median(det));
    }
    if (islands) {
      if (base.threads) {
        check_digests(checks, "single_thread_digest", reps[2], primary[0]);
      }
      layers["sim.parallel_speedup"] = median_of(reps[2], run_s_of) / untraced_run;
    }
  }

  // Simulated outputs pooled over the sub-batches.
  Rep pooled;
  bool conserved = true;
  for (const Rep& r : primary) {
    pooled.submitted += r.submitted;
    pooled.completed += r.completed;
    pooled.failed += r.failed;
    pooled.open += r.open;
    pooled.fidelity_sum += r.fidelity_sum;
    pooled.fidelity_count += r.fidelity_count;
    pooled.latency += r.latency;
    conserved = conserved && r.conserved;
  }
  for (const Rep& r : timed) conserved = conserved && r.conserved;
  checks.push_back({"request_conservation", conserved,
                    "submitted=" + std::to_string(pooled.submitted) +
                        " completed=" + std::to_string(pooled.completed) +
                        " failed=" + std::to_string(pooled.failed) +
                        " open=" + std::to_string(pooled.open)});
  if (chain) {
    // The flow-level fast path on the same arrival trains, against the
    // full-detail oracle.
    Rep flow;
    for (std::size_t i = 0; i < primary.size(); ++i) {
      const Rep f = run_chain(batch_seed(opt.seed, i), size, Leg::untraced(),
                              /*flow_twin=*/true);
      flow.fidelity_sum += f.fidelity_sum;
      flow.fidelity_count += f.fidelity_count;
      flow.latency += f.latency;
    }
    const auto mean_fid = [](const Rep& r) {
      return r.fidelity_sum / std::max(1.0, double(r.fidelity_count));
    };
    // The tail is compared at the benchmark's tail percentile (at least
    // ten samples beyond it); the p99 of a few hundred requests rests on
    // a handful of samples and is reported beside it, not gated.
    const double tail = tail_percentile(pooled.latency.count());
    const double err_p50 = relative_error(flow.latency.p50(), pooled.latency.p50());
    const double err_tail = relative_error(flow.latency.percentile(tail),
                                           pooled.latency.percentile(tail));
    const double err_p99 = relative_error(flow.latency.p99(), pooled.latency.p99());
    const double err_fid = relative_error(mean_fid(flow), mean_fid(pooled));
    const double err = std::max({err_p50, err_tail, err_fid});
    layers["model.fastpath_tail_error"] = err;
    // The tolerance is statistical: it is checked on the pooled
    // sub-batches of --trace 0, not on the single sub-batch the traced
    // run reports.
    if (opt.trace == 0) {
      checks.push_back(
          {"fastpath_tail_error", err <= kTailTolerance,
           "p50 " + num(err_p50) + ", p" + num(tail) + " " + num(err_tail) +
               ", fidelity " + num(err_fid) + " (p99 " + num(err_p99) +
               ") <= " + num(kTailTolerance)});
    }
  }

  bool correct = true;
  for (const Check& c : checks) correct = correct && c.ok;
  std::uint64_t attempted = 0, failed = 0;
  for (const Rep& r : timed) {
    attempted += r.submitted;
    failed += r.failed + r.open;
  }
  attempted = std::max<std::uint64_t>(attempted, 1);
  if (!correct) failed = attempted;

  const std::uint64_t samples = pooled.latency.count();
  const double tail_pct = tail_percentile(samples);
  const auto beyond = static_cast<std::uint64_t>(
      std::floor(double(samples) * (1.0 - tail_pct / 100.0)));

  // The record line: machine manifest, run shape, digests, checks.
  std::string rec = "{\"record\": {\"workload\": \"" + opt.workload +
                    "\", \"seed\": " + std::to_string(opt.seed) +
                    ", \"trace\": " + std::to_string(opt.trace) +
                    ", \"scale\": " + num(opt.scale) +
                    ", \"machine\": {\"cores\": " + std::to_string(hw_threads) +
                    ", \"cpu\": \"" + json_escape(cpu_model()) +
                    "\", \"compiler\": \"" + json_escape(REPOBENCH_COMPILER) +
                    "\", \"build_type\": \"" + json_escape(REPOBENCH_BUILD_TYPE) +
                    "\"}, \"sub_batches\": " + std::to_string(primary.size()) +
                    ", \"reps\": " + std::to_string(timed.size()) +
                    ", \"host_s\": " + num(elapsed()) +
                    ", \"threads\": " + (base.threads ? "true" : "false") +
                    ", \"tail_percentile\": " + num(tail_pct) +
                    ", \"tail_samples_beyond\": " + std::to_string(beyond) +
                    ", \"latency_samples\": " + std::to_string(samples) +
                    ", \"digests\": [";
  for (std::size_t i = 0; i < primary.size(); ++i) {
    rec += (i ? ", \"" : "\"") + primary[i].digest() + "\"";
  }
  rec += "], \"run_s\": [";
  for (std::size_t i = 0; i < timed.size(); ++i) {
    rec += (i ? ", " : "") + num(timed[i].run_s);
  }
  rec += "], \"probe_s\": [";
  for (std::size_t i = 0; i < timed.size(); ++i) {
    const SpeedProbe& p = timed[i].probe;
    rec += (i ? ", " : "") + num(p.run_count ? p.run_sum_s / p.run_count : 0.0);
  }
  rec += "], \"checks\": {";
  for (std::size_t i = 0; i < checks.size(); ++i) {
    rec += (i ? ", \"" : "\"") + checks[i].name + "\": {\"ok\": " +
           (checks[i].ok ? "true" : "false") + ", \"detail\": \"" +
           json_escape(checks[i].detail) + "\"}";
  }
  rec += "}}}";
  std::printf("%s\n", rec.c_str());

  std::vector<std::pair<MetricDef, double>> out;
  if (opt.trace == 0) {
    const double values[] = {
        median_of(timed, setup_s_of),
        median_of(timed, rps_of),
        rss_mb,
        double(pooled.completed) /
            double(std::max<std::uint64_t>(pooled.submitted, 1)),
        pooled.latency.p50(),
        pooled.latency.percentile(tail_pct),
        pooled.fidelity_sum / std::max(1.0, double(pooled.fidelity_count)),
    };
    for (std::size_t i = 0; i < std::size(kEndToEnd); ++i) {
      out.emplace_back(kEndToEnd[i], values[i]);
    }
  } else {
    for (const MetricDef& m : kPerLayer) out.emplace_back(m, layers[m.name]);
  }
  std::string res = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) +
                    ", \"metrics\": {";
  for (std::size_t i = 0; i < out.size(); ++i) {
    res += (i ? ", \"" : "\"") + std::string(out[i].first.name) +
           "\": {\"value\": " + num(out[i].second) + ", \"unit\": \"" +
           out[i].first.unit + "\"}";
  }
  res += "}}";
  std::printf("%s\n", res.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

/// Each seam decorator forwards exactly: a short run of every workload
/// gives the same digest with and without each decorator.
int selftest(std::uint64_t seed, double scale) {
  const Size size = size_for(scale);
  int failures = 0;
  for (const Workload& w : workloads()) {
    const Rep ref = w.run(seed, size, Leg::untraced());
    struct Variant {
      const char* name;
      Leg leg;
    };
    Leg plane, arrivals, profile;
    plane.plane_seam = true;
    arrivals.arrival_seam = true;
    profile.profile = true;
    for (const Variant& v : {Variant{"plane_seam", plane},
                             Variant{"arrival_seam", arrivals},
                             Variant{"profiler", profile},
                             Variant{"all", Leg::full_trace()}}) {
      const Rep r = w.run(seed, size, v.leg);
      const bool ok = r.digest() == ref.digest() && r.conserved;
      failures += ok ? 0 : 1;
      std::printf("%s %-14s %-12s %s\n", ok ? "ok  " : "FAIL", w.name, v.name,
                  r.digest().c_str());
    }
  }
  std::printf("selftest: %d failure(s)\n", failures);
  return failures == 0 ? 0 : 1;
}

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: repobench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--scale F]\n"
               "       repobench --selftest [--seed N] [--scale F]\n"
               "       repobench --list-metrics\n");
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions opt;
  bool self = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) usage();
      return argv[++i];
    };
    if (arg == "--workload") {
      opt.workload = next();
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--seconds") {
      opt.seconds = std::strtod(next(), nullptr);
    } else if (arg == "--trace") {
      opt.trace = std::atoi(next());
    } else if (arg == "--scale") {
      opt.scale = std::strtod(next(), nullptr);
    } else if (arg == "--selftest") {
      self = true;
    } else if (arg == "--list-metrics") {
      for (const Workload& w : workloads()) {
        std::printf("workload %s\n", w.name);
      }
      for (const MetricDef& m : kEndToEnd) {
        std::printf("end_to_end %s %s\n", m.name, m.unit);
      }
      for (const MetricDef& m : kPerLayer) {
        std::printf("per_layer %s %s\n", m.name, m.unit);
      }
      return 0;
    } else {
      usage();
    }
  }
  if (!(opt.scale > 0.0) || opt.seconds < 0.0 ||
      (opt.trace != 0 && opt.trace != 1)) {
    usage();
  }
  if (self) return selftest(opt.seed, opt.scale);
  if (opt.workload.empty()) usage();
  return run(opt);
}
