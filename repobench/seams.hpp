#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "netlayer/plane.hpp"
#include "workload/arrival.hpp"

/// \file seams.hpp
/// Timing decorators for the public seams the benchmark traces from
/// outside the library: netlayer::EntanglementPlane (submit, release,
/// and the deliver handler the Router installs on it) and
/// workload::ArrivalProcess. Each decorator forwards every call to the
/// wrapped object unchanged, so a seeded trajectory is identical with
/// and without it (the self-test checks the digests); only host time
/// is recorded.
///
/// Seam calls nest: a delivery runs the Router's handler, which runs
/// the WorkloadDriver's, which releases the pair and may admit a blocked
/// request. SpanStack keeps each span's self time (its duration minus
/// the nested spans it covers) beside its inclusive time.

namespace repobench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Accumulated cost of one seam.
struct Seam {
  std::uint64_t count = 0;
  double total_s = 0.0;  // inclusive of nested seam spans
  double self_s = 0.0;   // minus nested seam spans
};

/// The open spans of one simulation thread (one per island).
class SpanStack {
 public:
  template <typename Fn>
  decltype(auto) time(Seam& seam, Fn&& fn) {
    struct Scope {
      SpanStack& stack;
      Seam& seam;
      ~Scope() { stack.close(seam); }
    } scope{*this, seam};
    frames_.push_back(Frame{Clock::now(), 0.0});
    return std::forward<Fn>(fn)();
  }

 private:
  struct Frame {
    Clock::time_point start;
    double child_s = 0.0;
  };

  void close(Seam& seam) {
    const Frame frame = frames_.back();
    frames_.pop_back();
    const double span = seconds_between(frame.start, Clock::now());
    ++seam.count;
    seam.total_s += span;
    seam.self_s += span - frame.child_s;
    if (!frames_.empty()) frames_.back().child_s += span;
  }

  std::vector<Frame> frames_;
};

/// Every seam of one island, plus the marker that attributes plane
/// submissions to the arrival handler that made them.
struct SeamSet {
  SpanStack stack;
  Seam submit;
  Seam release;
  Seam deliver;  // the Router's deliver handler, as installed on the plane
  Seam sample_shape;
  Seam next_arrival;
  /// Plane submissions made from inside a workload.arrival handler
  /// (between its sample_shape and its next_arrival call).
  double submit_in_arrival_s = 0.0;
  bool in_arrival = false;
};

/// EntanglementPlane decorator: times submit / release / the installed
/// deliver handler, forwards everything else.
class TimedPlane final : public qlink::netlayer::EntanglementPlane {
 public:
  TimedPlane(qlink::netlayer::EntanglementPlane& inner, SeamSet& seams)
      : inner_(inner), seams_(seams) {}

  qlink::sim::EngineRef engine_ref() noexcept override {
    return inner_.engine_ref();
  }
  qlink::sim::Simulator& simulator() noexcept override {
    return inner_.simulator();
  }
  std::size_t num_links() const noexcept override {
    return inner_.num_links();
  }
  std::size_t num_nodes() const noexcept override {
    return inner_.num_nodes();
  }
  std::pair<std::uint32_t, std::uint32_t> endpoints(
      std::size_t link) const override {
    return inner_.endpoints(link);
  }
  std::uint32_t submit(const qlink::netlayer::E2eRequest& request,
                       const std::vector<qlink::netlayer::Hop>& route,
                       std::span<const double> hop_floors) override {
    const auto before = seams_.submit.total_s;
    const std::uint32_t id = seams_.stack.time(
        seams_.submit, [&] { return inner_.submit(request, route, hop_floors); });
    if (seams_.in_arrival) {
      seams_.submit_in_arrival_s += seams_.submit.total_s - before;
    }
    return id;
  }
  void release(const qlink::netlayer::E2eOk& ok) override {
    seams_.stack.time(seams_.release, [&] { inner_.release(ok); });
  }
  void set_deliver_handler(DeliverFn fn) override {
    inner_.set_deliver_handler(
        [this, fn = std::move(fn)](const qlink::netlayer::E2eOk& ok) {
          seams_.stack.time(seams_.deliver, [&] { fn(ok); });
        });
  }
  void set_error_handler(ErrorFn fn) override {
    inner_.set_error_handler(std::move(fn));
  }
  void set_edge_stats(qlink::metrics::EdgeStats* stats) noexcept override {
    inner_.set_edge_stats(stats);
  }
  qlink::core::Link::RateEstimate estimate_link(std::size_t link,
                                                double floor) override {
    return inner_.estimate_link(link, floor);
  }
  double link_delay_s(std::size_t link) const override {
    return inner_.link_delay_s(link);
  }
  qlink::core::Link::TestRoundEstimate measured_estimate(
      std::size_t link) const override {
    return inner_.measured_estimate(link);
  }
  qlink::netlayer::QuantumNetwork* network() noexcept override {
    return inner_.network();
  }

 private:
  qlink::netlayer::EntanglementPlane& inner_;
  SeamSet& seams_;
};

/// ArrivalProcess decorator. The WorkloadDriver's arrival handler calls
/// sample_shape first and next_arrival last, so the span between them
/// is the handler's admission work.
class TimedArrivals final : public qlink::workload::ArrivalProcess {
 public:
  TimedArrivals(std::shared_ptr<qlink::workload::ArrivalProcess> inner,
                SeamSet& seams)
      : inner_(std::move(inner)), seams_(seams) {}

  qlink::sim::SimTime next_arrival(qlink::sim::Random& random,
                                   qlink::sim::SimTime now) const override {
    seams_.in_arrival = false;
    return seams_.stack.time(seams_.next_arrival,
                             [&] { return inner_->next_arrival(random, now); });
  }
  qlink::workload::RequestShape sample_shape(
      qlink::sim::Random& random, qlink::sim::SimTime now) const override {
    auto shape = seams_.stack.time(
        seams_.sample_shape, [&] { return inner_->sample_shape(random, now); });
    seams_.in_arrival = true;
    return shape;
  }
  double mean_rate_hz() const override { return inner_->mean_rate_hz(); }

 private:
  std::shared_ptr<qlink::workload::ArrivalProcess> inner_;
  SeamSet& seams_;
};

}  // namespace repobench
