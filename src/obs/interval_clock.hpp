#pragma once

#include <cstdint>
#include <cstdio>
#include <string>

#include "obs/json.hpp"
#include "sim/simulator.hpp"
#include "sim/time.hpp"

/// \file interval_clock.hpp
/// The sim-time interval contract obs::Monitor and obs::NetState share:
/// which boundaries get a record, how sparse polls coalesce, the
/// trailing partial interval, the final summary line, and the JSONL
/// buffer they all land in.
///
/// poll() writes one record whenever at least one full interval elapsed
/// since the last record. Sparse polls coalesce the elapsed intervals
/// into a single record whose `dt` is the covered span (a multiple of
/// the interval), stamped at the last crossed boundary `t`. finish()
/// flushes the trailing partial interval (its `dt` may be shorter) and
/// appends a `"final": true` summary line; it is idempotent, and poll()
/// after it is a no-op. Every line opens with the optional `"run"`
/// label, so several streams can share one file (tools/interval_check.py
/// validates each label group independently).
///
/// Keyed by sim time only: the clock never schedules events or consumes
/// randomness, so polling it from existing control points cannot
/// perturb a seeded trajectory.

namespace qlink::obs {

class IntervalClock {
 public:
  /// `interval` <= 0 falls back to 100 ms; an empty `run` is omitted.
  IntervalClock(const sim::Simulator& simulator, sim::SimTime interval,
                std::string run)
      : sim_(simulator),
        interval_(interval > 0 ? interval
                               : sim::duration::milliseconds(100)),
        run_(std::move(run)),
        start_t_(simulator.now()),
        last_t_(start_t_) {}

  /// Writes a record for the last boundary crossed since the previous
  /// one. `fields(out, t)` appends the caller's `,"key":value` fields
  /// after `i`/`t`/`dt`; last_t() is still the previous boundary while
  /// it runs. Cheap (one comparison) when no boundary was crossed.
  template <class Fields>
  void poll(Fields&& fields) {
    if (finished_) return;
    const sim::SimTime now = sim_.now();
    if (now - last_t_ < interval_) return;
    record(last_t_ + ((now - last_t_) / interval_) * interval_, fields);
  }

  /// Flushes the trailing partial interval through `fields`, then writes
  /// the final line: `summary(out)` appends its `,"key":value` fields
  /// after `"final":true,"t":..,"intervals":..`.
  template <class Fields, class Summary>
  void finish(Fields&& fields, Summary&& summary) {
    if (finished_) return;
    const sim::SimTime now = sim_.now();
    if (now > last_t_) record(now, fields);
    open_line();
    jsonl_ += "\"final\":true,";
    append_field(jsonl_, "t", static_cast<std::uint64_t>(last_t_));
    jsonl_ += ',';
    append_field(jsonl_, "intervals", intervals_);
    summary(jsonl_);
    jsonl_ += "}\n";
    finished_ = true;
  }

  sim::SimTime interval() const noexcept { return interval_; }
  /// Sim time the clock was created at: the stream's origin.
  sim::SimTime start_t() const noexcept { return start_t_; }
  /// The boundary the latest record ends at (start_t() before any).
  sim::SimTime last_t() const noexcept { return last_t_; }
  std::uint64_t intervals() const noexcept { return intervals_; }

  const std::string& jsonl() const noexcept { return jsonl_; }
  void write_jsonl(std::FILE* f) const {
    std::fwrite(jsonl_.data(), 1, jsonl_.size(), f);
  }

 private:
  void open_line() {
    jsonl_ += '{';
    if (!run_.empty()) {
      jsonl_ += "\"run\":\"";
      jsonl_ += run_;
      jsonl_ += "\",";
    }
  }

  /// One record covering (last_t_, t]; `t` must be > last_t_.
  template <class Fields>
  void record(sim::SimTime t, Fields& fields) {
    open_line();
    append_field(jsonl_, "i", intervals_);
    jsonl_ += ',';
    append_field(jsonl_, "t", static_cast<std::uint64_t>(t));
    jsonl_ += ',';
    append_field(jsonl_, "dt", static_cast<std::uint64_t>(t - last_t_));
    fields(jsonl_, t);
    jsonl_ += "}\n";
    ++intervals_;
    last_t_ = t;
  }

  const sim::Simulator& sim_;
  const sim::SimTime interval_;
  const std::string run_;
  const sim::SimTime start_t_;
  sim::SimTime last_t_;
  std::uint64_t intervals_ = 0;
  bool finished_ = false;
  std::string jsonl_;
};

}  // namespace qlink::obs
