#include "sim/simulator.hpp"

#include <algorithm>
#include <chrono>
#include <map>
#include <stdexcept>

namespace qlink::sim {

namespace {

/// Below this many stale keys the heap is never compacted: lazy
/// removal is cheaper than a rebuild.
constexpr std::size_t kCompactMinStale = 4096;

}  // namespace

EventId Simulator::schedule_at(SimTime at, std::function<void()> fn,
                               const char* label) {
  if (at < now_) throw std::invalid_argument("schedule_at: time in the past");
  if (!fn) throw std::invalid_argument("schedule_at: empty function");
  std::uint32_t slot;
  if (free_slots_.empty()) {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  Slot& s = slots_[slot];
  s.fn = std::move(fn);
  s.label = label;
  heap_.push_back(Key{at, next_seq_++, slot, s.gen});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
  ++live_;
  if (heap_.size() > heap_high_water_) heap_high_water_ = heap_.size();
  return (static_cast<EventId>(s.gen) << 32) | slot;
}

void Simulator::retire(std::uint32_t slot) {
  Slot& s = slots_[slot];
  if (++s.gen == 0) s.gen = 1;  // keep ids nonzero across wrap-around
  free_slots_.push_back(slot);
  --live_;
}

bool Simulator::cancel(EventId id) {
  const auto slot = static_cast<std::uint32_t>(id);
  if (slot >= slots_.size()) return false;
  Slot& s = slots_[slot];
  // An empty fn means the slot is free, or its event is running.
  if (s.gen != static_cast<std::uint32_t>(id >> 32) || !s.fn) return false;
  // Destroyed on return, once the engine is consistent again: a
  // captured object's destructor may itself schedule or cancel.
  const std::function<void()> doomed = std::move(s.fn);
  s.fn = nullptr;
  retire(slot);
  if (++stale_ >= kCompactMinStale && stale_ > heap_.size() / 2) {
    drop_stale_keys();
  }
  return true;
}

void Simulator::prune_stale_top() {
  while (!heap_.empty() && stale(heap_.front())) {
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    heap_.pop_back();
    --stale_;
  }
}

void Simulator::drop_stale_keys() {
  std::erase_if(heap_, [this](const Key& key) { return stale(key); });
  std::make_heap(heap_.begin(), heap_.end(), Later{});
  stale_ = 0;
}

SimTime Simulator::next_event_time() {
  prune_stale_top();
  return heap_.empty() ? kNoEventTime : heap_.front().time;
}

bool Simulator::step() {
  prune_stale_top();
  if (heap_.empty()) return false;
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  const Key key = heap_.back();
  heap_.pop_back();
  // Move the closure out and free the slot before running it: the
  // callback may schedule (growing slots_) or try to cancel itself
  // (which must fail).
  Slot& slot = slots_[key.slot];
  const std::function<void()> fn = std::move(slot.fn);
  slot.fn = nullptr;
  const char* label = slot.label;
  retire(key.slot);
  now_ = key.time;
  ++processed_;
  if (telemetry_ || profiler_) {
    LabelTally& tally = tallies_[label];
    ++tally.count;
    if (profiler_) {
      const auto t0 = std::chrono::steady_clock::now();
      fn();
      tally.wall_seconds += std::chrono::duration<double>(
                                std::chrono::steady_clock::now() - t0)
                                .count();
      return true;
    }
  }
  fn();
  return true;
}

void Simulator::run_until(SimTime t) {
  for (;;) {
    prune_stale_top();
    if (heap_.empty() || heap_.front().time > t) break;
    step();
  }
  if (now_ < t) now_ = t;
}

void Simulator::run_all() {
  while (step()) {
  }
}

std::vector<Simulator::LabelStat> Simulator::label_stats() const {
  // Merge by label *text*: one label literal can have several pointer
  // identities across translation units.
  std::map<std::string, LabelTally> merged;
  for (const auto& [label, tally] : tallies_) {
    LabelTally& m = merged[label == nullptr ? "(unlabeled)" : label];
    m.count += tally.count;
    m.wall_seconds += tally.wall_seconds;
  }
  std::vector<LabelStat> out;
  out.reserve(merged.size());
  for (auto& [label, tally] : merged) {
    out.push_back(LabelStat{label, tally.count, tally.wall_seconds});
  }
  return out;
}

std::vector<Simulator::LabelStat> Simulator::hottest(std::size_t k) const {
  std::vector<LabelStat> all = label_stats();
  std::sort(all.begin(), all.end(),
            [](const LabelStat& a, const LabelStat& b) {
              if (a.wall_seconds != b.wall_seconds) {
                return a.wall_seconds > b.wall_seconds;
              }
              if (a.count != b.count) return a.count > b.count;
              return a.label < b.label;
            });
  if (all.size() > k) all.resize(k);
  return all;
}

}  // namespace qlink::sim
