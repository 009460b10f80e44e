#include "net/channel.hpp"

#include <array>
#include <stdexcept>
#include <utility>

namespace qlink::net {

void ClassicalChannel::send_from(int end, std::vector<std::uint8_t> frame) {
  if (end != 0 && end != 1) {
    throw std::invalid_argument("ClassicalChannel: endpoint must be 0 or 1");
  }
  const auto src = static_cast<std::size_t>(end);
  const auto dest = static_cast<std::size_t>(1 - end);
  sent_.fetch_add(1, std::memory_order_relaxed);
  if (randoms_[src]->bernoulli(loss_probability_)) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  const sim::SimTime at = sims_[src]->now() + delay_;
  if (engine_ != nullptr && shards_[src] != shards_[dest]) {
    engine_->post(shards_[src], shards_[dest], at,
                  [this, dest, data = std::move(frame)]() mutable {
                    deliver(dest, std::move(data));
                  },
                  "net.channel");
    return;
  }
  // Scheduled before the push so that a rejected time leaves the FIFO
  // untouched; the delivery cannot run before this function returns.
  sims_[dest]->schedule_at(
      at,
      [this, dest] {
        std::vector<std::uint8_t> data = std::move(in_flight_[dest].front());
        in_flight_[dest].pop_front();
        deliver(dest, std::move(data));
      },
      "net.channel");
  in_flight_[dest].push_back(std::move(frame));
}

void ClassicalChannel::deliver(std::size_t dest,
                               std::vector<std::uint8_t> frame) {
  Handler& h = receivers_[dest];
  if (!h) return;  // unconnected endpoint: frame silently discarded
  delivered_.fetch_add(1, std::memory_order_relaxed);
  h(std::move(frame));
}

}  // namespace qlink::net
