#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "net/channel.hpp"
#include "sim/simulator.hpp"

namespace qlink::net {
namespace {

TEST(ClassicalChannel, DeliversWithDelay) {
  sim::Simulator s;
  sim::Random rnd(1);
  ClassicalChannel chan(s, "c", 100, rnd, 0.0);
  sim::SimTime delivered_at = -1;
  std::vector<std::uint8_t> got;
  chan.set_receiver(1, [&](std::vector<std::uint8_t> b) {
    delivered_at = s.now();
    got = std::move(b);
  });
  chan.send_from(0, {1, 2, 3});
  s.run_all();
  EXPECT_EQ(delivered_at, 100);
  EXPECT_EQ(got, (std::vector<std::uint8_t>{1, 2, 3}));
}

TEST(ClassicalChannel, Bidirectional) {
  sim::Simulator s;
  sim::Random rnd(2);
  ClassicalChannel chan(s, "c", 50, rnd, 0.0);
  int at0 = 0;
  int at1 = 0;
  chan.set_receiver(0, [&](std::vector<std::uint8_t>) { ++at0; });
  chan.set_receiver(1, [&](std::vector<std::uint8_t>) { ++at1; });
  chan.send_from(0, {9});
  chan.send_from(1, {8});
  s.run_all();
  EXPECT_EQ(at0, 1);
  EXPECT_EQ(at1, 1);
}

TEST(ClassicalChannel, PreservesOrderingPerDirection) {
  sim::Simulator s;
  sim::Random rnd(3);
  ClassicalChannel chan(s, "c", 10, rnd, 0.0);
  std::vector<std::uint8_t> order;
  chan.set_receiver(1, [&](std::vector<std::uint8_t> b) {
    order.push_back(b[0]);
  });
  for (std::uint8_t i = 0; i < 5; ++i) chan.send_from(0, {i});
  s.run_all();
  EXPECT_EQ(order, (std::vector<std::uint8_t>{0, 1, 2, 3, 4}));
}

TEST(ClassicalChannel, LossDropsApproximatelyTheConfiguredFraction) {
  sim::Simulator s;
  sim::Random rnd(4);
  ClassicalChannel chan(s, "c", 1, rnd, 0.25);
  int received = 0;
  chan.set_receiver(1, [&](std::vector<std::uint8_t>) { ++received; });
  const int n = 20000;
  for (int i = 0; i < n; ++i) chan.send_from(0, {0});
  s.run_all();
  EXPECT_NEAR(static_cast<double>(received) / n, 0.75, 0.02);
  EXPECT_EQ(chan.frames_sent(), static_cast<std::uint64_t>(n));
  EXPECT_EQ(chan.frames_dropped() + chan.frames_delivered(),
            static_cast<std::uint64_t>(n));
}

TEST(ClassicalChannel, ZeroLossDeliversEverything) {
  sim::Simulator s;
  sim::Random rnd(5);
  ClassicalChannel chan(s, "c", 1, rnd, 0.0);
  int received = 0;
  chan.set_receiver(1, [&](std::vector<std::uint8_t>) { ++received; });
  for (int i = 0; i < 100; ++i) chan.send_from(0, {0});
  s.run_all();
  EXPECT_EQ(received, 100);
  EXPECT_EQ(chan.frames_dropped(), 0u);
}

TEST(ClassicalChannel, FullLossDropsEverything) {
  sim::Simulator s;
  sim::Random rnd(6);
  ClassicalChannel chan(s, "c", 1, rnd, 1.0);
  int received = 0;
  chan.set_receiver(1, [&](std::vector<std::uint8_t>) { ++received; });
  for (int i = 0; i < 100; ++i) chan.send_from(0, {0});
  s.run_all();
  EXPECT_EQ(received, 0);
}

TEST(ClassicalChannel, UnconnectedEndpointDiscardsSilently) {
  sim::Simulator s;
  sim::Random rnd(7);
  ClassicalChannel chan(s, "c", 1, rnd, 0.0);
  chan.send_from(0, {1});
  EXPECT_NO_THROW(s.run_all());
}

TEST(ClassicalChannel, InvalidEndpointThrows) {
  sim::Simulator s;
  sim::Random rnd(8);
  ClassicalChannel chan(s, "c", 1, rnd, 0.0);
  EXPECT_THROW(chan.send_from(2, {1}), std::invalid_argument);
}

TEST(ClassicalChannel, LossProbabilityAdjustableAtRuntime) {
  sim::Simulator s;
  sim::Random rnd(9);
  ClassicalChannel chan(s, "c", 1, rnd, 0.0);
  int received = 0;
  chan.set_receiver(1, [&](std::vector<std::uint8_t>) { ++received; });
  chan.send_from(0, {0});
  chan.set_loss_probability(1.0);
  chan.send_from(0, {0});
  s.run_all();
  EXPECT_EQ(received, 1);
}

TEST(ClassicalChannel, ResendFromHandlerKeepsFifoOrder) {
  // Zero delay puts every delivery on one timestamp: the re-sends made
  // inside the handler must queue behind the frames already in flight.
  sim::Simulator s;
  sim::Random rnd(10);
  ClassicalChannel chan(s, "c", 0, rnd, 0.0);
  std::vector<std::uint8_t> order;
  chan.set_receiver(1, [&](std::vector<std::uint8_t> b) {
    order.push_back(b[0]);
    if (b[0] < 10) chan.send_from(0, {static_cast<std::uint8_t>(b[0] + 10)});
  });
  for (std::uint8_t i = 0; i < 3; ++i) chan.send_from(0, {i});
  s.run_all();
  EXPECT_EQ(order, (std::vector<std::uint8_t>{0, 1, 2, 10, 11, 12}));
  EXPECT_EQ(chan.frames_delivered(), 6u);
}

TEST(ClassicalChannel, InterleavedDirectionsDeliverInOrderOnEachSide) {
  sim::Simulator s;
  sim::Random rnd(11);
  ClassicalChannel chan(s, "c", 25, rnd, 0.0);
  std::vector<std::pair<sim::SimTime, std::uint8_t>> at0;
  std::vector<std::pair<sim::SimTime, std::uint8_t>> at1;
  chan.set_receiver(0, [&](std::vector<std::uint8_t> b) {
    at0.emplace_back(s.now(), b[0]);
  });
  chan.set_receiver(1, [&](std::vector<std::uint8_t> b) {
    at1.emplace_back(s.now(), b[0]);
  });
  for (std::uint8_t i = 0; i < 6; ++i) {
    s.run_until(10 * i);
    chan.send_from(i % 2, {i});
    chan.send_from(1 - i % 2, {static_cast<std::uint8_t>(100 + i)});
  }
  s.run_all();
  ASSERT_EQ(at0.size(), 6u);
  ASSERT_EQ(at1.size(), 6u);
  for (std::uint8_t i = 0; i < 6; ++i) {
    const sim::SimTime t = 10 * i + 25;
    const auto reply = static_cast<std::uint8_t>(100 + i);
    // At even i endpoint 0 sent i and endpoint 1 sent 100 + i.
    const bool even = i % 2 == 0;
    EXPECT_EQ(at1[i].first, t);
    EXPECT_EQ(at1[i].second, even ? i : reply);
    EXPECT_EQ(at0[i].first, t);
    EXPECT_EQ(at0[i].second, even ? reply : i);
  }
}

TEST(ClassicalChannel, FrameToUnconnectedEndpointIsNotCountedDelivered) {
  sim::Simulator s;
  sim::Random rnd(12);
  ClassicalChannel chan(s, "c", 5, rnd, 0.0);
  chan.send_from(0, {1});
  s.run_all();
  EXPECT_EQ(chan.frames_sent(), 1u);
  EXPECT_EQ(chan.frames_delivered(), 0u);
  EXPECT_EQ(chan.frames_dropped(), 0u);
  // The discarded frame left the in-flight queue: the next one sent is
  // the one a newly attached receiver gets.
  std::vector<std::uint8_t> got;
  chan.set_receiver(1, [&](std::vector<std::uint8_t> b) { got = b; });
  chan.send_from(0, {2});
  s.run_all();
  EXPECT_EQ(got, (std::vector<std::uint8_t>{2}));
  EXPECT_EQ(chan.frames_delivered(), 1u);
}

}  // namespace
}  // namespace qlink::net
