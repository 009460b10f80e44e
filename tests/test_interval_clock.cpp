#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "obs/interval_clock.hpp"
#include "obs/json.hpp"
#include "sim/simulator.hpp"
#include "sim/time.hpp"

/// The shared obs plumbing on its own: the number/field formatting
/// every JSON emitter uses, and the interval clock obs::Monitor and
/// obs::NetState compose. The clock is driven by run_until() alone, so
/// each record's `i`/`t`/`dt` is checked against hand-computed values.

namespace qlink::obs {
namespace {

using sim::SimTime;
namespace duration = sim::duration;

std::vector<std::string> lines_of(const std::string& jsonl) {
  std::vector<std::string> out;
  std::size_t start = 0;
  for (std::size_t nl = jsonl.find('\n'); nl != std::string::npos;
       nl = jsonl.find('\n', start)) {
    out.push_back(jsonl.substr(start, nl - start));
    start = nl + 1;
  }
  EXPECT_EQ(start, jsonl.size()) << "stream must end with a newline";
  return out;
}

// Appends a fixed caller field so tests can see where it lands.
const auto kTag = [](std::string& out, SimTime) { out += ",\"x\":1"; };
const auto kNoSummary = [](std::string&) {};

// ---------------------------------------------------------------------------
// json.hpp

TEST(ObsJson, IntegersRenderInDecimalAcrossTheFullRange) {
  std::string out;
  append_num(out, std::uint64_t{0});
  out += ' ';
  append_num(out, std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(out, "0 18446744073709551615");
}

TEST(ObsJson, DoublesRoundTripExactly) {
  for (const double v : {0.1, 1.0 / 3.0, 6.02214076e23, -2.5e-300}) {
    std::string out;
    append_num(out, v);
    EXPECT_EQ(std::stod(out), v) << out;
  }
  std::string out;
  append_num(out, 0.5);
  EXPECT_EQ(out, "0.5");
}

TEST(ObsJson, FieldsAreKeyColonValueWithoutSeparator) {
  std::string out;
  append_field(out, "n", std::uint64_t{7});
  append_field(out, "f", 0.25);
  EXPECT_EQ(out, "\"n\":7\"f\":0.25");
}

// ---------------------------------------------------------------------------
// IntervalClock

TEST(IntervalClock, PollWritesNothingBeforeAFullInterval) {
  sim::Simulator s;
  IntervalClock clock(s, duration::milliseconds(10), "");
  clock.poll(kTag);
  s.run_until(duration::milliseconds(9));
  clock.poll(kTag);
  EXPECT_EQ(clock.intervals(), 0u);
  EXPECT_EQ(clock.last_t(), clock.start_t());
  EXPECT_TRUE(clock.jsonl().empty());
}

TEST(IntervalClock, EachCrossedBoundaryGetsOneRecordStampedAtIt) {
  sim::Simulator s;
  IntervalClock clock(s, duration::milliseconds(10), "");
  std::vector<SimTime> seen_t, seen_prev;
  const auto fields = [&](std::string& out, SimTime t) {
    seen_t.push_back(t);
    seen_prev.push_back(clock.last_t());
    out += ",\"x\":1";
  };
  s.run_until(duration::milliseconds(10));
  clock.poll(fields);
  s.run_until(duration::milliseconds(23));
  clock.poll(fields);
  EXPECT_EQ(clock.intervals(), 2u);
  EXPECT_EQ(clock.last_t(), duration::milliseconds(20));
  EXPECT_EQ(seen_t, (std::vector<SimTime>{duration::milliseconds(10),
                                           duration::milliseconds(20)}));
  // fields() runs while last_t() is still the previous boundary.
  EXPECT_EQ(seen_prev, (std::vector<SimTime>{0, duration::milliseconds(10)}));
  EXPECT_EQ(clock.jsonl(),
            "{\"i\":0,\"t\":10000000,\"dt\":10000000,\"x\":1}\n"
            "{\"i\":1,\"t\":20000000,\"dt\":10000000,\"x\":1}\n");
}

TEST(IntervalClock, SparsePollsCoalesceIntoOneRecordSpanningTheGap) {
  sim::Simulator s;
  IntervalClock clock(s, duration::milliseconds(10), "");
  s.run_until(duration::milliseconds(47));
  clock.poll(kTag);
  ASSERT_EQ(clock.intervals(), 1u);
  EXPECT_EQ(clock.last_t(), duration::milliseconds(40));
  EXPECT_EQ(clock.jsonl(),
            "{\"i\":0,\"t\":40000000,\"dt\":40000000,\"x\":1}\n");
}

TEST(IntervalClock, FinishFlushesTheTrailingPartialThenTheFinalLine) {
  sim::Simulator s;
  IntervalClock clock(s, duration::milliseconds(10), "");
  s.run_until(duration::milliseconds(10));
  clock.poll(kTag);
  s.run_until(duration::milliseconds(13));
  clock.finish(kTag, [](std::string& out) { out += ",\"sum\":2"; });
  const auto lines = lines_of(clock.jsonl());
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines[1], "{\"i\":1,\"t\":13000000,\"dt\":3000000,\"x\":1}");
  EXPECT_EQ(lines[2],
            "{\"final\":true,\"t\":13000000,\"intervals\":2,\"sum\":2}");
  EXPECT_EQ(clock.intervals(), 2u);
}

TEST(IntervalClock, FinishOnABoundaryAddsNoEmptyPartial) {
  sim::Simulator s;
  IntervalClock clock(s, duration::milliseconds(10), "");
  s.run_until(duration::milliseconds(20));
  clock.poll(kTag);
  clock.finish(kTag, kNoSummary);
  const auto lines = lines_of(clock.jsonl());
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[1], "{\"final\":true,\"t\":20000000,\"intervals\":1}");
}

TEST(IntervalClock, FinishIsIdempotentAndPollAfterItIsANoOp) {
  sim::Simulator s;
  IntervalClock clock(s, duration::milliseconds(10), "");
  s.run_until(duration::milliseconds(5));
  clock.finish(kTag, kNoSummary);
  const std::string once = clock.jsonl();
  s.run_until(duration::milliseconds(50));
  clock.poll(kTag);
  clock.finish(kTag, kNoSummary);
  EXPECT_EQ(clock.jsonl(), once);
  EXPECT_EQ(clock.intervals(), 1u);
}

TEST(IntervalClock, RunLabelOpensEveryLine) {
  sim::Simulator s;
  IntervalClock clock(s, duration::milliseconds(10), "grid");
  s.run_until(duration::milliseconds(15));
  clock.poll(kTag);
  clock.finish(kTag, kNoSummary);
  const auto lines = lines_of(clock.jsonl());
  ASSERT_EQ(lines.size(), 3u);
  for (const auto& line : lines) {
    EXPECT_EQ(line.rfind("{\"run\":\"grid\",", 0), 0u) << line;
  }
}

TEST(IntervalClock, NonPositiveIntervalFallsBackToOneHundredMs) {
  sim::Simulator s;
  IntervalClock zero(s, 0, "");
  IntervalClock negative(s, -5, "");
  EXPECT_EQ(zero.interval(), duration::milliseconds(100));
  EXPECT_EQ(negative.interval(), duration::milliseconds(100));
}

TEST(IntervalClock, StreamStartsAtTheSimTimeTheClockWasCreated) {
  sim::Simulator s;
  s.run_until(duration::milliseconds(7));
  IntervalClock clock(s, duration::milliseconds(10), "");
  EXPECT_EQ(clock.start_t(), duration::milliseconds(7));
  s.run_until(duration::milliseconds(16));
  clock.poll(kTag);
  EXPECT_EQ(clock.intervals(), 0u);
  s.run_until(duration::milliseconds(17));
  clock.poll(kTag);
  EXPECT_EQ(clock.jsonl(),
            "{\"i\":0,\"t\":17000000,\"dt\":10000000,\"x\":1}\n");
}

}  // namespace
}  // namespace qlink::obs
