// Tests for the event engine's building blocks (SimTime, EventQueue) and
// for ShardedSimulator at one shard — the sequential loop every engine run
// at shards=1 executes. The threaded multi-shard paths live in
// sim_parallel_test.cc.
#include <functional>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "sim/event_queue.h"
#include "sim/sharded_simulator.h"
#include "sim/sim_time.h"

namespace locaware::sim {
namespace {

TEST(SimTimeTest, Conversions) {
  EXPECT_EQ(FromMs(1.0), kMillisecond);
  EXPECT_EQ(FromMs(1.5), 1500);
  EXPECT_EQ(FromSeconds(2.0), 2 * kSecond);
  EXPECT_DOUBLE_EQ(ToMs(kSecond), 1000.0);
  EXPECT_DOUBLE_EQ(ToSeconds(kMinute), 60.0);
}

TEST(SimTimeTest, RoundsToNearestMicrosecond) {
  EXPECT_EQ(FromMs(0.0004), 0);
  EXPECT_EQ(FromMs(0.0006), 1);
}

TEST(SimTimeTest, Formatting) {
  EXPECT_EQ(FormatSimTime(1500 * kMillisecond), "1.500s");
  EXPECT_EQ(FormatSimTime(2 * kMillisecond), "2.000ms");
  EXPECT_EQ(FormatSimTime(7), "7us");
}

/// Drains `q`, invoking every event in pop order.
void DrainQueue(EventQueue& q) {
  while (!q.empty()) {
    SimTime t;
    q.Pop(&t)();
  }
}

TEST(EventQueueTest, PopsInTimeOrder) {
  EventQueue q;
  std::vector<int> fired;
  q.PushKeyed(30, /*src=*/0, /*seq=*/0, [&] { fired.push_back(3); });
  q.PushKeyed(10, /*src=*/0, /*seq=*/1, [&] { fired.push_back(1); });
  q.PushKeyed(20, /*src=*/0, /*seq=*/2, [&] { fired.push_back(2); });
  DrainQueue(q);
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueTest, TiesFireInPushOrder) {
  // One source with a running sequence number: same-time events fire in the
  // order that source created them.
  EventQueue q;
  std::vector<int> fired;
  for (int i = 0; i < 10; ++i) {
    q.PushKeyed(5, /*src=*/0, static_cast<uint64_t>(i),
                [&fired, i] { fired.push_back(i); });
  }
  DrainQueue(q);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(fired[i], i);
}

TEST(EventQueueTest, PeekDoesNotPop) {
  EventQueue q;
  q.PushKeyed(42, /*src=*/0, /*seq=*/0, [] {});
  EXPECT_EQ(q.PeekTime(), 42);
  EXPECT_EQ(q.size(), 1u);
}

TEST(EventQueueTest, EmptyAccessDies) {
  EventQueue q;
  SimTime t;
  EXPECT_DEATH(q.PeekTime(), "empty");
  EXPECT_DEATH(q.Pop(&t), "empty");
}

// --- ShardedSimulator at one shard ------------------------------------------

/// A one-shard simulator whose events all come from source 0.
ShardedSimulatorConfig SingleShard() {
  ShardedSimulatorConfig config;
  config.num_shards = 1;
  config.num_sources = 1;
  return config;
}

/// Schedules `fn` at `at` on the only shard, as source 0.
void At(ShardedSimulator& sim, SimTime at, EventFn fn) {
  sim.ScheduleAt(/*dst=*/0, /*src=*/0, at, std::move(fn));
}

TEST(SimulatorTest, StartsAtZero) {
  ShardedSimulator sim(SingleShard());
  EXPECT_EQ(sim.Now(), 0);
  EXPECT_EQ(sim.pending_count(), 0u);
}

TEST(SimulatorTest, ClockAdvancesToEventTime) {
  ShardedSimulator sim(SingleShard());
  SimTime seen = -1;
  At(sim, 100, [&] { seen = sim.Now(); });
  sim.Run();
  EXPECT_EQ(seen, 100);
  EXPECT_EQ(sim.Now(), 100);
}

TEST(SimulatorTest, SchedulingIntoThePastDies) {
  // Inside a handler the shard clock is the floor for new events.
  ShardedSimulator sim(SingleShard());
  At(sim, 100, [&] { At(sim, 50, [] {}); });
  EXPECT_DEATH(sim.Run(), "past");
}

TEST(SimulatorTest, CascadedEventsAllFire) {
  ShardedSimulator sim(SingleShard());
  int count = 0;
  std::function<void()> chain = [&] {
    ++count;
    if (count < 100) At(sim, sim.Now() + 10, chain);
  };
  At(sim, 10, chain);
  const uint64_t executed = sim.Run();
  EXPECT_EQ(count, 100);
  EXPECT_EQ(executed, 100u);
  EXPECT_EQ(sim.Now(), 1000);
}

TEST(SimulatorTest, HorizonStopsEarlyAndKeepsLaterEvents) {
  ShardedSimulator sim(SingleShard());
  int fired = 0;
  At(sim, 10, [&] { ++fired; });
  At(sim, 20, [&] { ++fired; });
  At(sim, 30, [&] { ++fired; });
  EXPECT_EQ(sim.Run(20), 2u);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.pending_count(), 1u);
  EXPECT_EQ(sim.Run(), 1u);
  EXPECT_EQ(fired, 3);
}

TEST(SimulatorTest, IdleAdvanceToHorizon) {
  ShardedSimulator sim(SingleShard());
  sim.Run(500);
  EXPECT_EQ(sim.Now(), 500);
  // A second horizon run composes.
  sim.Run(900);
  EXPECT_EQ(sim.Now(), 900);
}

TEST(SimulatorTest, SameTimeEventsDeterministicWithNestedScheduling) {
  // Events scheduled *during* a same-timestamp batch must still fire in
  // scheduling order after the batch.
  ShardedSimulator sim(SingleShard());
  std::vector<int> order;
  At(sim, 10, [&] {
    order.push_back(1);
    At(sim, 10, [&] { order.push_back(3); });
  });
  At(sim, 10, [&] { order.push_back(2); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(SimulatorTest, ExecutedCountAccumulates) {
  ShardedSimulator sim(SingleShard());
  for (int i = 0; i < 7; ++i) At(sim, i, [] {});
  EXPECT_EQ(sim.Run(3), 4u);
  EXPECT_EQ(sim.Run(), 3u);
  EXPECT_EQ(sim.executed_count(), 7u);
}

}  // namespace
}  // namespace locaware::sim
