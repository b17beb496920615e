/**
 * @file
 * Unit tests for sim::Engine: run control, stop requests, watchdog.
 */

#include <gtest/gtest.h>

#include <stdexcept>
#include <utility>
#include <vector>

#include "src/sim/engine.hh"

using griffin::Tick;
using griffin::sim::Engine;

TEST(Engine, RunsToQueueDrain)
{
    Engine e;
    int fired = 0;
    e.schedule(100, [&] { ++fired; });
    e.schedule(200, [&] { ++fired; });
    EXPECT_EQ(e.run(), 200u);
    EXPECT_EQ(fired, 2);
}

TEST(Engine, StopRequestHaltsTheLoop)
{
    Engine e;
    int fired = 0;
    e.schedule(10, [&] {
        ++fired;
        e.requestStop();
    });
    e.schedule(20, [&] { ++fired; });
    e.run();
    EXPECT_EQ(fired, 1);
    EXPECT_TRUE(e.stopRequested());
    EXPECT_EQ(e.pendingEvents(), 1u);
}

TEST(Engine, RunAfterStopResumesPendingWork)
{
    Engine e;
    int fired = 0;
    e.schedule(10, [&] { e.requestStop(); });
    e.schedule(20, [&] { ++fired; });
    e.run();
    e.run(); // clears the stop flag and drains
    EXPECT_EQ(fired, 1);
}

TEST(Engine, StopRequestedBeforeRunDoesNotPoisonTheRun)
{
    // A stray requestStop() between runs (e.g. from a shutdown hook)
    // must not make the next run() return without executing anything.
    Engine e;
    e.requestStop();
    int fired = 0;
    e.schedule(10, [&] { ++fired; });
    EXPECT_EQ(e.run(), 10u);
    EXPECT_EQ(fired, 1);
    EXPECT_FALSE(e.stopRequested());
}

TEST(Engine, ReusedEngineRunsBackToBack)
{
    // One engine, several run() calls: each drains the queue from the
    // prior stopping point with no stale stop state.
    Engine e;
    std::vector<Tick> stops;
    for (int round = 0; round < 3; ++round) {
        e.schedule(10, [&e] { e.requestStop(); }); // delay from now
        e.schedule(15, [] {});
        stops.push_back(e.run());
    }
    EXPECT_EQ(stops, (std::vector<Tick>{10, 20, 30}));
    // Final drain picks up the last straggler, scheduled at 20+15.
    EXPECT_EQ(e.run(), 35u);
}

TEST(Engine, WatchdogThrowsOnRunaway)
{
    Engine e(/*max_ticks=*/1000);
    // A self-rescheduling event never lets the queue drain.
    std::function<void()> tick = [&] { e.schedule(100, tick); };
    e.schedule(100, tick);
    EXPECT_THROW(e.run(), std::runtime_error);
}

TEST(Engine, WatchdogDisabledByDefault)
{
    Engine e;
    int n = 0;
    std::function<void()> tick = [&] {
        if (++n < 100)
            e.schedule(1000000, tick);
    };
    e.schedule(1000000, tick);
    EXPECT_NO_THROW(e.run());
    EXPECT_EQ(n, 100);
}

TEST(Engine, RunUntilDoesNotTripWatchdog)
{
    Engine e(/*max_ticks=*/500);
    e.schedule(100, [] {});
    EXPECT_EQ(e.runUntil(400), 400u);
}

TEST(Engine, EventsExecutedAccumulates)
{
    Engine e;
    for (int i = 0; i < 5; ++i)
        e.schedule(Tick(i), [] {});
    e.run();
    EXPECT_EQ(e.eventsExecuted(), 5u);
}

TEST(Engine, PeriodicHookFiresOnBoundariesBetweenEvents)
{
    Engine e;
    std::vector<Tick> fires;
    e.addPeriodicHook(10, [&](Tick t) { fires.push_back(t); });
    e.schedule(5, [] {});
    e.schedule(25, [] {});
    e.run();
    // Boundaries 10 and 20 lie before the event at 25; boundary 30
    // never fires because no event reaches it.
    ASSERT_EQ(fires.size(), 2u);
    EXPECT_EQ(fires[0], 10u);
    EXPECT_EQ(fires[1], 20u);
    EXPECT_EQ(e.now(), 25u);
}

TEST(Engine, PeriodicHookNeverExtendsTheRun)
{
    Engine e;
    int fires = 0;
    e.addPeriodicHook(10, [&](Tick) { ++fires; });
    e.schedule(3, [] {});
    EXPECT_EQ(e.run(), 3u);
    EXPECT_EQ(fires, 0);
}

TEST(Engine, PeriodicHookBoundaryCoincidingWithEventFiresFirst)
{
    Engine e;
    std::vector<int> order;
    e.addPeriodicHook(10, [&](Tick) { order.push_back(0); });
    e.schedule(10, [&] { order.push_back(1); });
    e.run();
    ASSERT_EQ(order.size(), 2u);
    EXPECT_EQ(order[0], 0); // hook sees the boundary state
    EXPECT_EQ(order[1], 1);
}

TEST(Engine, RemovedPeriodicHookStopsFiring)
{
    Engine e;
    int fires = 0;
    const auto id = e.addPeriodicHook(10, [&](Tick) { ++fires; });
    e.schedule(15, [&] { e.removePeriodicHook(id); });
    e.schedule(35, [] {});
    e.run();
    EXPECT_EQ(fires, 1); // boundary 10 only; 20/30 come after removal
}

TEST(Engine, TwoHooksFireInGlobalTimeOrder)
{
    Engine e;
    std::vector<std::pair<int, Tick>> fires;
    e.addPeriodicHook(10, [&](Tick t) { fires.push_back({0, t}); });
    e.addPeriodicHook(15, [&](Tick t) { fires.push_back({1, t}); });
    e.schedule(31, [] {});
    e.run();
    // Expect 10(a), 15(b), 20(a), 30(a+b in some deterministic order).
    ASSERT_EQ(fires.size(), 5u);
    for (std::size_t i = 1; i < fires.size(); ++i)
        EXPECT_LE(fires[i - 1].second, fires[i].second);
    EXPECT_EQ(fires[0], (std::pair<int, Tick>{0, 10}));
    EXPECT_EQ(fires[1], (std::pair<int, Tick>{1, 15}));
    EXPECT_EQ(fires[2], (std::pair<int, Tick>{0, 20}));
}

TEST(Engine, StopMidTickResumesTheRestOfTheTickInFifoOrder)
{
    // The second of four tick-10 events requests a stop and schedules
    // one more zero-delay event. run() returns inside tick 10; the next
    // run() finishes that tick in schedule order before time moves, on
    // the tiered queue exactly as on the reference heap.
    for (const bool reference : {false, true}) {
        Engine e;
        if (reference)
            e.queue().enableReferenceMode();
        std::vector<int> order;
        e.schedule(10, [&] { order.push_back(1); });
        e.schedule(10, [&] {
            order.push_back(2);
            e.requestStop();
            e.schedule(0, [&] { order.push_back(5); });
        });
        e.schedule(10, [&] { order.push_back(3); });
        e.schedule(10, [&] { order.push_back(4); });
        e.schedule(11, [&] { order.push_back(6); });

        EXPECT_EQ(e.run(), 10u);
        EXPECT_EQ(order, (std::vector<int>{1, 2})) << reference;
        EXPECT_EQ(e.pendingEvents(), 4u);
        EXPECT_EQ(e.run(), 11u);
        EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5, 6})) << reference;
        EXPECT_TRUE(e.queue().empty());
    }
}
