/**
 * @file
 * Unit tests for sim::EventQueue: ordering, same-tick FIFO, nested
 * scheduling, and run-until semantics.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

#include "src/sim/engine.hh"
#include "src/sim/event_queue.hh"

using griffin::Tick;
using griffin::sim::EventQueue;

TEST(EventQueue, StartsAtTimeZeroAndEmpty)
{
    EventQueue q;
    EXPECT_EQ(q.now(), 0u);
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.size(), 0u);
    EXPECT_FALSE(q.runOne());
}

TEST(EventQueue, ExecutesInTimeOrder)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(30, [&] { order.push_back(3); });
    q.schedule(10, [&] { order.push_back(1); });
    q.schedule(20, [&] { order.push_back(2); });
    q.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(q.now(), 30u);
}

TEST(EventQueue, SameTickIsFifo)
{
    EventQueue q;
    std::vector<int> order;
    for (int i = 0; i < 10; ++i)
        q.schedule(5, [&order, i] { order.push_back(i); });
    q.run();
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(EventQueue, ZeroDelayRunsAfterAlreadyQueuedSameTickWork)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(0, [&] {
        order.push_back(1);
        q.schedule(0, [&] { order.push_back(3); });
    });
    q.schedule(0, [&] { order.push_back(2); });
    q.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, NestedSchedulingAdvancesTime)
{
    EventQueue q;
    Tick seen = 0;
    q.schedule(10, [&] {
        q.schedule(15, [&] { seen = q.now(); });
    });
    q.run();
    EXPECT_EQ(seen, 25u);
}

TEST(EventQueue, RunOneExecutesExactlyOneEvent)
{
    EventQueue q;
    int count = 0;
    q.schedule(1, [&] { ++count; });
    q.schedule(2, [&] { ++count; });
    EXPECT_TRUE(q.runOne());
    EXPECT_EQ(count, 1);
    EXPECT_EQ(q.now(), 1u);
    EXPECT_TRUE(q.runOne());
    EXPECT_EQ(count, 2);
    EXPECT_FALSE(q.runOne());
}

TEST(EventQueue, RunUntilStopsAtLimit)
{
    EventQueue q;
    std::vector<Tick> fired;
    for (Tick t = 10; t <= 100; t += 10)
        q.scheduleAt(t, [&fired, &q] { fired.push_back(q.now()); });
    q.runUntil(50);
    EXPECT_EQ(fired.size(), 5u);
    EXPECT_EQ(q.now(), 50u);
    q.run();
    EXPECT_EQ(fired.size(), 10u);
}

TEST(EventQueue, RunUntilAdvancesTimeEvenWhenIdle)
{
    EventQueue q;
    q.runUntil(1000);
    EXPECT_EQ(q.now(), 1000u);
}

TEST(EventQueue, EventsExecutedCounts)
{
    EventQueue q;
    for (int i = 0; i < 7; ++i)
        q.schedule(Tick(i), [] {});
    q.run();
    EXPECT_EQ(q.eventsExecuted(), 7u);
}

TEST(EventQueue, ScheduleAtCurrentTimeIsLegal)
{
    EventQueue q;
    bool ran = false;
    q.schedule(5, [&] {
        q.scheduleAt(q.now(), [&] { ran = true; });
    });
    q.run();
    EXPECT_TRUE(ran);
}

TEST(EventQueue, SchedulingInThePastClampsToNow)
{
    EventQueue q;
    q.schedule(10, [] {});
    q.run();
    EXPECT_EQ(q.now(), 10u);

    // A past-time schedule is a model bug, but killing a long sweep
    // over it helps nobody: the event is clamped to now and a warning
    // logged, so time still never moves backwards.
    Tick ranAt = 0;
    q.scheduleAt(5, [&] { ranAt = q.now(); });
    q.run();
    EXPECT_EQ(ranAt, 10u);
    EXPECT_EQ(q.now(), 10u);
}

TEST(EventQueue, ClampedPastEventKeepsFifoOrderAtNow)
{
    EventQueue q;
    q.schedule(10, [] {});
    q.run();

    // The clamped event lands at now *after* anything already
    // scheduled there, preserving same-tick FIFO determinism.
    std::vector<int> order;
    q.scheduleAt(10, [&] { order.push_back(1); });
    q.scheduleAt(3, [&] { order.push_back(2); });
    q.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(EventQueue, TimeoutFiresLikeAnEvent)
{
    EventQueue q;
    Tick firedAt = 0;
    const auto id = q.scheduleTimeout(25, [&] { firedAt = q.now(); });
    EXPECT_NE(id, griffin::sim::invalidTimerId);
    EXPECT_EQ(q.pendingTimeouts(), 1u);
    q.run();
    EXPECT_EQ(firedAt, 25u);
    EXPECT_EQ(q.pendingTimeouts(), 0u);
}

TEST(EventQueue, CancelledTimeoutNeverFires)
{
    EventQueue q;
    bool fired = false;
    const auto id = q.scheduleTimeout(10, [&] { fired = true; });
    EXPECT_TRUE(q.cancelTimeout(id));
    EXPECT_EQ(q.pendingTimeouts(), 0u);
    EXPECT_TRUE(q.empty());
    q.run();
    EXPECT_FALSE(fired);
}

TEST(EventQueue, CancelTwiceIsFalse)
{
    EventQueue q;
    const auto id = q.scheduleTimeout(10, [] {});
    EXPECT_TRUE(q.cancelTimeout(id));
    EXPECT_FALSE(q.cancelTimeout(id));
    EXPECT_FALSE(q.cancelTimeout(griffin::sim::invalidTimerId));
}

TEST(EventQueue, CancelAfterFireIsFalse)
{
    EventQueue q;
    const auto id = q.scheduleTimeout(10, [] {});
    q.run();
    EXPECT_FALSE(q.cancelTimeout(id));
}

TEST(EventQueue, CancelledTimeoutDoesNotExtendRun)
{
    // A recovery timer armed past the last real event must not drag
    // the simulated end time out to its (cancelled) deadline.
    EventQueue q;
    q.schedule(10, [] {});
    const auto id = q.scheduleTimeout(1000000, [] {});
    q.schedule(5, [&] { q.cancelTimeout(id); });
    EXPECT_EQ(q.run(), 10u);
}

TEST(EventQueue, SizeExcludesCancelledTimeouts)
{
    EventQueue q;
    q.schedule(10, [] {});
    const auto id = q.scheduleTimeout(20, [] {});
    EXPECT_EQ(q.size(), 2u);
    q.cancelTimeout(id);
    EXPECT_EQ(q.size(), 1u);
    EXPECT_FALSE(q.empty());
}

TEST(EventQueue, RunUntilIgnoresCancelledDeadline)
{
    // A cancelled entry sitting at the top of the heap must not let
    // runUntil() execute a real event beyond the limit.
    EventQueue q;
    std::vector<Tick> fired;
    const auto id = q.scheduleTimeout(10, [&] { fired.push_back(10); });
    q.schedule(50, [&] { fired.push_back(50); });
    q.cancelTimeout(id);
    q.runUntil(20);
    EXPECT_TRUE(fired.empty());
    EXPECT_EQ(q.now(), 20u);
    q.run();
    EXPECT_EQ(fired, (std::vector<Tick>{50}));
}

TEST(EventQueue, RunUntilAdvancesToLimitWhenQueueDrainsEarly)
{
    // The drained-early contract: the caller asked to simulate up to
    // the limit, so that much time has passed even though the last
    // event fired long before it. Periodic callers (watchdog quiesce
    // checks, stats flushes) rely on observing now() == limit.
    EventQueue q;
    Tick lastEvent = 0;
    q.schedule(10, [&] { lastEvent = q.now(); });
    EXPECT_EQ(q.runUntil(500), 500u);
    EXPECT_EQ(lastEvent, 10u);
    EXPECT_EQ(q.now(), 500u);
    EXPECT_TRUE(q.empty());

    // Draining again from the advanced clock is idempotent, and a
    // later event is unaffected by the artificial advance.
    EXPECT_EQ(q.runUntil(500), 500u);
    Tick firedAt = 0;
    q.schedule(100, [&] { firedAt = q.now(); });
    q.run();
    EXPECT_EQ(firedAt, 600u);
}

TEST(EventQueue, NextTimeIsExactAfterCancel)
{
    // Arm a far-future recovery timer next to a near event, then
    // cancel it: nextTime()/size()/pendingTimeouts() must all agree
    // immediately — no tombstone may keep the dead deadline visible.
    EventQueue q;
    q.schedule(10, [] {});
    const auto id = q.scheduleTimeout(1000000, [] {});
    EXPECT_EQ(q.nextTime(), 10u);
    EXPECT_EQ(q.size(), 2u);
    EXPECT_EQ(q.pendingTimeouts(), 1u);

    EXPECT_TRUE(q.cancelTimeout(id));
    EXPECT_EQ(q.nextTime(), 10u);
    EXPECT_EQ(q.size(), 1u);
    EXPECT_EQ(q.pendingTimeouts(), 0u);

    EXPECT_TRUE(q.runOne());
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.nextTime(), griffin::maxTick);
}

TEST(EventQueue, NextTimeSkipsCancelledFront)
{
    // The cancelled timeout is the *earliest* entry: nextTime() must
    // report the first live event, not the tombstone's deadline.
    EventQueue q;
    const auto id = q.scheduleTimeout(5, [] {});
    q.schedule(50, [] {});
    EXPECT_EQ(q.nextTime(), 5u);
    EXPECT_TRUE(q.cancelTimeout(id));
    EXPECT_EQ(q.nextTime(), 50u);
    EXPECT_EQ(q.size(), 1u);
}

TEST(EventQueueStress, MillionTimerChurnKeepsMemoryBounded)
{
    // Chaos-style churn: the executor arms a recovery timer per batch
    // and cancels nearly all of them when the transfers land. A naive
    // tombstone scheme would accumulate one dead entry per cancel;
    // the queue must reclaim them and recycle timer slots.
    EventQueue q;
    constexpr int rounds = 1000000;
    std::uint32_t rng = 12345;
    std::uint64_t fired = 0;
    std::uint64_t cancelled = 0;
    std::vector<griffin::sim::TimerId> armed;
    for (int i = 0; i < rounds; ++i) {
        rng = rng * 1664525u + 1013904223u; // deterministic LCG
        // Short deadlines land in the ladder; every 8th timer is
        // pushed past the window into the spill heap (and is one of
        // the cancelled ones, so spill tombstones get exercised too).
        const Tick delay = 1 + (rng >> 24) + ((i & 7) == 3 ? 5000 : 0);
        armed.push_back(q.scheduleTimeout(delay, [&] { ++fired; }));
        if (armed.size() >= 8) {
            // Cancel 7 of 8; let the survivor fire (or linger).
            for (std::size_t k = 1; k < armed.size(); ++k)
                if (q.cancelTimeout(armed[k]))
                    ++cancelled;
            armed.clear();
        }
        if ((i & 1023) == 0)
            q.runUntil(q.now() + 16);
    }
    q.run();

    EXPECT_EQ(fired + cancelled, std::uint64_t(rounds));
    EXPECT_EQ(q.pendingTimeouts(), 0u);
    EXPECT_EQ(q.residentEntries(), 0u);
    // Slots recycle through the free list: the high-water mark is the
    // peak number of simultaneously pending timers (plus tombstoned
    // slots awaiting their entry's reclaim), not the total ever armed.
    EXPECT_LT(q.timerSlotsAllocated(), 20000u);
}

TEST(EventQueueStress, InterleavedEventsAndCancelsStayOrdered)
{
    // Timer churn interleaved with plain events: cancellations must
    // never disturb execution order of live work.
    EventQueue q;
    Tick last = 0;
    bool monotonic = true;
    std::uint32_t rng = 99;
    griffin::sim::TimerId pending = griffin::sim::invalidTimerId;
    for (int i = 0; i < 20000; ++i) {
        rng = rng * 1664525u + 1013904223u;
        const Tick t = 1 + (rng % 4096);
        q.schedule(t, [&, i] {
            (void)i;
            if (q.now() < last)
                monotonic = false;
            last = q.now();
        });
        if (pending != griffin::sim::invalidTimerId)
            q.cancelTimeout(pending);
        pending = q.scheduleTimeout(t + 100000, [] {});
        if ((i & 255) == 0)
            q.runUntil(q.now() + 64);
    }
    if (pending != griffin::sim::invalidTimerId)
        q.cancelTimeout(pending);
    q.run();
    EXPECT_TRUE(monotonic);
    EXPECT_EQ(q.residentEntries(), 0u);
}

// --- Window-boundary properties ------------------------------------
// The ladder covers a rolling 1024-tick window; events beyond it land
// in the spill heap and move into the ladder when the window rolls (or
// jumps) over them. Nothing about that seam may be observable: FIFO
// within a tick, global time order, and nextTime() exactness all hold
// on both sides of the boundary and across a roll.

TEST(EventQueueWindow, FifoHoldsAcrossTheLadderSpillBoundary)
{
    // Ticks 1022/1023 sit in the last ladder buckets, 1024/1025 spill.
    // Interleave schedules across the seam: execution must follow
    // (when, schedule order) exactly, as if the tiers did not exist.
    EventQueue q;
    std::vector<std::pair<Tick, int>> fired;
    std::vector<std::pair<Tick, int>> expected;
    int arrival = 0;
    for (int round = 0; round < 8; ++round) {
        for (Tick t : {Tick(1022), Tick(1023), Tick(1024), Tick(1025)}) {
            const int id = arrival++;
            q.scheduleAt(t, [&fired, t, id] { fired.push_back({t, id}); });
            expected.push_back({t, id});
        }
    }
    std::stable_sort(expected.begin(), expected.end(),
                     [](const auto &a, const auto &b) {
                         return a.first < b.first;
                     });
    q.run();
    EXPECT_EQ(fired, expected);
}

TEST(EventQueueWindow, SpillRedistributionPreservesFifoWithinTick)
{
    // All 64 events share one far-future tick, so every one takes the
    // spill -> jump -> ladder -> ring path; schedule order survives it.
    EventQueue q;
    std::vector<int> order;
    for (int i = 0; i < 64; ++i)
        q.schedule(5000, [&order, i] { order.push_back(i); });
    q.run();
    ASSERT_EQ(order.size(), 64u);
    for (int i = 0; i < 64; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(EventQueueWindow, LateArrivalsAtARedistributedTickStayFifo)
{
    // The first four events at tick 5000 spill; at tick 4000 the
    // window has rolled so 5000 is a ladder bucket, and four more events
    // append there directly. Global schedule order must still win.
    EventQueue q;
    std::vector<int> order;
    for (int i = 0; i < 4; ++i)
        q.schedule(5000, [&order, i] { order.push_back(i); });
    q.schedule(4000, [&] {
        for (int i = 4; i < 8; ++i)
            q.schedule(1000, [&order, i] { order.push_back(i); });
    });
    q.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
}

TEST(EventQueueWindow, NextTimeIsExactAfterCancelsAroundTheBoundary)
{
    // One timeout on each side of the seam plus a far event: as
    // timeouts cancel, nextTime() must step to the earliest *live*
    // entry with no tombstone — in the ladder or the spill top —
    // shining through.
    EventQueue q;
    const auto inLadder = q.scheduleTimeout(1023, [] {});
    const auto inSpill = q.scheduleTimeout(1024, [] {});
    q.schedule(1500, [] {});
    EXPECT_EQ(q.nextTime(), 1023u);

    EXPECT_TRUE(q.cancelTimeout(inLadder));
    EXPECT_EQ(q.nextTime(), 1024u);
    EXPECT_EQ(q.size(), 2u);

    EXPECT_TRUE(q.cancelTimeout(inSpill));
    EXPECT_EQ(q.nextTime(), 1500u);
    EXPECT_EQ(q.size(), 1u);

    EXPECT_TRUE(q.runOne());
    EXPECT_EQ(q.now(), 1500u);
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.nextTime(), griffin::maxTick);
}

TEST(EventQueueWindow, CancelledSpillTopDoesNotBlockTheSlide)
{
    // The spill's earliest entry is a cancelled timeout: the window
    // must jump to the first live event, not anchor on (or fire at)
    // the tombstone's deadline.
    EventQueue q;
    const auto dead = q.scheduleTimeout(2000, [] {});
    Tick firedAt = 0;
    q.schedule(3000, [&] { firedAt = q.now(); });
    EXPECT_TRUE(q.cancelTimeout(dead));
    EXPECT_EQ(q.run(), 3000u);
    EXPECT_EQ(firedAt, 3000u);
}

namespace {

/**
 * A randomized schedule for the tiered-vs-reference differential:
 * plain events that fire spawn children at delays in [0, 4096) from
 * inside their callbacks, so inserts land at every position of the
 * rolling window and on both sides of its end.
 */
struct HopScript
{
    EventQueue &q;
    std::vector<int> &order;
    std::uint32_t rng = 77;
    int children = 3000;
    int nextId = 100000;

    Tick
    draw()
    {
        rng = rng * 1664525u + 1013904223u;
        return (rng >> 20) & 4095;
    }

    void
    fire(Tick delay, int id)
    {
        q.schedule(delay, [this, id] {
            order.push_back(id);
            if (children > 0) {
                --children;
                fire(draw(), nextId++);
            }
        });
    }
};

} // namespace

TEST(EventQueueWindow, TieredAndReferenceSchedulersAgreeOnOrder)
{
    // One randomized script — bursty delays in [0, 4096) straddling
    // the window, scheduled from the top level and from callbacks,
    // timer arms, cancels, partial drains — must fire callbacks in the
    // identical order on the tiered queue and on the naive reference
    // heap (the differential the fuzz oracles rely on). Timers a window
    // ahead are cancelled while they sit in the spill.
    const auto script = [](EventQueue &q, std::vector<int> &order) {
        HopScript hops{q, order};
        std::uint32_t rng = 2024;
        std::vector<griffin::sim::TimerId> timers;
        std::vector<griffin::sim::TimerId> farTimers;
        int id = 0;
        for (int i = 0; i < 3000; ++i) {
            rng = rng * 1664525u + 1013904223u;
            const Tick delay = (rng >> 20) & 4095; // straddles 1024
            if ((rng & 3) == 0) {
                timers.push_back(q.scheduleTimeout(
                    delay + 1, [&order, id] { order.push_back(id); }));
            } else {
                hops.fire(delay, id);
            }
            ++id;
            if ((rng & 15) == 1 && !timers.empty()) {
                q.cancelTimeout(timers.back());
                timers.pop_back();
            }
            // A window or more ahead: these sit in the spill, and most
            // are cancelled there, leaving heap keys over tombstones.
            if ((rng & 7) == 5) {
                farTimers.push_back(q.scheduleTimeout(
                    1024 + delay, [&order, id] { order.push_back(-id); }));
            } else if ((rng & 7) == 6 && !farTimers.empty()) {
                q.cancelTimeout(farTimers.back());
                farTimers.pop_back();
            }
            if ((i & 127) == 0)
                q.runUntil(q.now() + 256);
        }
        q.run();
        EXPECT_EQ(hops.children, 0);
    };

    EventQueue tiered;
    std::vector<int> tieredOrder;
    script(tiered, tieredOrder);

    EventQueue reference;
    reference.enableReferenceMode();
    ASSERT_TRUE(reference.referenceMode());
    std::vector<int> referenceOrder;
    script(reference, referenceOrder);

    EXPECT_FALSE(tieredOrder.empty());
    EXPECT_EQ(tieredOrder, referenceOrder);
    EXPECT_EQ(tiered.eventsExecuted(), reference.eventsExecuted());
    EXPECT_EQ(tiered.now(), reference.now());
    EXPECT_GT(tiered.spillInserts(), 0u);
}

TEST(EventQueue, ManyEventsKeepTotalOrder)
{
    EventQueue q;
    Tick last = 0;
    bool monotonic = true;
    for (int i = 0; i < 5000; ++i) {
        const Tick t = Tick((i * 7919) % 1000);
        q.scheduleAt(t, [&, t] {
            if (t < last)
                monotonic = false;
            last = t;
        });
    }
    q.run();
    EXPECT_TRUE(monotonic);
    EXPECT_EQ(q.eventsExecuted(), 5000u);
}

// --- Mutation during in-place dispatch -------------------------------
// Callbacks run from their node in the arena, so while one runs nothing
// may move or free that node: not a same-tick insert, not a cancel that
// empties the queue (resetWindow), not a cancel storm that triggers
// compaction. Each scenario runs on the
// tiered queue and the reference heap, through EventQueue::run()
// (runOne) and through Engine::run() (runOne plus runSameTick), and
// must produce one execution order. Captures are Canaries: moving one
// zeroes the source and destroying one zeroes it, so a callback whose
// node moved or died under it records 0. (A freed node's storage stays
// in the arena, so the sanitizers alone would not see this.)

namespace {

struct Canary
{
    std::uint64_t v;
    explicit Canary(std::uint64_t x) : v(x) {}
    Canary(Canary &&o) noexcept : v(o.v) { poison(o); }
    Canary &operator=(Canary &&) = delete;
    ~Canary() { poison(*this); }

    /** A volatile store: the compiler may not drop it as dead. */
    static void
    poison(Canary &c)
    {
        *static_cast<volatile std::uint64_t *>(&c.v) = 0;
    }
};

struct ScriptRun
{
    std::vector<std::uint64_t> order;
    std::vector<griffin::sim::TimerId> timers;
    int budget = 0;
};

template <typename Script>
void
expectOrderMatchesReference(Script script)
{
    std::vector<std::vector<std::uint64_t>> orders;
    for (const bool reference : {false, true}) {
        for (const bool viaEngine : {false, true}) {
            griffin::sim::Engine engine;
            if (reference)
                engine.queue().enableReferenceMode();
            ScriptRun run;
            script(engine.queue(), run);
            if (viaEngine)
                engine.run();
            else
                engine.queue().run();
            EXPECT_TRUE(engine.queue().empty());
            EXPECT_EQ(engine.queue().residentEntries(), 0u);
            orders.push_back(std::move(run.order));
        }
    }
    ASSERT_FALSE(orders[0].empty());
    EXPECT_EQ(std::count(orders[0].begin(), orders[0].end(), 0u), 0)
        << "a callback read a capture after its slot moved or died";
    for (const auto &order : orders)
        EXPECT_EQ(order, orders[0]);
}

/** One cascade node: schedules two same-tick children while it runs. */
void
cascadeNode(EventQueue &q, ScriptRun &r, std::uint64_t id)
{
    q.schedule(0, [&q, &r, c = Canary(id)] {
        for (std::uint64_t k = 0; k < 2 && r.budget > 0; ++k, --r.budget)
            cascadeNode(q, r, c.v * 2 + k);
        if (c.v % 8 == 0) {
            q.schedule(1 + c.v % 5, [&r, f = Canary(c.v + 100000)] {
                r.order.push_back(f.v);
            });
        }
        r.order.push_back(c.v);
    });
}

} // namespace

TEST(EventQueueInPlace, SameTickCascadeGrowsTheRingUnderARunningCallback)
{
    // Several hundred same-tick events, each scheduled by a running
    // one: the current tick's list grows at its tail, and the arena by
    // whole chunks, while callbacks execute from their nodes.
    expectOrderMatchesReference([](EventQueue &q, ScriptRun &r) {
        r.budget = 600;
        q.schedule(7, [&q, &r] { cascadeNode(q, r, 1); });
        q.schedule(7, [&r, c = Canary(99999)] { r.order.push_back(c.v); });
    });
}

TEST(EventQueueInPlace, CancellingTheLastTimeoutEmptiesTheQueueMidDispatch)
{
    // Tick 10's list holds a timeout behind the running event;
    // cancelling that and the two later timeouts empties the queue, so
    // resetWindow() runs while the callback still executes from its
    // node. The callback then schedules into the empty queue.
    expectOrderMatchesReference([](EventQueue &q, ScriptRun &r) {
        q.schedule(10, [&q, &r, c = Canary(1)] {
            for (const auto id : r.timers)
                EXPECT_TRUE(q.cancelTimeout(id));
            r.order.push_back(q.empty() ? 5 : 6);
            q.schedule(5, [&r, d = Canary(2)] { r.order.push_back(d.v); });
            r.order.push_back(c.v);
        });
        r.timers.push_back(
            q.scheduleTimeout(10, [&r] { r.order.push_back(997); }));
        r.timers.push_back(
            q.scheduleTimeout(500, [&r] { r.order.push_back(998); }));
        r.timers.push_back(
            q.scheduleTimeout(5000, [&r] { r.order.push_back(999); }));
    });
}

TEST(EventQueueInPlace, CancelStormCompactsTheBatchUnderARunningCallback)
{
    // Three timeouts ahead of the running event in its tick's bucket
    // are cancelled at tick 5, so tombstones precede it in that list.
    // Then 150 more, a third of them behind the running event in its
    // tick's list and the rest in the ladder and the spill, plus live
    // events on both sides. Cancelling those crosses the compaction
    // threshold mid-dispatch: compact() relinks every list around the
    // running node, which is in none.
    expectOrderMatchesReference([](EventQueue &q, ScriptRun &r) {
        for (std::uint64_t i = 0; i < 3; ++i) {
            r.timers.push_back(q.scheduleTimeout(
                20, [&r, i] { r.order.push_back(900 + i); }));
        }
        q.schedule(5, [&q, &r] {
            for (std::size_t i = 0; i < 3; ++i)
                EXPECT_TRUE(q.cancelTimeout(r.timers[i]));
        });
        q.schedule(20, [&q, &r, c = Canary(1)] {
            for (std::size_t i = 3; i < r.timers.size(); ++i)
                EXPECT_TRUE(q.cancelTimeout(r.timers[i]));
            r.order.push_back(q.residentEntries() < 100 ? 2 : 3);
            r.order.push_back(c.v);
        });
        for (std::uint64_t i = 0; i < 150; ++i) {
            const Tick delay = i % 3 == 0 ? 20 : 20 + i * 40;
            r.timers.push_back(q.scheduleTimeout(
                delay, [&r, i] { r.order.push_back(1000 + i); }));
        }
        for (std::uint64_t i = 0; i < 5; ++i) {
            q.schedule(20, [&r, c = Canary(10 + i)] {
                r.order.push_back(c.v);
            });
            q.schedule(3000 + i, [&r, c = Canary(20 + i)] {
                r.order.push_back(c.v);
            });
        }
    });
}

// --- Rolling window --------------------------------------------------
// The ladder window becomes [t, t + 1024) whenever time reaches a
// bucket at tick t, pulling in every spill entry it now covers. A hop
// shorter than the window therefore never spills, whatever else is in
// the ladder, and a tick's spilled events stay ahead of its later
// direct inserts.

namespace {

/** Keeps the ladder busy: an event every @p period ticks to @p until. */
struct Ticker
{
    EventQueue &q;
    Tick period;
    Tick until;

    void
    arm()
    {
        q.schedule(period, [this] {
            if (q.now() + period <= until)
                arm();
        });
    }
};

/** Independent chains re-scheduling 502-1023 ticks ahead (fabric hops). */
struct HopChains
{
    EventQueue &q;
    int budget;
    std::uint32_t rng = 1;
    Tick longHopAt = 0;

    void
    hop()
    {
        if (budget-- <= 0)
            return;
        rng = rng * 1664525u + 1013904223u;
        Tick delay = 502 + (rng >> 16) % 522;
        if (longHopAt != 0 && q.now() >= longHopAt) {
            delay = 1024; // one hop a full window ahead
            longHopAt = 0;
        }
        q.schedule(delay, [this] { hop(); });
    }
};

/** Tick-100 steps that each schedule two events at @p target. */
void
stepTowards(EventQueue &q, ScriptRun &r, Tick target, std::uint64_t step)
{
    q.schedule(100, [&q, &r, target, step] {
        for (std::uint64_t k = 0; k < 2; ++k) {
            q.scheduleAt(target, [&r, c = Canary(1000 + step * 10 + k)] {
                r.order.push_back(c.v);
            });
        }
        r.order.push_back(step);
        if (q.now() + 100 < target)
            stepTowards(q, r, target, step + 1);
    });
}

} // namespace

TEST(EventQueueRoll, FabricHopsUnderABusyLadderNeverSpill)
{
    // 16 chains keep the ladder occupied at all times, so the window
    // never finds the near future empty. Every hop still lands inside
    // it because it rolls with time.
    EventQueue q;
    HopChains chains{q, 20000};
    for (int k = 0; k < 16; ++k)
        chains.hop();
    q.run();
    EXPECT_EQ(q.eventsExecuted(), 20000u);
    EXPECT_EQ(q.spillInserts(), 0u);

    // A hop of exactly the window's length is the first that spills.
    EventQueue far;
    HopChains farChains{far, 20000};
    farChains.longHopAt = 100000;
    for (int k = 0; k < 16; ++k)
        farChains.hop();
    far.run();
    EXPECT_EQ(farChains.longHopAt, 0u);
    EXPECT_EQ(far.spillInserts(), 1u);
}

TEST(EventQueueRoll, SpilledAndDirectInsertsAtOneTickKeepScheduleOrder)
{
    // Steps at ticks 100..2400 each add two events at tick 2500. Those
    // from ticks up to 1400 spill (2500 is a window or more ahead);
    // the roll at tick 1500 moves them into 2500's bucket, and the
    // steps from 1500 on append there directly. Dispatch order must be
    // the reference heap's.
    const auto script = [](EventQueue &q, ScriptRun &r) {
        stepTowards(q, r, 2500, 1);
    };
    expectOrderMatchesReference(script);

    EventQueue q;
    ScriptRun r;
    script(q, r);
    q.run();
    EXPECT_EQ(q.spillInserts(), 28u); // 14 steps x 2, the rest direct
    EXPECT_EQ(r.order.size(), 24u * 3u);
}

TEST(EventQueueRoll, CancelledTimeoutPulledInByARollIsDropped)
{
    // The cancelled timeout is a tombstone in the spill. The roll that
    // covers its tick drops it instead of filing it in the ladder, so
    // the resident count returns to the live count.
    EventQueue q;
    Ticker ticker{q, 100, 3000};
    ticker.arm();
    const auto dead = q.scheduleTimeout(1500, [] {});
    q.schedule(1600, [] {});
    EXPECT_TRUE(q.cancelTimeout(dead));
    EXPECT_EQ(q.residentEntries(), q.size() + 1);

    q.runUntil(700); // the roll at tick 500 covers tick 1500
    EXPECT_EQ(q.residentEntries(), q.size());
    EXPECT_EQ(q.spillInserts(), 2u);
    EXPECT_EQ(q.run(), 3000u);
    EXPECT_EQ(q.residentEntries(), 0u);
}

TEST(EventQueueRoll, RunUntilStoppingMidWindowThenResumingMatchesReference)
{
    // runUntil() leaves the clock between buckets (and once beyond the
    // window's end, with the ladder empty); inserts made there, then
    // the resumed run, must keep the reference heap's order.
    expectOrderMatchesReference([](EventQueue &q, ScriptRun &r) {
        const auto at = [&q, &r](Tick delay, std::uint64_t id) {
            q.schedule(delay, [&r, c = Canary(id)] {
                r.order.push_back(c.v);
            });
        };
        for (const Tick d : {10, 300, 900, 1100, 2000, 5000})
            at(d, 1 + d);
        q.runUntil(500);
        for (const Tick d : {0, 1, 523, 1023, 1024, 1500})
            at(d, 10000 + d);
        q.runUntil(1200);
        at(0, 20000);
        at(400, 20001);
        q.runUntil(3500); // past the window's end; only 5000 remains
        for (const Tick d : {0, 3, 1023, 1024})
            at(d, 30000 + d);
    });
}

// --- Node arena ------------------------------------------------------
// Every pending event is a node in chunks that never move; a node is
// freed onto a LIFO free list once its callback returns or throws, so
// the arena's capacity is the peak resident count rounded up to a
// chunk, whatever the run's length.

namespace {

constexpr std::size_t kChunk = EventQueue::nodesPerChunk;

std::size_t
roundUpToChunk(std::size_t n)
{
    return (n + kChunk - 1) / kChunk * kChunk;
}

} // namespace

TEST(EventQueueArena, FullCaptureSurvivesArenaGrowthWhileItRuns)
{
    // The running callback's 56-byte capture stays put while it fills
    // three chunks' worth of new nodes (the chunk table reallocates).
    struct Context
    {
        EventQueue q;
        int ran = 0;
        std::array<std::uint64_t, 6> seen{};
    };
    for (const bool reference : {false, true}) {
        Context ctx;
        if (reference)
            ctx.q.enableReferenceMode();
        std::array<std::uint64_t, 6> capture;
        for (std::size_t k = 0; k < capture.size(); ++k)
            capture[k] = 0x5eed0000 + k;
        const auto fn = [ctx = &ctx, c = capture] {
            for (std::size_t k = 0; k < 3 * kChunk; ++k)
                ctx->q.schedule(k % 3, [ctx] { ++ctx->ran; });
            ctx->seen = c;
        };
        static_assert(sizeof(fn) == griffin::sim::EventFn::capacity);
        ctx.q.schedule(3, fn);
        ctx.q.run();
        EXPECT_EQ(ctx.seen, capture);
        EXPECT_EQ(ctx.ran, int(3 * kChunk));
        EXPECT_EQ(ctx.q.nodesAllocated(), roundUpToChunk(3 * kChunk + 1));
    }
}

TEST(EventQueueArena, MillionHopChainsNeedOnlyTheirPeakLiveNodes)
{
    // k fabric-hop chains keep at most k events pending (plus the
    // running one) over a million dispatches through the ladder and,
    // once, the spill: the arena stays at k rounded up to a chunk.
    constexpr std::size_t k = 1000;
    EventQueue q;
    HopChains chains{q, 1000000};
    chains.longHopAt = 100000;
    for (std::size_t c = 0; c < k; ++c)
        chains.hop();
    q.run();
    EXPECT_EQ(q.eventsExecuted(), 1000000u);
    EXPECT_EQ(q.spillInserts(), 1u);
    EXPECT_LE(q.nodesAllocated(), roundUpToChunk(k + 1));
    EXPECT_EQ(q.residentEntries(), 0u);
}

TEST(EventQueueArena, MillionTimerChurnNeedsOnlyItsPeakResidentNodes)
{
    // At most 400 timers are armed at once, and compaction keeps the
    // tombstones of cancelled ones at most max(64, live): resident nodes
    // never exceed 2 * 400 + 64, so the arena never outgrows that
    // rounded up to a chunk, however many timers churn through it.
    constexpr std::size_t armed = 400;
    EventQueue q;
    std::uint32_t rng = 7;
    std::uint64_t fired = 0;
    std::uint64_t cancelled = 0;
    std::vector<griffin::sim::TimerId> ring(armed,
                                            griffin::sim::invalidTimerId);
    for (std::size_t i = 0; i < 1000000; ++i) {
        rng = rng * 1664525u + 1013904223u;
        griffin::sim::TimerId &slot = ring[i % armed];
        if (q.cancelTimeout(slot))
            ++cancelled;
        const Tick delay = 1 + (rng >> 20) % ((rng & 7) == 0 ? 3000 : 300);
        slot = q.scheduleTimeout(delay, [&fired] { ++fired; });
        ASSERT_LE(q.size(), armed);
        if ((i & 31) == 0)
            q.runUntil(q.now() + 4);
    }
    q.run();
    EXPECT_EQ(fired + cancelled, 1000000u);
    EXPECT_GT(cancelled, 0u);
    EXPECT_GT(fired, 0u);
    EXPECT_LE(q.nodesAllocated(), roundUpToChunk(2 * armed + 64));
    EXPECT_EQ(q.residentEntries(), 0u);
}

TEST(EventQueueArena, ThrowingCallbackFreesItsNode)
{
    // A throwing callback's node is freed on the way out: the counts
    // stay exact, later events run in order, and a run of throws
    // recycles one node instead of growing the arena.
    for (const bool reference : {false, true}) {
        EventQueue q;
        if (reference)
            q.enableReferenceMode();
        std::vector<int> order;
        q.schedule(5, [] { throw std::runtime_error("boom"); });
        q.schedule(5, [&order] { order.push_back(1); });
        q.schedule(10, [&order] { order.push_back(3); });
        EXPECT_THROW(q.runOne(), std::runtime_error);
        EXPECT_EQ(q.now(), 5u);
        EXPECT_EQ(q.size(), 2u);
        EXPECT_EQ(q.residentEntries(), 2u);
        q.schedule(0, [&order] { order.push_back(2); });
        q.run();
        EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
        EXPECT_EQ(q.residentEntries(), 0u);

        for (std::size_t i = 0; i < 3 * kChunk; ++i) {
            q.schedule(1, [] { throw std::runtime_error("again"); });
            EXPECT_THROW(q.runOne(), std::runtime_error);
        }
        EXPECT_TRUE(q.empty());
        EXPECT_EQ(q.nodesAllocated(), kChunk);
    }
}

// --- The inline insert and dispatch paths ----------------------------
// claim() appends to a ladder bucket inline and sends every other
// insert (an empty queue, a full arena, the current tick, the spill,
// reference mode) to one out-of-line helper; dispatch() runs plain
// events inline and timers out of line. Each seam between the two must
// keep the reference heap's order.

namespace {

/** Schedule an event at @p delay that records @p id when it runs. */
void
record(EventQueue &q, ScriptRun &r, Tick delay, std::uint64_t id)
{
    q.schedule(delay, [&r, c = Canary(id)] { r.order.push_back(c.v); });
}

} // namespace

TEST(EventQueueInline, WindowEndMinusOneIsLadderWindowEndIsSpill)
{
    // The window is [now, now + 1024) both at the start and after time
    // moves: one tick short of its end is a ladder append, its end is
    // the first spill insert.
    const auto script = [](EventQueue &q, ScriptRun &r) {
        for (std::uint64_t k = 0; k < 3; ++k) {
            record(q, r, 1024, 10 + k);
            record(q, r, 1023, 20 + k);
        }
        q.schedule(100, [&q, &r] {
            for (std::uint64_t k = 0; k < 3; ++k) {
                record(q, r, 1023, 30 + k);
                record(q, r, 1024, 40 + k);
            }
            r.order.push_back(1);
        });
    };
    expectOrderMatchesReference(script);

    EventQueue q;
    ScriptRun r;
    script(q, r);
    EXPECT_EQ(q.spillInserts(), 3u);
    q.run();
    EXPECT_EQ(q.spillInserts(), 6u);
    EXPECT_EQ(r.order, (std::vector<std::uint64_t>{1, 20, 21, 22, 10, 11,
                                                   12, 30, 31, 32, 40, 41,
                                                   42}));
}

TEST(EventQueueInline, InsertIntoADrainedQueueReanchorsTheWindow)
{
    // Time moved (by a dispatch, then by runUntil() with the queue
    // empty), so the window anchored at tick 0 is long gone; the next
    // insert re-anchors it at now() and lands in the ladder, not the
    // spill.
    const auto script = [](EventQueue &q, ScriptRun &r) {
        record(q, r, 5000, 1);
        q.run();
        record(q, r, 1023, 2);
        record(q, r, 1, 3);
        record(q, r, 0, 4);
        q.run();
        q.runUntil(20000);
        record(q, r, 5, 5);
        record(q, r, 1024, 6);
    };
    expectOrderMatchesReference(script);

    EventQueue q;
    ScriptRun r;
    script(q, r);
    EXPECT_EQ(q.spillInserts(), 2u); // tick 5000, then 20000 + 1024
    q.run();
    EXPECT_EQ(r.order, (std::vector<std::uint64_t>{1, 4, 3, 2, 5, 6}));
    EXPECT_EQ(q.now(), 21024u);
}

TEST(EventQueueInline, ArenaGrowsUnderARunningCallbackOnEveryInsertPath)
{
    // One callback fills two chunks and more with inserts cycling over
    // the current tick, the ladder, the last ladder tick and the spill,
    // so the arena grows mid-cycle on each path.
    constexpr std::size_t inserts = 2 * EventQueue::nodesPerChunk + 37;
    const auto script = [](EventQueue &q, ScriptRun &r) {
        q.schedule(7, [&q, &r, c = Canary(1)] {
            static constexpr Tick delays[] = {0, 1, 9, 1023, 1024, 3000};
            for (std::size_t k = 0; k < inserts; ++k)
                record(q, r, delays[k % std::size(delays)], 100 + k);
            r.order.push_back(c.v);
        });
    };
    expectOrderMatchesReference(script);

    EventQueue q;
    ScriptRun r;
    script(q, r);
    q.run();
    EXPECT_EQ(r.order.size(), inserts + 1);
    EXPECT_EQ(q.nodesAllocated(), roundUpToChunk(inserts + 1));
}

TEST(EventQueueInline, TickOfOnlyCancelledTimersIsSkipped)
{
    // Tick 50's bucket holds nothing but cancelled timeouts, and tick
    // 40's live event is followed by one: neither tombstone fires, and
    // time steps from 40 straight to 60.
    const auto script = [](EventQueue &q, ScriptRun &r) {
        record(q, r, 40, 1);
        for (int k = 0; k < 3; ++k)
            r.timers.push_back(q.scheduleTimeout(50, [&r] {
                r.order.push_back(999);
            }));
        r.timers.push_back(q.scheduleTimeout(40, [&r] {
            r.order.push_back(998);
        }));
        q.scheduleTimeout(60, [&q, &r] {
            r.order.push_back(q.now());
        });
        record(q, r, 60, 2);
        for (const auto id : r.timers)
            EXPECT_TRUE(q.cancelTimeout(id));
    };
    expectOrderMatchesReference(script);

    EventQueue q;
    ScriptRun r;
    script(q, r);
    EXPECT_EQ(q.size(), 3u);
    EXPECT_EQ(q.residentEntries(), 7u);
    EXPECT_TRUE(q.runOne());
    EXPECT_EQ(q.now(), 40u);
    EXPECT_EQ(q.nextTime(), 60u);
    EXPECT_EQ(q.residentEntries(), 2u);
    q.run();
    EXPECT_EQ(r.order, (std::vector<std::uint64_t>{1, 60, 2}));
    EXPECT_EQ(q.pendingTimeouts(), 0u);
}
