/**
 * @file
 * Unit tests for sim::SlotPool: index reuse, reference stability
 * while the pool grows, live-count bookkeeping across a drained
 * engine run, state destruction, and the double-release assert.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <vector>

#include "src/sim/engine.hh"
#include "src/sim/slot_pool.hh"

using griffin::Tick;
using griffin::sim::Engine;
using griffin::sim::EventFn;
using griffin::sim::SlotId;
using griffin::sim::SlotPool;

namespace {

struct Req
{
    int value;
    EventFn done;
};

} // namespace

TEST(SlotPool, ReleasedIndexIsReused)
{
    SlotPool<Req> pool;
    const SlotId a = pool.acquire(1, nullptr);
    const SlotId b = pool.acquire(2, nullptr);
    EXPECT_NE(a, b);
    pool.release(a);
    EXPECT_EQ(pool.live(), 1u);
    const SlotId c = pool.acquire(3, nullptr);
    EXPECT_EQ(c, a);
    EXPECT_EQ(pool[c].value, 3);
    EXPECT_EQ(pool[b].value, 2);
}

TEST(SlotPool, ReferencesStayValidWhileThePoolGrows)
{
    SlotPool<Req> pool;
    const SlotId first = pool.acquire(-1, nullptr);
    Req &held = pool[first];
    std::vector<SlotId> ids;
    for (int i = 0; i < 1000; ++i)
        ids.push_back(pool.acquire(i, nullptr));
    EXPECT_EQ(&held, &pool[first]);
    EXPECT_EQ(held.value, -1);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(pool[ids[std::size_t(i)]].value, i);
    EXPECT_EQ(std::set<SlotId>(ids.begin(), ids.end()).size(), 1000u);
}

TEST(SlotPool, TakeMovesTheStateOutAndReleases)
{
    SlotPool<Req> pool;
    int hits = 0;
    const SlotId s = pool.acquire(7, [&hits] { ++hits; });
    Req r = pool.take(s);
    EXPECT_EQ(pool.live(), 0u);
    EXPECT_EQ(r.value, 7);
    r.done();
    EXPECT_EQ(hits, 1);
}

TEST(SlotPool, LiveCountReturnsToZeroAfterADrainedRun)
{
    // Requests hop through the engine capturing only {pool, slot}, as
    // the simulator's components do; the last hop takes the slot.
    Engine engine;
    SlotPool<Req> pool;
    int completed = 0;
    for (int i = 0; i < 200; ++i) {
        const SlotId s = pool.acquire(i, [&completed] { ++completed; });
        engine.schedule(Tick(i % 7), [&engine, &pool, s] {
            engine.schedule(Tick(pool[s].value % 5),
                            [&pool, s] { pool.take(s).done(); });
        });
    }
    EXPECT_EQ(pool.live(), 200u);
    engine.run();
    EXPECT_EQ(completed, 200);
    EXPECT_EQ(pool.live(), 0u);
    // The drained pool hands out one of its 200 indices again.
    EXPECT_LT(pool.acquire(0, nullptr), 200u);
}

TEST(SlotPool, DestroysStateOnReleaseAndAtTeardown)
{
    auto token = std::make_shared<int>(0);
    {
        SlotPool<std::shared_ptr<int>> pool;
        const SlotId a = pool.acquire(token);
        pool.acquire(token);
        EXPECT_EQ(token.use_count(), 3);
        pool.release(a);
        EXPECT_EQ(token.use_count(), 2);
    }
    EXPECT_EQ(token.use_count(), 1);
}

TEST(SlotPool, ForEachLiveVisitsExactlyTheLiveSlots)
{
    // Span three chunks and free slots in each, so the walk must skip
    // released indices inside a chunk as well as past its end.
    SlotPool<Req> pool;
    std::vector<SlotId> ids;
    for (int i = 0; i < 150; ++i)
        ids.push_back(pool.acquire(i, nullptr));
    std::multiset<int> want;
    for (int i = 0; i < 150; ++i) {
        if (i % 3 == 0)
            pool.release(ids[std::size_t(i)]);
        else
            want.insert(i);
    }
    std::vector<int> seen;
    pool.forEachLive([&seen](const Req &r) { seen.push_back(r.value); });
    EXPECT_EQ(std::multiset<int>(seen.begin(), seen.end()), want);
    EXPECT_TRUE(std::is_sorted(seen.begin(), seen.end()));
    EXPECT_EQ(seen.size(), pool.live());
}

TEST(SlotPoolDeathTest, ReleasingAFreeSlotAsserts)
{
    SlotPool<Req> pool;
    const SlotId s = pool.acquire(1, nullptr);
    pool.release(s);
    EXPECT_DEATH(pool.release(s), "releasing a free slot");
}
