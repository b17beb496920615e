/**
 * @file
 * Unit tests for gpu::DataPhase, the drain-scoped data-phase registry:
 * its busy count against a per-page count map under random
 * enter/leave/drain traffic, and the waiter firing at exactly the
 * leave that satisfies the drain.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <random>
#include <utility>
#include <vector>

#include "src/gpu/data_phase.hh"

using namespace griffin;
using gpu::DataPhase;

namespace {

std::shared_ptr<const std::vector<PageId>>
pagesOf(std::vector<PageId> pages)
{
    return std::make_shared<const std::vector<PageId>>(std::move(pages));
}

} // namespace

TEST(DataPhase, SatisfiedWithoutADrain)
{
    DataPhase dp;
    const auto t = dp.enter(3);
    EXPECT_TRUE(dp.satisfied());
    EXPECT_EQ(dp.live(), 1u);
    dp.leave(t);
    EXPECT_EQ(dp.live(), 0u);
}

TEST(DataPhase, BeginDrainCountsOnlyDrainSetPages)
{
    DataPhase dp;
    dp.enter(3);
    dp.enter(5);
    dp.enter(5);
    dp.enter(8);
    dp.beginDrain(pagesOf({4, 5, 8}));
    EXPECT_EQ(dp.busy(), 3u);
    dp.endDrain();
    EXPECT_EQ(dp.busy(), 0u);
    EXPECT_TRUE(dp.satisfied());
}

TEST(DataPhase, WaiterRunsAtTheSatisfyingLeave)
{
    DataPhase dp;
    const auto a = dp.enter(5);
    const auto b = dp.enter(5);
    const auto other = dp.enter(6);
    dp.beginDrain(pagesOf({5}));
    int fired = 0;
    dp.await([&] { ++fired; });
    dp.leave(other);
    dp.leave(a);
    EXPECT_EQ(fired, 0);
    EXPECT_TRUE(dp.awaiting());
    dp.leave(b);
    EXPECT_EQ(fired, 1);
    EXPECT_FALSE(dp.awaiting());
    // The drain ended with its waiter: page 5 no longer counts.
    dp.enter(5);
    EXPECT_TRUE(dp.satisfied());
}

TEST(DataPhase, MatchesPerPageCountsUnderRandomTraffic)
{
    for (std::uint32_t seed : {11u, 12u, 13u, 14u}) {
        std::mt19937 rng(seed);
        DataPhase dp;
        std::map<PageId, std::uint32_t> counts;
        std::vector<std::pair<DataPhase::Token, PageId>> inflight;
        std::shared_ptr<const std::vector<PageId>> drain;
        int fired = 0, expectFired = 0;
        bool waiting = false;

        // The predicate the registry replaces: no in-flight access to
        // a drain-set page, checked page by page.
        const auto refSatisfied = [&] {
            if (!drain)
                return true;
            return std::all_of(drain->begin(), drain->end(),
                               [&](PageId p) { return counts[p] == 0; });
        };

        for (int step = 0; step < 20000; ++step) {
            const unsigned op = rng() % 100;
            if (op < 45 || inflight.empty()) {
                const PageId page = rng() % 24;
                inflight.emplace_back(dp.enter(page), page);
                ++counts[page];
            } else if (op < 90) {
                const std::size_t k = rng() % inflight.size();
                const auto [token, page] = inflight[k];
                inflight[k] = inflight.back();
                inflight.pop_back();
                --counts[page];
                dp.leave(token);
                if (waiting && refSatisfied()) {
                    // The old per-leave check would end the drain here.
                    ++expectFired;
                    waiting = false;
                    drain.reset();
                }
            } else if (!drain) {
                std::vector<PageId> pages;
                for (PageId p = 0; p < 24; ++p) {
                    if (rng() % 6 == 0)
                        pages.push_back(p);
                }
                drain = pagesOf(pages);
                dp.beginDrain(drain);
            } else if (!waiting && !refSatisfied()) {
                dp.await([&] { ++fired; });
                waiting = true;
            } else if (!waiting) {
                dp.endDrain();
                drain.reset();
            }
            ASSERT_EQ(dp.satisfied(), refSatisfied()) << "step " << step;
            ASSERT_EQ(fired, expectFired) << "step " << step;
            ASSERT_EQ(dp.awaiting(), waiting) << "step " << step;
            ASSERT_EQ(dp.live(), inflight.size());
            if (drain) {
                std::uint64_t busy = 0;
                for (const PageId p : *drain)
                    busy += counts[p];
                ASSERT_EQ(dp.busy(), busy) << "step " << step;
            }
        }
        EXPECT_GT(expectFired, 0);
    }
}
