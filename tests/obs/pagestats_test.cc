/**
 * @file
 * Unit tests for the per-page lifecycle recorder: event accounting,
 * churn detection (window semantics), reuse distance, residency
 * timelines, deterministic top tables, and the no-op guards when the
 * pages slot is empty.
 */

#include <gtest/gtest.h>

#include <string>

#include "src/obs/pagestats.hh"
#include "src/sim/engine.hh"

using griffin::DeviceId;
using griffin::PageId;
using griffin::Tick;
using griffin::cpuDeviceId;
using griffin::obs::PageEvent;
using griffin::obs::PageStats;
using griffin::obs::PageStatsConfig;
using griffin::obs::PageStatsSummary;
using griffin::obs::Telemetry;
using griffin::obs::numPageEvents;
using griffin::obs::pageEventName;

TEST(PageStats, EventNamesAreStableSnakeCase)
{
    EXPECT_STREQ(pageEventName(PageEvent::FirstTouch), "first_touch");
    EXPECT_STREQ(pageEventName(PageEvent::DftmDenial), "dftm_denial");
    EXPECT_STREQ(pageEventName(PageEvent::MigrationCommit),
                 "migration_commit");
    EXPECT_STREQ(pageEventName(PageEvent::Recovery), "recovery");
    // Every enumerator has a distinct name (a switch fell through if
    // two collide).
    for (unsigned a = 0; a < numPageEvents; ++a) {
        for (unsigned b = a + 1; b < numPageEvents; ++b) {
            EXPECT_STRNE(pageEventName(PageEvent(a)),
                         pageEventName(PageEvent(b)));
        }
    }
}

TEST(PageStats, StaticGuardsAreNoOpsWhenNothingIsAttached)
{
    ASSERT_EQ(Telemetry::current().pages, nullptr);
    // Must not crash, must not touch any instance.
    PageStats::recordActive(PageEvent::MigrationCommit, 7, 0, 1, 100);
    PageStats::recordActiveNow(PageEvent::FirstTouch, 7, 0, 1);
    ASSERT_EQ(Telemetry::current().pages, nullptr);
}

TEST(PageStats, CountsEventsGloballyAndPerPage)
{
    PageStats ps;
    const Telemetry::Scope attached({.pages = &ps});
    PageStats::recordActive(PageEvent::FirstTouch, 1, cpuDeviceId, 1, 10);
    PageStats::recordActive(PageEvent::FirstTouch, 2, cpuDeviceId, 2, 20);
    PageStats::recordActive(PageEvent::DftmDenial, 2, cpuDeviceId, 2, 20);

    EXPECT_EQ(ps.eventCount(PageEvent::FirstTouch), 2u);
    EXPECT_EQ(ps.eventCount(PageEvent::DftmDenial), 1u);
    EXPECT_EQ(ps.eventCount(PageEvent::MigrationCommit), 0u);
    EXPECT_EQ(ps.pagesTracked(), 2u);
}

TEST(PageStats, PingPongWithinTheWindowIsChurn)
{
    PageStatsConfig cfg;
    cfg.enabled = true;
    cfg.churnWindow = 1000;
    PageStats ps(cfg);
    const Telemetry::Scope attached({.pages = &ps});
    // Page 5: CPU -> GPU1 -> GPU2 -> GPU1. The third commit returns
    // the page to GPU1, 100 ticks after it left GPU1: churn.
    PageStats::recordActive(PageEvent::MigrationCommit, 5, 0, 1, 100);
    PageStats::recordActive(PageEvent::MigrationCommit, 5, 1, 2, 200);
    EXPECT_EQ(ps.churnEvents(), 0u);
    PageStats::recordActive(PageEvent::MigrationCommit, 5, 2, 1, 300);

    EXPECT_EQ(ps.churnEvents(), 1u);
    EXPECT_EQ(ps.churnOf(5), 1u);
    EXPECT_EQ(ps.migrationsOf(5), 3u);
}

TEST(PageStats, ReturnOutsideTheWindowIsNotChurn)
{
    PageStatsConfig cfg;
    cfg.enabled = true;
    cfg.churnWindow = 50;
    PageStats ps(cfg);
    const Telemetry::Scope attached({.pages = &ps});
    PageStats::recordActive(PageEvent::MigrationCommit, 5, 0, 1, 0);
    PageStats::recordActive(PageEvent::MigrationCommit, 5, 1, 2, 10);
    // Returns to GPU1 90 ticks after leaving it: outside the window.
    PageStats::recordActive(PageEvent::MigrationCommit, 5, 2, 1, 100);

    EXPECT_EQ(ps.churnEvents(), 0u);
    EXPECT_EQ(ps.churnOf(5), 0u);
}

TEST(PageStats, OneWayMigrationIsNeverChurn)
{
    PageStats ps;
    const Telemetry::Scope attached({.pages = &ps});
    // A page marching forward never returns anywhere.
    PageStats::recordActive(PageEvent::MigrationCommit, 9, 0, 1, 10);
    PageStats::recordActive(PageEvent::MigrationCommit, 9, 1, 2, 20);
    PageStats::recordActive(PageEvent::MigrationCommit, 9, 2, 3, 30);
    EXPECT_EQ(ps.churnEvents(), 0u);
}

TEST(PageStats, ReuseDistanceSpansConsecutiveCommits)
{
    PageStats ps;
    const Telemetry::Scope attached({.pages = &ps});
    PageStats::recordActive(PageEvent::MigrationCommit, 3, 0, 1, 100);
    PageStats::recordActive(PageEvent::MigrationCommit, 3, 1, 2, 400);

    const PageStatsSummary s = ps.summary();
    EXPECT_EQ(s.reuseDistance.count(), 1u);
    EXPECT_DOUBLE_EQ(s.reuseDistance.mean(), 300.0);
}

TEST(PageStats, ResidencyTimelineIsSeededWithTheFirstHome)
{
    PageStats ps;
    const Telemetry::Scope attached({.pages = &ps});
    PageStats::recordActive(PageEvent::FirstTouch, 8, cpuDeviceId, 2, 50);
    PageStats::recordActive(PageEvent::MigrationCommit, 8, cpuDeviceId,
                            2, 120);
    PageStats::recordActive(PageEvent::MigrationCommit, 8, 2, 3, 500);

    const PageStatsSummary s = ps.summary();
    ASSERT_EQ(s.hotPages.size(), 1u);
    const auto &tp = s.hotPages[0];
    EXPECT_EQ(tp.page, 8u);
    EXPECT_EQ(tp.lastLocation, DeviceId(3));
    // Seed hop (first seen, at CPU), then the two commits.
    ASSERT_EQ(tp.residency.size(), 3u);
    EXPECT_EQ(tp.residency[0].at, Tick(50));
    EXPECT_EQ(tp.residency[0].device, cpuDeviceId);
    EXPECT_EQ(tp.residency[1].at, Tick(120));
    EXPECT_EQ(tp.residency[1].device, DeviceId(2));
    EXPECT_EQ(tp.residency[2].at, Tick(500));
    EXPECT_EQ(tp.residency[2].device, DeviceId(3));
}

TEST(PageStats, TopTablesAreSortedAndDeterministic)
{
    PageStatsConfig cfg;
    cfg.enabled = true;
    cfg.topN = 2;
    PageStats ps(cfg);
    const Telemetry::Scope attached({.pages = &ps});
    // Page 10: 1 commit; page 11: 3 commits (1 churn); page 12: 2.
    PageStats::recordActive(PageEvent::MigrationCommit, 10, 0, 1, 10);
    PageStats::recordActive(PageEvent::MigrationCommit, 11, 0, 1, 10);
    PageStats::recordActive(PageEvent::MigrationCommit, 11, 1, 2, 20);
    PageStats::recordActive(PageEvent::MigrationCommit, 11, 2, 1, 30);
    PageStats::recordActive(PageEvent::MigrationCommit, 12, 0, 2, 10);
    PageStats::recordActive(PageEvent::MigrationCommit, 12, 2, 3, 20);

    const PageStatsSummary s = ps.summary();
    EXPECT_EQ(s.pagesMigrated, 3u);
    EXPECT_EQ(s.totalMigrations, 6u);
    EXPECT_EQ(s.maxMigrationsOnePage, 3u);
    EXPECT_EQ(s.churnEvents, 1u);
    EXPECT_EQ(s.churnPages, 1u);

    // Hot table: top-2 by migrations desc, page asc.
    ASSERT_EQ(s.hotPages.size(), 2u);
    EXPECT_EQ(s.hotPages[0].page, 11u);
    EXPECT_EQ(s.hotPages[1].page, 12u);

    // Thrashing table: only pages with churn > 0.
    ASSERT_EQ(s.thrashingPages.size(), 1u);
    EXPECT_EQ(s.thrashingPages[0].page, 11u);
    EXPECT_EQ(s.thrashingPages[0].churn, 1u);
}

TEST(PageStats, AttachNestsLifo)
{
    PageStats outer, inner;
    {
        const Telemetry::Scope outer_scope({.pages = &outer});
        PageStats::recordActive(PageEvent::FirstTouch, 1, 0, 1, 5);
        {
            const Telemetry::Scope inner_scope({.pages = &inner});
            EXPECT_EQ(Telemetry::current().pages, &inner);
            PageStats::recordActive(PageEvent::FirstTouch, 2, 0, 1, 6);
        }
        EXPECT_EQ(Telemetry::current().pages, &outer);
    }
    EXPECT_EQ(Telemetry::current().pages, nullptr);

    EXPECT_EQ(outer.eventCount(PageEvent::FirstTouch), 1u);
    EXPECT_EQ(inner.eventCount(PageEvent::FirstTouch), 1u);
    EXPECT_EQ(outer.pagesTracked(), 1u);
    EXPECT_EQ(inner.pagesTracked(), 1u);
}

TEST(PageStats, RecordNowReadsTheInjectedClock)
{
    griffin::sim::Engine e;
    e.schedule(77, [] {});
    e.run();

    PageStats ps;
    const Telemetry::Scope attached({.pages = &ps, .clock = &e});
    PageStats::recordActiveNow(PageEvent::MigrationCommit, 4,
                               cpuDeviceId, 1);

    const PageStatsSummary s = ps.summary();
    ASSERT_EQ(s.hotPages.size(), 1u);
    ASSERT_EQ(s.hotPages[0].residency.size(), 2u);
    EXPECT_EQ(s.hotPages[0].residency[1].at, Tick(77));
}

TEST(PageStats, SummaryOfAnEmptyRecorderIsAllZero)
{
    PageStats ps;
    const PageStatsSummary s = ps.summary();
    EXPECT_TRUE(s.enabled);
    EXPECT_EQ(s.pagesTracked, 0u);
    EXPECT_EQ(s.pagesMigrated, 0u);
    EXPECT_EQ(s.churnEvents, 0u);
    EXPECT_TRUE(s.hotPages.empty());
    EXPECT_TRUE(s.thrashingPages.empty());
}
