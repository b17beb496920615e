/**
 * @file
 * Unit tests for the interval time-series recorder: boundary rows,
 * the final partial flush, totals/row reconciliation, nearest-rank
 * fault percentiles, and the link-utilization probe.
 */

#include <gtest/gtest.h>

#include "src/obs/timeseries.hh"
#include "src/sim/engine.hh"

using griffin::Tick;
using griffin::obs::Telemetry;
using griffin::obs::TimeSeries;
using griffin::obs::faultServiced;
using griffin::sim::Engine;

using Series = TimeSeries::Series;

TEST(TimeSeries, StaticGuardsAreNoOpsWhenNothingIsAttached)
{
    ASSERT_EQ(Telemetry::current().series, nullptr);
    TimeSeries::countActive(Series::Migrations);
    faultServiced(42);
    ASSERT_EQ(Telemetry::current().series, nullptr);
}

TEST(TimeSeries, EventsLandInTheirIntervalRow)
{
    Engine e;
    TimeSeries ts(100);
    const Telemetry::Scope attached({.series = &ts});
    ts.start(e);
    e.schedule(10, [] { TimeSeries::countActive(Series::Migrations); });
    e.schedule(150, [] {
        TimeSeries::countActive(Series::DcaAccesses, 3);
    });
    e.schedule(250, [] { TimeSeries::countActive(Series::Shootdowns); });
    e.run();
    ts.stop();

    // Boundary rows [0,100) and [100,200), plus the final partial
    // [200,250) flushed by stop().
    ASSERT_EQ(ts.rows().size(), 3u);
    EXPECT_EQ(ts.rows()[0].begin, Tick(0));
    EXPECT_EQ(ts.rows()[0].end, Tick(100));
    EXPECT_EQ(ts.rows()[0].counts[unsigned(Series::Migrations)], 1u);
    EXPECT_EQ(ts.rows()[1].counts[unsigned(Series::DcaAccesses)], 3u);
    EXPECT_EQ(ts.rows()[2].begin, Tick(200));
    EXPECT_EQ(ts.rows()[2].end, Tick(250));
    EXPECT_EQ(ts.rows()[2].counts[unsigned(Series::Shootdowns)], 1u);
}

TEST(TimeSeries, TotalsReconcileWithTheRowSums)
{
    Engine e;
    TimeSeries ts(50);
    const Telemetry::Scope attached({.series = &ts});
    ts.start(e);
    for (Tick t = 5; t < 300; t += 7) {
        e.schedule(t, [] {
            TimeSeries::countActive(Series::Migrations);
            faultServiced(10);
        });
    }
    e.run();
    ts.stop();

    std::uint64_t migrations = 0, faults = 0;
    for (const auto &row : ts.rows()) {
        migrations += row.counts[unsigned(Series::Migrations)];
        faults += row.counts[unsigned(Series::Faults)];
    }
    EXPECT_EQ(ts.total(Series::Migrations), migrations);
    EXPECT_EQ(ts.total(Series::Faults), faults);
    EXPECT_EQ(migrations, 43u); // ceil((300 - 5) / 7)
    EXPECT_EQ(faults, 43u);
}

TEST(TimeSeries, StopIsIdempotent)
{
    Engine e;
    TimeSeries ts(100);
    const Telemetry::Scope attached({.series = &ts});
    ts.start(e);
    e.schedule(30, [] { TimeSeries::countActive(Series::Migrations); });
    e.run();
    ts.stop();
    const std::size_t rows = ts.rows().size();
    ts.stop(); // must not add another row
    EXPECT_EQ(ts.rows().size(), rows);
    EXPECT_EQ(ts.total(Series::Migrations), 1u);
}

TEST(TimeSeries, FaultPercentilesAreNearestRank)
{
    Engine e;
    TimeSeries ts(1000);
    const Telemetry::Scope attached({.series = &ts});
    ts.start(e);
    e.schedule(10, [] {
        for (int i = 1; i <= 20; ++i)
            faultServiced(Tick(i));
    });
    e.run();
    ts.stop();

    ASSERT_EQ(ts.rows().size(), 1u);
    const auto &row = ts.rows()[0];
    EXPECT_EQ(row.counts[unsigned(Series::Faults)], 20u);
    // Nearest rank over 20 samples: p50 -> 10th value, p95 -> 19th.
    EXPECT_DOUBLE_EQ(row.faultP50, 10.0);
    EXPECT_DOUBLE_EQ(row.faultP95, 19.0);
}

TEST(TimeSeries, LinkUtilIsTheMeanBusyFractionPerInterval)
{
    Engine e;
    double busy = 0.0;
    TimeSeries ts(100);
    ts.setLinkBusyProbe([&busy] { return busy; }, 2);
    const Telemetry::Scope attached({.series = &ts});
    ts.start(e);
    // 50 busy cycles land in the first interval; 2 wires over 100
    // ticks give 200 wire-ticks of capacity -> 0.25.
    e.schedule(40, [&busy] { busy += 50.0; });
    e.schedule(150, [] { TimeSeries::countActive(Series::Migrations); });
    e.run();
    ts.stop();

    ASSERT_GE(ts.rows().size(), 2u);
    EXPECT_DOUBLE_EQ(ts.rows()[0].linkUtil, 0.25);
    EXPECT_DOUBLE_EQ(ts.rows()[1].linkUtil, 0.0);
}

TEST(TimeSeries, SummaryCarriesTickRowsAndTotals)
{
    Engine e;
    TimeSeries ts(100);
    const Telemetry::Scope attached({.series = &ts});
    ts.start(e);
    e.schedule(10, [] { TimeSeries::countActive(Series::Migrations); });
    e.run();
    ts.stop();

    const TimeSeries::Summary s = ts.summary();
    EXPECT_EQ(s.tick, Tick(100));
    EXPECT_EQ(s.rows.size(), ts.rows().size());
    EXPECT_EQ(s.totals[unsigned(Series::Migrations)], 1u);
}
