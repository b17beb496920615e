/**
 * @file
 * Unit tests for the interval time-series recorder: boundary rows,
 * the final partial and zero-width rows, totals/row reconciliation,
 * nearest-rank fault percentiles, and link utilization. The recorder
 * differences cumulative counters, so each test bumps the counters
 * its sources read, where the system bumps its own aggregates.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>

#include "src/obs/telemetry.hh"
#include "src/obs/timeseries.hh"
#include "src/sim/engine.hh"

using griffin::Tick;
using griffin::obs::LatencyHistograms;
using griffin::obs::Telemetry;
using griffin::obs::TimeSeries;
using griffin::obs::faultServiced;
using griffin::sim::Engine;

using Series = TimeSeries::Series;

namespace {

/** The run aggregates a recorder's sources read. */
struct Aggregates
{
    std::uint64_t migrations = 0;
    std::uint64_t dcaAccesses = 0;
    std::uint64_t shootdowns = 0;
    double busy = 0.0;
    /** Installed in the latency slot: faultServiced() counts here. */
    LatencyHistograms latency;

    TimeSeries::Sources
    sources(unsigned wires = 0)
    {
        const auto read = [](const std::uint64_t &counter) {
            return [&counter] { return double(counter); };
        };
        return {
            .counts = {read(migrations), read(dcaAccesses),
                       read(shootdowns),
                       [this] {
                           return double(latency.faultLatency.count());
                       }},
            .linkBusy = [this] { return busy; },
            .wires = wires,
        };
    }
};

} // namespace

TEST(TimeSeries, StaticGuardsAreNoOpsWhenNothingIsAttached)
{
    ASSERT_EQ(Telemetry::current().series, nullptr);
    faultServiced(42);
    ASSERT_EQ(Telemetry::current().series, nullptr);
}

TEST(TimeSeries, EventsLandInTheirIntervalRow)
{
    Engine e;
    Aggregates agg;
    TimeSeries ts(100, agg.sources());
    ts.start(e);
    e.schedule(10, [&agg] { ++agg.migrations; });
    e.schedule(150, [&agg] { agg.dcaAccesses += 3; });
    e.schedule(250, [&agg] { ++agg.shootdowns; });
    e.run();
    ts.stop();

    // Boundary rows [0,100) and [100,200), plus the final partial
    // [200,250) closed by stop().
    const auto &rows = ts.summary().rows;
    ASSERT_EQ(rows.size(), 3u);
    EXPECT_EQ(rows[0].begin, Tick(0));
    EXPECT_EQ(rows[0].end, Tick(100));
    EXPECT_EQ(rows[0].counts[unsigned(Series::Migrations)], 1u);
    EXPECT_EQ(rows[1].counts[unsigned(Series::DcaAccesses)], 3u);
    EXPECT_EQ(rows[2].begin, Tick(200));
    EXPECT_EQ(rows[2].end, Tick(250));
    EXPECT_EQ(rows[2].counts[unsigned(Series::Shootdowns)], 1u);
}

TEST(TimeSeries, EventsOnTheLastBoundaryTickCloseAZeroWidthRow)
{
    Engine e;
    Aggregates agg;
    TimeSeries ts(100, agg.sources());
    const Telemetry::Scope attached(
        {.latency = &agg.latency, .series = &ts});
    ts.start(e);
    e.schedule(10, [&agg] { ++agg.migrations; });
    e.schedule(200, [&agg] {
        ++agg.migrations;
        faultServiced(30);
    });
    e.run();
    ts.stop();

    // The boundary hook at 200 fires before the events of tick 200
    // run, so they land in a final zero-width row [200, 200).
    const auto &rows = ts.summary().rows;
    ASSERT_EQ(rows.size(), 3u);
    EXPECT_EQ(rows[0].end, Tick(100));
    EXPECT_EQ(rows[0].counts[unsigned(Series::Migrations)], 1u);
    EXPECT_EQ(rows[1].begin, Tick(100));
    EXPECT_EQ(rows[1].end, Tick(200));
    EXPECT_EQ(rows[1].counts[unsigned(Series::Migrations)], 0u);
    EXPECT_EQ(rows[2].begin, Tick(200));
    EXPECT_EQ(rows[2].end, Tick(200));
    EXPECT_EQ(rows[2].counts[unsigned(Series::Migrations)], 1u);
    EXPECT_EQ(rows[2].counts[unsigned(Series::Faults)], 1u);
    EXPECT_DOUBLE_EQ(rows[2].faultP50, 30.0);
    EXPECT_DOUBLE_EQ(rows[2].linkUtil, 0.0);
    EXPECT_EQ(ts.summary().totals[unsigned(Series::Migrations)], 2u);
}

TEST(TimeSeries, DestroyedWhileRunningTakesItsLastSampleSafely)
{
    // A run that throws (the watchdog) never reaches stop(): the
    // recorder's Sampler then takes its final sample while the
    // recorder is being destroyed, with a fault latency pending.
    Engine e;
    Aggregates agg;
    auto ts = std::make_unique<TimeSeries>(100, agg.sources());
    {
        const Telemetry::Scope attached(
            {.latency = &agg.latency, .series = ts.get()});
        ts->start(e);
        e.schedule(150, [] { faultServiced(5); });
        e.run();
    }
    ts.reset();
    EXPECT_EQ(agg.latency.faultLatency.count(), 1u);
}

TEST(TimeSeries, TotalsReconcileWithTheRowSums)
{
    Engine e;
    Aggregates agg;
    TimeSeries ts(50, agg.sources());
    const Telemetry::Scope attached(
        {.latency = &agg.latency, .series = &ts});
    ts.start(e);
    for (Tick t = 5; t < 300; t += 7) {
        e.schedule(t, [&agg] {
            ++agg.migrations;
            faultServiced(10);
        });
    }
    e.run();
    ts.stop();

    std::uint64_t migrations = 0, faults = 0;
    for (const auto &row : ts.summary().rows) {
        migrations += row.counts[unsigned(Series::Migrations)];
        faults += row.counts[unsigned(Series::Faults)];
    }
    const auto &totals = ts.summary().totals;
    EXPECT_EQ(totals[unsigned(Series::Migrations)], migrations);
    EXPECT_EQ(totals[unsigned(Series::Faults)], faults);
    EXPECT_EQ(migrations, 43u); // ceil((300 - 5) / 7)
    EXPECT_EQ(faults, 43u);
}

TEST(TimeSeries, StopIsIdempotent)
{
    Engine e;
    Aggregates agg;
    TimeSeries ts(100, agg.sources());
    ts.start(e);
    e.schedule(30, [&agg] { ++agg.migrations; });
    e.run();
    ts.stop();
    const std::size_t rows = ts.summary().rows.size();
    ts.stop(); // must not add another row
    EXPECT_EQ(ts.summary().rows.size(), rows);
    EXPECT_EQ(ts.summary().totals[unsigned(Series::Migrations)], 1u);
}

TEST(TimeSeries, FaultPercentilesAreNearestRank)
{
    Engine e;
    Aggregates agg;
    TimeSeries ts(1000, agg.sources());
    const Telemetry::Scope attached(
        {.latency = &agg.latency, .series = &ts});
    ts.start(e);
    e.schedule(10, [] {
        for (int i = 1; i <= 20; ++i)
            faultServiced(Tick(i));
    });
    e.run();
    ts.stop();

    ASSERT_EQ(ts.summary().rows.size(), 1u);
    const auto &row = ts.summary().rows[0];
    EXPECT_EQ(row.counts[unsigned(Series::Faults)], 20u);
    // Nearest rank over 20 samples: p50 -> 10th value, p95 -> 19th.
    EXPECT_DOUBLE_EQ(row.faultP50, 10.0);
    EXPECT_DOUBLE_EQ(row.faultP95, 19.0);
}

TEST(TimeSeries, LinkUtilIsTheMeanBusyFractionPerInterval)
{
    Engine e;
    Aggregates agg;
    TimeSeries ts(100, agg.sources(2));
    ts.start(e);
    // 50 busy cycles land in the first interval; 2 wires over 100
    // ticks give 200 wire-ticks of capacity -> 0.25.
    e.schedule(40, [&agg] { agg.busy += 50.0; });
    e.schedule(150, [&agg] { ++agg.migrations; });
    e.run();
    ts.stop();

    const auto &rows = ts.summary().rows;
    ASSERT_GE(rows.size(), 2u);
    EXPECT_DOUBLE_EQ(rows[0].linkUtil, 0.25);
    EXPECT_DOUBLE_EQ(rows[1].linkUtil, 0.0);
}

TEST(TimeSeries, SummaryCarriesTickRowsAndTotals)
{
    Engine e;
    Aggregates agg;
    TimeSeries ts(100, agg.sources());
    ts.start(e);
    e.schedule(10, [&agg] { ++agg.migrations; });
    e.run();
    ts.stop();

    const TimeSeries::Summary s = ts.summary();
    EXPECT_EQ(s.tick, Tick(100));
    EXPECT_EQ(s.rows.size(), 1u); // [0, 10)
    EXPECT_EQ(s.totals[unsigned(Series::Migrations)], 1u);
}
