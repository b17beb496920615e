/**
 * @file
 * Unit tests for the telemetry slot set: every slot is empty by
 * default, a Telemetry::Scope installs only the slots it is given,
 * nested scopes restore the whole previous set LIFO, and the
 * TraceSession attach/detach wrapper composes with scopes.
 */

#include <gtest/gtest.h>

#include <stdexcept>

#include "src/obs/hostprof.hh"
#include "src/obs/pagestats.hh"
#include "src/obs/span.hh"
#include "src/obs/telemetry.hh"
#include "src/obs/timeseries.hh"
#include "src/obs/trace.hh"
#include "src/sim/engine.hh"

using namespace griffin;
using obs::Telemetry;

namespace {

bool
allEmpty(const Telemetry &t)
{
    return !t.trace && !t.latency && !t.spans && !t.pages && !t.series &&
           !t.prof && !t.clock;
}

} // namespace

TEST(TelemetryScope, NestsAndRestoresEverySlot)
{
    ASSERT_TRUE(allEmpty(Telemetry::current()));

    obs::TraceSession trace_a, trace_b;
    obs::LatencyHistograms lat_a, lat_b;
    obs::FaultSpans spans_a, spans_b;
    obs::PageStats pages_a, pages_b;
    obs::TimeSeries series_a(100, {}), series_b(100, {});
    obs::HostProfiler prof_a, prof_b;
    sim::Engine clock_a, clock_b;
    {
        const Telemetry::Scope outer({&trace_a, &lat_a, &spans_a, &pages_a,
                                      &series_a, &prof_a, &clock_a});
        {
            // Only some slots overridden: the rest are inherited.
            const Telemetry::Scope inner({
                .latency = &lat_b,
                .pages = &pages_b,
                .prof = &prof_b,
                .clock = &clock_b,
            });
            const Telemetry &t = Telemetry::current();
            EXPECT_EQ(t.trace, &trace_a);
            EXPECT_EQ(t.latency, &lat_b);
            EXPECT_EQ(t.spans, &spans_a);
            EXPECT_EQ(t.pages, &pages_b);
            EXPECT_EQ(t.series, &series_a);
            EXPECT_EQ(t.prof, &prof_b);
            EXPECT_EQ(t.clock, &clock_b);
            {
                const Telemetry::Scope innermost({
                    .trace = &trace_b,
                    .spans = &spans_b,
                    .series = &series_b,
                });
                EXPECT_EQ(Telemetry::current().trace, &trace_b);
                EXPECT_EQ(Telemetry::current().spans, &spans_b);
                EXPECT_EQ(Telemetry::current().series, &series_b);
                EXPECT_EQ(Telemetry::current().pages, &pages_b);
            }
            EXPECT_EQ(Telemetry::current().trace, &trace_a);
            EXPECT_EQ(Telemetry::current().spans, &spans_a);
            EXPECT_EQ(Telemetry::current().series, &series_a);
        }
        const Telemetry &t = Telemetry::current();
        EXPECT_EQ(t.trace, &trace_a);
        EXPECT_EQ(t.latency, &lat_a);
        EXPECT_EQ(t.spans, &spans_a);
        EXPECT_EQ(t.pages, &pages_a);
        EXPECT_EQ(t.series, &series_a);
        EXPECT_EQ(t.prof, &prof_a);
        EXPECT_EQ(t.clock, &clock_a);
    }
    EXPECT_TRUE(allEmpty(Telemetry::current()));

    // Recording goes to whichever sink holds the slot at the time.
    {
        const Telemetry::Scope outer({.pages = &pages_a});
        obs::PageStats::recordActive(obs::PageEvent::FirstTouch, 1, 0, 1, 5);
        {
            const Telemetry::Scope inner({.pages = &pages_b});
            obs::PageStats::recordActive(obs::PageEvent::FirstTouch, 2, 0, 1,
                                         6);
        }
    }
    EXPECT_EQ(pages_a.pagesTracked(), 1u);
    EXPECT_EQ(pages_b.pagesTracked(), 1u);
}

TEST(TelemetryScope, TraceAttachComposesWithScopes)
{
    obs::TraceSession bench_trace, run_trace;
    obs::LatencyHistograms lat;
    bench_trace.attach();
    {
        // A scope that leaves the trace slot empty inherits the
        // attached session, the way a system's run does.
        const Telemetry::Scope run({.latency = &lat});
        EXPECT_EQ(obs::TraceSession::active(), &bench_trace);
        run_trace.attach();
        EXPECT_EQ(obs::TraceSession::active(), &run_trace);
        run_trace.detach();
        EXPECT_EQ(obs::TraceSession::active(), &bench_trace);
    }
    EXPECT_EQ(obs::TraceSession::active(), &bench_trace);
    EXPECT_EQ(Telemetry::current().latency, nullptr);
    bench_trace.detach();
    EXPECT_TRUE(allEmpty(Telemetry::current()));
}

TEST(TelemetryScope, ScopeRestoresOnException)
{
    obs::FaultSpans spans;
    try {
        const Telemetry::Scope scope({.spans = &spans});
        throw std::runtime_error("watchdog");
    } catch (const std::runtime_error &) {
    }
    EXPECT_TRUE(allEmpty(Telemetry::current()));
}

TEST(TelemetryScope, MomentsFanOutToTheSetSlots)
{
    // Nothing set: every moment is a no-op.
    EXPECT_EQ(obs::faultRaised(1, 7, 0, 1, 2, 3), invalidFaultId);
    obs::faultServiced(10);
    obs::pageCommitted(7, 0, 1);

    sim::Engine engine;
    obs::LatencyHistograms lat;
    const auto zero = [] { return 0.0; };
    const auto faults = [&lat] { return double(lat.faultLatency.count()); };
    obs::TimeSeries series(
        1000, {.counts = {zero, zero, zero, faults}, .linkBusy = zero});
    obs::PageStats pages;
    series.start(engine);
    const Telemetry::Scope scope(
        {.latency = &lat, .pages = &pages, .series = &series});
    obs::faultServiced(40);
    obs::migrationAborted(9, 2, 60, 100);
    obs::pageCommitted(7, 0, 1);
    obs::transferCommitted(cpuDeviceId, 1, 7, invalidFaultId, 10, 30);
    obs::transferCommitted(1, 2, 8, invalidFaultId, 10, 50);

    EXPECT_EQ(lat.faultLatency.count(), 2u);
    EXPECT_EQ(lat.cpuMigrationLatency.count(), 1u);
    EXPECT_EQ(lat.interGpuMigrationLatency.count(), 1u);
    EXPECT_EQ(pages.eventCount(obs::PageEvent::MigrationAbort), 1u);
    EXPECT_EQ(pages.eventCount(obs::PageEvent::DcaFallback), 1u);
    EXPECT_EQ(pages.eventCount(obs::PageEvent::Recovery), 1u);
    EXPECT_EQ(pages.eventCount(obs::PageEvent::MigrationCommit), 1u);
    series.stop();
    // Both serviced faults (one of them aborted) reached the series.
    using S = obs::TimeSeries::Series;
    const obs::TimeSeries::Summary &s = series.summary();
    EXPECT_EQ(s.totals[unsigned(S::Faults)], 2u);
    ASSERT_EQ(s.rows.size(), 1u);
    EXPECT_DOUBLE_EQ(s.rows[0].faultP50, 40.0);
    EXPECT_DOUBLE_EQ(s.rows[0].faultP95, 60.0);
}
