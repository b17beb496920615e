/**
 * @file
 * Tests for sys::SweepRunner, centred on the property the bench
 * harness depends on: a sweep executed across 8 worker threads yields
 * bit-identical results — StatSet maps, report JSON, every RunResult
 * field a table is built from — to the same sweep executed serially.
 * Each simulation owns its engine and RNG streams and all cross-run
 * observability state is thread-local, so nothing may leak between
 * concurrent runs.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/obs/telemetry.hh"
#include "src/obs/trace.hh"
#include "src/sys/multi_gpu_system.hh"
#include "src/sys/report.hh"
#include "src/sys/sweep_runner.hh"
#include "src/workloads/workload.hh"

using namespace griffin;
using sys::RunResult;
using sys::SweepRunner;

namespace {

/** One simulation point of a sweep. */
struct Point
{
    std::string label;
    std::string workload;
    sys::SystemConfig config;
};

/** The MT/BFS x {baseline, griffin} grid of the determinism spec. */
std::vector<Point>
gridPoints()
{
    std::vector<Point> points;
    for (const char *name : {"MT", "BFS"}) {
        for (const bool griffin_run : {false, true}) {
            points.push_back(
                {std::string(name) + "/" +
                     (griffin_run ? "griffin" : "first-touch"),
                 name,
                 griffin_run ? sys::SystemConfig::griffinDefault()
                             : sys::SystemConfig::baseline()});
        }
    }
    return points;
}

std::unique_ptr<wl::Workload>
workloadOf(const Point &p)
{
    wl::WorkloadConfig wcfg;
    wcfg.scaleDiv = 64;
    wcfg.seed = 42;
    return wl::makeWorkload(p.workload, wcfg);
}

/** One point, built and run straight through, as a sweep job does. */
RunResult
runPoint(const Point &p)
{
    const auto workload = workloadOf(p);
    sys::MultiGpuSystem system(p.config);
    return system.run(*workload);
}

/** Run @p points on @p workers; results by submission index. */
std::vector<RunResult>
runPoints(const std::vector<Point> &points, unsigned workers)
{
    SweepRunner runner(workers);
    std::vector<RunResult> results(points.size());
    for (std::size_t i = 0; i < points.size(); ++i)
        runner.submit([&, i] { results[i] = runPoint(points[i]); });
    runner.run();
    return results;
}

std::vector<RunResult>
runGrid(unsigned workers)
{
    return runPoints(gridPoints(), workers);
}

} // namespace

TEST(SweepRunner, ParallelRunMatchesSerialBitForBit)
{
    const auto serial = runGrid(1);
    const auto parallel = runGrid(8);
    const auto jobs = gridPoints();
    ASSERT_EQ(serial.size(), parallel.size());
    ASSERT_EQ(serial.size(), jobs.size());

    for (std::size_t i = 0; i < serial.size(); ++i) {
        SCOPED_TRACE(jobs[i].label);
        const RunResult &s = serial[i];
        const RunResult &p = parallel[i];

        // Everything a figure table reads.
        EXPECT_EQ(s.cycles, p.cycles);
        EXPECT_EQ(s.pagesPerDevice, p.pagesPerDevice);
        EXPECT_EQ(s.pagesMigratedFromCpu, p.pagesMigratedFromCpu);
        EXPECT_EQ(s.pagesMigratedInterGpu, p.pagesMigratedInterGpu);
        EXPECT_EQ(s.cpuShootdowns, p.cpuShootdowns);
        EXPECT_EQ(s.gpuShootdowns, p.gpuShootdowns);

        // Every counter the simulation produced.
        EXPECT_EQ(s.stats.all(), p.stats.all());

        // The full report document (config, counters, histogram
        // percentiles) as CI's perf gate would serialize it.
        EXPECT_EQ(
            sys::runReportJson(jobs[i].label, jobs[i].config, s).dump(2),
            sys::runReportJson(jobs[i].label, jobs[i].config, p).dump(2));
    }
}

TEST(SweepRunner, ChaosSweepIsByteIdenticalAcrossJobCounts)
{
    // Each simulation owns its FaultInjector (split from the chaos
    // seed), so a sweep under sustained injection must stay
    // bit-identical whether it runs on 1 worker or 8.
    const auto chaos =
        sys::ChaosConfig::parse("dma=0.3,link=0.02,walker=0.05");
    ASSERT_TRUE(chaos.has_value());
    auto jobs = gridPoints();
    for (Point &job : jobs)
        job.config.chaos = *chaos;

    const auto serial = runPoints(jobs, 1);
    const auto parallel = runPoints(jobs, 8);
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        SCOPED_TRACE(jobs[i].label);
        EXPECT_GT(serial[i].chaosInjected, 0u);
        EXPECT_EQ(serial[i].auditViolations, 0u);
        EXPECT_EQ(serial[i].cycles, parallel[i].cycles);
        EXPECT_EQ(serial[i].chaosInjected, parallel[i].chaosInjected);
        EXPECT_EQ(serial[i].chaosRetries, parallel[i].chaosRetries);
        EXPECT_EQ(serial[i].stats.all(), parallel[i].stats.all());
        EXPECT_EQ(
            sys::runReportJson(jobs[i].label, jobs[i].config,
                               serial[i]).dump(2),
            sys::runReportJson(jobs[i].label, jobs[i].config,
                               parallel[i]).dump(2));
    }
}

TEST(SweepRunner, TelemetrySweepIsByteIdenticalAcrossJobCounts)
{
    // Page-stats and time-series recorders are thread_local sinks
    // attached per run, so an instrumented sweep must serialize to
    // byte-identical reports whether it runs on 1 worker or 8 — the
    // property `--page-stats --timeseries=N --jobs=8` depends on.
    auto jobs = gridPoints();
    for (Point &job : jobs) {
        job.config.pageStats.enabled = true;
        job.config.timeseriesTick = 50000;
    }

    const auto serial = runPoints(jobs, 1);
    const auto parallel = runPoints(jobs, 8);
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        SCOPED_TRACE(jobs[i].label);
        ASSERT_TRUE(serial[i].pageStats.enabled);
        EXPECT_EQ(serial[i].pageStats.totalMigrations,
                  parallel[i].pageStats.totalMigrations);
        EXPECT_EQ(serial[i].pageStats.churnEvents,
                  parallel[i].pageStats.churnEvents);
        EXPECT_EQ(serial[i].timeseries.rows.size(),
                  parallel[i].timeseries.rows.size());
        // The full serialized report, page_stats and timeseries
        // sections included, byte for byte.
        EXPECT_EQ(
            sys::runReportJson(jobs[i].label, jobs[i].config,
                               serial[i]).dump(2),
            sys::runReportJson(jobs[i].label, jobs[i].config,
                               parallel[i]).dump(2));
    }
}

TEST(SweepRunner, ResultsComeBackInSubmissionOrder)
{
    // Each job writes its result and label at its submission index,
    // regardless of which worker finished first.
    SweepRunner runner(4);
    const auto jobs = gridPoints();
    std::vector<RunResult> parallel(jobs.size());
    std::vector<std::string> labels(jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const std::size_t idx = runner.submit([&, i] {
            parallel[i] = runPoint(jobs[i]);
            labels[i] = jobs[i].label;
        });
        EXPECT_EQ(idx, i);
    }
    EXPECT_EQ(runner.pending(), 4u);
    const auto results = runGrid(1);
    runner.run();
    EXPECT_EQ(runner.pending(), 0u);
    ASSERT_EQ(parallel.size(), 4u);
    for (std::size_t i = 0; i < 4; ++i) {
        EXPECT_EQ(parallel[i].cycles, results[i].cycles);
        EXPECT_FALSE(labels[i].empty());
    }
}

TEST(SweepRunner, EarliestSubmittedExceptionWins)
{
    // Whatever the worker count, both failing jobs run to completion
    // and the rethrown error is the earliest-submitted one.
    for (const unsigned workers : {1u, 4u}) {
        SCOPED_TRACE(workers);
        SweepRunner runner(workers);
        std::atomic<bool> secondRan{false};
        runner.submit([] { throw std::runtime_error("first"); });
        runner.submit([&secondRan] {
            secondRan = true;
            throw std::runtime_error("second");
        });
        try {
            runner.run();
            ADD_FAILURE() << "expected the sweep to rethrow";
        } catch (const std::runtime_error &e) {
            EXPECT_STREQ(e.what(), "first");
        }
        EXPECT_TRUE(secondRan);
    }
}

TEST(SweepRunner, PerRunTraceSessionsStayIsolated)
{
    // Each job installs its own session on its worker thread; events
    // must never bleed into a neighbour's session, and a serial rerun
    // must produce the same per-run event counts.
    auto record = [](unsigned workers) {
        SweepRunner runner(workers);
        std::vector<std::unique_ptr<obs::TraceSession>> sessions;
        for (const Point &p : gridPoints()) {
            auto &session =
                sessions.emplace_back(std::make_unique<obs::TraceSession>(
                    obs::defaultCategories));
            session->beginProcess(p.label);
            runner.submit([p, trace = session.get()] {
                const obs::Telemetry::Scope traced({.trace = trace});
                runPoint(p);
            });
        }
        runner.run();
        std::vector<std::size_t> counts;
        for (const auto &s : sessions)
            counts.push_back(s->eventCount());
        return counts;
    };

    const auto serial = record(1);
    const auto parallel = record(8);
    EXPECT_EQ(serial, parallel);
    std::size_t total = 0;
    for (const auto n : serial)
        total += n;
    EXPECT_GT(total, 0u) << "simulations emit trace events";
}

TEST(SweepRunner, DefaultWorkerCountIsPositive)
{
    EXPECT_GE(SweepRunner::defaultWorkers(), 1u);
    SweepRunner runner; // default: one worker per hardware thread
    EXPECT_GE(runner.workers(), 1u);
}

TEST(SweepRunner, HostProfileCountsAreByteIdenticalAcrossJobCounts)
{
    // Host nanoseconds vary run to run, but the deterministic half of
    // a host profile — bucket names, scope counts, the dispatched
    // event total — is a pure function of the simulated event
    // sequence, so a profiled sweep must agree bucket for bucket
    // between 1 worker and 8. This is the property that lets the
    // "host_profile" report section participate in CI comparisons.
    auto jobs = gridPoints();
    for (Point &job : jobs)
        job.config.hostProf = true;

    const auto serial = runPoints(jobs, 1);
    const auto parallel = runPoints(jobs, 8);
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        SCOPED_TRACE(jobs[i].label);
        const obs::HostProfile &s = serial[i].hostProfile;
        const obs::HostProfile &p = parallel[i].hostProfile;
        ASSERT_TRUE(s.enabled);
        ASSERT_TRUE(p.enabled);
        EXPECT_GT(s.events, 0u);
        EXPECT_EQ(s.events, p.events);
        ASSERT_EQ(s.buckets.size(), p.buckets.size());
        for (std::size_t b = 0; b < s.buckets.size(); ++b) {
            EXPECT_EQ(s.buckets[b].name(), p.buckets[b].name());
            EXPECT_EQ(s.buckets[b].count, p.buckets[b].count)
                << s.buckets[b].name();
        }
        // ...and the attribution coverage promise holds on real runs.
        EXPECT_GE(s.attributedFraction(), 0.95) << "uninstrumented "
            "event types crept into the dispatch path";
    }
}

TEST(SweepRunner, HostProfileEventsMatchEngineDispatches)
{
    // The profiler's deterministic event total is exactly the number
    // of events the engine dispatched while attached.
    SweepRunner runner(1);
    Point job = gridPoints()[0];
    job.config.hostProf = true;
    std::vector<RunResult> results;
    std::uint64_t profiled = 0;
    runner.submit([&] {
        const auto workload = workloadOf(job);
        sys::MultiGpuSystem system(job.config);
        results.push_back(system.run(*workload));
        ASSERT_NE(system.hostProfiler(), nullptr);
        profiled = system.hostProfiler()->eventsDispatched();
    });
    runner.run();
    ASSERT_EQ(results.size(), 1u);
    EXPECT_GT(profiled, 0u);
    EXPECT_EQ(results[0].hostProfile.events, profiled);
}

TEST(SweepRunner, ProgressCallbackCountsEveryCompletion)
{
    // The callback is serialized and fires once per finished job with
    // a monotonically increasing `done`, on both execution paths.
    for (const unsigned workers : {1u, 8u}) {
        SCOPED_TRACE(workers);
        SweepRunner runner(workers);
        const auto jobs = gridPoints();
        std::vector<RunResult> results(jobs.size());
        for (std::size_t i = 0; i < jobs.size(); ++i)
            runner.submit([&, i] { results[i] = runPoint(jobs[i]); });
        std::vector<std::pair<std::size_t, std::size_t>> calls;
        runner.setProgress([&calls](std::size_t done,
                                    std::size_t total) {
            calls.emplace_back(done, total);
        });
        runner.run();
        ASSERT_EQ(calls.size(), results.size());
        for (std::size_t i = 0; i < calls.size(); ++i) {
            EXPECT_EQ(calls[i].first, i + 1);
            EXPECT_EQ(calls[i].second, results.size());
        }
    }
}
