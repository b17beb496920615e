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

#include "src/obs/trace.hh"
#include "src/sys/multi_gpu_system.hh"
#include "src/sys/report.hh"
#include "src/sys/sweep_runner.hh"
#include "src/workloads/workload.hh"

using namespace griffin;
using sys::RunResult;
using sys::SweepJob;
using sys::SweepRunner;

namespace {

/** The MT/BFS x {baseline, griffin} grid of the determinism spec. */
std::vector<SweepJob>
gridJobs()
{
    std::vector<SweepJob> jobs;
    for (const char *name : {"MT", "BFS"}) {
        for (const bool griffin_run : {false, true}) {
            SweepJob job;
            job.label = std::string(name) + "/" +
                        (griffin_run ? "griffin" : "first-touch");
            job.config = griffin_run ? sys::SystemConfig::griffinDefault()
                                     : sys::SystemConfig::baseline();
            wl::WorkloadConfig wcfg;
            wcfg.scaleDiv = 64;
            wcfg.seed = 42;
            job.makeWorkload = [name = std::string(name), wcfg] {
                return wl::makeWorkload(name, wcfg);
            };
            jobs.push_back(std::move(job));
        }
    }
    return jobs;
}

std::vector<RunResult>
runGrid(unsigned workers)
{
    SweepRunner runner(workers);
    for (auto &job : gridJobs())
        runner.submit(std::move(job));
    return runner.run();
}

} // namespace

TEST(SweepRunner, ParallelRunMatchesSerialBitForBit)
{
    const auto serial = runGrid(1);
    const auto parallel = runGrid(8);
    const auto jobs = gridJobs();
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
    auto runChaosGrid = [&](unsigned workers) {
        SweepRunner runner(workers);
        for (auto &job : gridJobs()) {
            job.config.chaos = *chaos;
            runner.submit(std::move(job));
        }
        return runner.run();
    };

    const auto serial = runChaosGrid(1);
    const auto parallel = runChaosGrid(8);
    auto jobs = gridJobs();
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        SCOPED_TRACE(jobs[i].label);
        jobs[i].config.chaos = *chaos;
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
    auto runInstrumentedGrid = [](unsigned workers) {
        SweepRunner runner(workers);
        for (auto &job : gridJobs()) {
            job.config.pageStats.enabled = true;
            job.config.timeseriesTick = 50000;
            runner.submit(std::move(job));
        }
        return runner.run();
    };

    const auto serial = runInstrumentedGrid(1);
    const auto parallel = runInstrumentedGrid(8);
    auto jobs = gridJobs();
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        SCOPED_TRACE(jobs[i].label);
        jobs[i].config.pageStats.enabled = true;
        jobs[i].config.timeseriesTick = 50000;
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
    // Labels ride along through pre/postRun hooks; results land at the
    // submission index regardless of which worker finished first.
    SweepRunner runner(4);
    std::vector<std::string> postLabels(4);
    auto jobs = gridJobs();
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        jobs[i].postRun = [&postLabels, i, label = jobs[i].label](
                              sys::MultiGpuSystem &,
                              const RunResult *) {
            postLabels[i] = label;
        };
        const std::size_t idx = runner.submit(std::move(jobs[i]));
        EXPECT_EQ(idx, i);
    }
    EXPECT_EQ(runner.pending(), 4u);
    const auto results = runGrid(1);
    const auto parallel = runner.run();
    EXPECT_EQ(runner.pending(), 0u);
    ASSERT_EQ(parallel.size(), 4u);
    for (std::size_t i = 0; i < 4; ++i) {
        EXPECT_EQ(parallel[i].cycles, results[i].cycles);
        EXPECT_FALSE(postLabels[i].empty());
    }
}

TEST(SweepRunner, PreRunHookSeesTheSystemBeforeItRuns)
{
    SweepRunner runner(2);
    auto jobs = gridJobs();
    std::atomic<int> hooks{0};
    for (auto &job : jobs) {
        job.preRun = [&hooks](sys::MultiGpuSystem &system) {
            EXPECT_EQ(system.engine().now(), 0u);
            hooks.fetch_add(1);
        };
        runner.submit(std::move(job));
    }
    runner.run();
    EXPECT_EQ(hooks.load(), 4);
}

TEST(SweepRunner, EarliestSubmittedExceptionWins)
{
    // Both failing jobs run to completion; the rethrown error is the
    // earliest-submitted one, as a serial loop would have surfaced it.
    SweepRunner runner(4);
    for (const char *what : {"first", "second"}) {
        SweepJob job;
        job.label = what;
        job.config = sys::SystemConfig::baseline();
        job.makeWorkload = [what]() -> std::unique_ptr<wl::Workload> {
            throw std::runtime_error(what);
        };
        runner.submit(std::move(job));
    }
    try {
        runner.run();
        FAIL() << "expected the sweep to rethrow";
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "first");
    }
}

TEST(SweepRunner, NullWorkloadFactoryResultIsAnError)
{
    SweepRunner runner(1);
    SweepJob job;
    job.label = "broken";
    job.config = sys::SystemConfig::baseline();
    job.makeWorkload = [] { return std::unique_ptr<wl::Workload>(); };
    runner.submit(std::move(job));
    EXPECT_THROW(runner.run(), std::runtime_error);
}

TEST(SweepRunner, PerRunTraceSessionsStayIsolated)
{
    // Each job attaches its own session on its worker thread; events
    // must never bleed into a neighbour's session, and a serial rerun
    // must produce the same per-run event counts.
    auto record = [](unsigned workers) {
        SweepRunner runner(workers);
        auto sessions = std::make_shared<
            std::vector<std::shared_ptr<obs::TraceSession>>>();
        for (auto &job : gridJobs()) {
            auto session = std::make_shared<obs::TraceSession>(
                obs::defaultCategories);
            session->beginProcess(job.label);
            sessions->push_back(session);
            job.preRun = [session](sys::MultiGpuSystem &) {
                session->attach();
            };
            job.postRun = [session](sys::MultiGpuSystem &,
                                    const RunResult *) {
                session->detach();
            };
            runner.submit(std::move(job));
        }
        runner.run();
        std::vector<std::size_t> counts;
        for (const auto &s : *sessions)
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
    auto runProfiledGrid = [](unsigned workers) {
        SweepRunner runner(workers);
        for (auto &job : gridJobs()) {
            job.config.hostProf = true;
            runner.submit(std::move(job));
        }
        return runner.run();
    };

    const auto serial = runProfiledGrid(1);
    const auto parallel = runProfiledGrid(8);
    const auto jobs = gridJobs();
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
    auto jobs = gridJobs();
    jobs[0].config.hostProf = true;
    std::uint64_t profiled = 0;
    jobs[0].postRun = [&profiled](sys::MultiGpuSystem &system,
                                  const RunResult *) {
        ASSERT_NE(system.hostProfiler(), nullptr);
        profiled = system.hostProfiler()->eventsDispatched();
    };
    runner.submit(std::move(jobs[0]));
    const auto results = runner.run();
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
        for (auto &job : gridJobs())
            runner.submit(std::move(job));
        std::vector<std::pair<std::size_t, std::size_t>> calls;
        runner.setProgress([&calls](std::size_t done,
                                    std::size_t total) {
            calls.emplace_back(done, total);
        });
        const auto results = runner.run();
        ASSERT_EQ(calls.size(), results.size());
        for (std::size_t i = 0; i < calls.size(); ++i) {
            EXPECT_EQ(calls[i].first, i + 1);
            EXPECT_EQ(calls[i].second, results.size());
        }
    }
}
