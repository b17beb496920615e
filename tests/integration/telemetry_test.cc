/**
 * @file
 * End-to-end telemetry tests: a full Griffin run with --page-stats
 * and --timeseries semantics enabled reconciles its per-interval sums
 * against the run-level aggregates, reports zero churn on a workload
 * without ping-pong, and stays bit-identical when telemetry is off;
 * a crafted ping-pong migration sequence through the real executor
 * fires the churn detector; the JSON report carries both sections.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/core/acud.hh"
#include "src/core/migration_policy.hh"
#include "src/gpu/gpu.hh"
#include "src/obs/json.hh"
#include "src/obs/pagestats.hh"
#include "src/sim/engine.hh"
#include "src/sim/log.hh"
#include "src/sys/multi_gpu_system.hh"
#include "src/sys/report.hh"
#include "src/workloads/workload.hh"
#include "tests/gpu/test_router.hh"

using namespace griffin;

namespace {

/**
 * One run with both telemetry recorders on: MT by default, or
 * @p workload under the chaos spec @p chaos.
 */
sys::RunResult
runInstrumented(Tick timeseries_tick = 20000,
                const std::string &workload = "MT",
                const std::string &chaos = "")
{
    wl::WorkloadConfig wcfg;
    wcfg.scaleDiv = 64;
    wcfg.seed = 42;
    auto work = wl::makeWorkload(workload, wcfg);
    sys::SystemConfig scfg = sys::SystemConfig::griffinDefault();
    scfg.pageStats.enabled = true;
    scfg.timeseriesTick = timeseries_tick;
    if (!chaos.empty())
        scfg.chaos = *sys::ChaosConfig::parse(chaos);
    sys::MultiGpuSystem system(scfg);
    return system.run(*work);
}

/** The interval-sum reconciliation every instrumented run must meet. */
void
expectIntervalSumsReconcile(const sys::RunResult &r)
{
    ASSERT_TRUE(r.pageStats.enabled);
    ASSERT_GT(r.timeseries.tick, 0u);
    ASSERT_FALSE(r.timeseries.rows.empty());

    // Sum every interval; each row differences the aggregates between
    // two samples, so these must match exactly.
    std::uint64_t migrations = 0, dca = 0, shootdowns = 0, faults = 0;
    for (const auto &row : r.timeseries.rows) {
        using S = obs::TimeSeries::Series;
        migrations += row.counts[unsigned(S::Migrations)];
        dca += row.counts[unsigned(S::DcaAccesses)];
        shootdowns += row.counts[unsigned(S::Shootdowns)];
        faults += row.counts[unsigned(S::Faults)];
    }
    EXPECT_EQ(migrations,
              std::uint64_t(r.stats.get("pageTable.migrations")));
    EXPECT_EQ(dca, r.remoteAccesses);
    EXPECT_EQ(shootdowns, r.cpuShootdowns + r.gpuShootdowns);
    EXPECT_EQ(faults, std::uint64_t(r.latency.faultLatency.count()));

    // The summary's own totals agree with the row sums too.
    using S = obs::TimeSeries::Series;
    EXPECT_EQ(r.timeseries.totals[unsigned(S::Migrations)], migrations);
    EXPECT_EQ(r.timeseries.totals[unsigned(S::Faults)], faults);

    // Page-stats commits are recorded at the same commit point.
    EXPECT_EQ(r.pageStats.totalMigrations, migrations);
    EXPECT_EQ(
        r.pageStats.events[unsigned(obs::PageEvent::MigrationCommit)],
        migrations);

    // Every fault the driver took is serviced exactly once: by its
    // page landing or by its migration timing out.
    EXPECT_EQ(faults, std::uint64_t(r.stats.get("driver.faults")));
}

} // namespace

TEST(Telemetry, IntervalSumsReconcileWithRunAggregates)
{
    expectIntervalSumsReconcile(runInstrumented());

    // The abort path: every DMA fails, so the driver's migration
    // timeout services the faults instead of the page landing.
    const sys::RunResult r =
        runInstrumented(10000, "SC", "dma=1.0,timeout=100000");
    ASSERT_GT(r.stats.get("chaos.driverMigrationTimeouts"), 0.0);
    expectIntervalSumsReconcile(r);
    EXPECT_EQ(r.pageStats.events[unsigned(obs::PageEvent::DcaFallback)],
              std::uint64_t(r.stats.get("chaos.driverMigrationTimeouts")));
}

TEST(Telemetry, MtReportsZeroChurn)
{
    // MT partitions cleanly across the GPUs: pages migrate out once
    // and never ping-pong back.
    const sys::RunResult r = runInstrumented();
    EXPECT_GT(r.pageStats.totalMigrations, 0u);
    EXPECT_EQ(r.pageStats.churnEvents, 0u);
    EXPECT_EQ(r.pageStats.churnPages, 0u);
    EXPECT_TRUE(r.pageStats.thrashingPages.empty());
}

TEST(Telemetry, DisabledTelemetryChangesNothing)
{
    wl::WorkloadConfig wcfg;
    wcfg.scaleDiv = 64;
    wcfg.seed = 42;

    auto w1 = wl::makeWorkload("MT", wcfg);
    sys::MultiGpuSystem plain(sys::SystemConfig::griffinDefault());
    const sys::RunResult off = plain.run(*w1);

    const sys::RunResult on = runInstrumented();

    // Telemetry must be an observer: identical timing and counters.
    EXPECT_EQ(off.cycles, on.cycles);
    EXPECT_EQ(off.pagesPerDevice, on.pagesPerDevice);
    EXPECT_EQ(off.remoteAccesses, on.remoteAccesses);
    EXPECT_EQ(off.cpuShootdowns, on.cpuShootdowns);
    EXPECT_EQ(off.gpuShootdowns, on.gpuShootdowns);

    // And the off-run carries no telemetry sections.
    EXPECT_FALSE(off.pageStats.enabled);
    EXPECT_EQ(off.timeseries.tick, 0u);
    const auto report = sys::runReportJson(
        "MT/griffin", sys::SystemConfig::griffinDefault(), off);
    EXPECT_EQ(report.find("page_stats"), nullptr);
    EXPECT_EQ(report.find("timeseries"), nullptr);
}

TEST(Telemetry, ReportCarriesPageStatsAndTimeseriesSections)
{
    const sys::RunResult r = runInstrumented();
    sys::SystemConfig scfg = sys::SystemConfig::griffinDefault();
    scfg.pageStats.enabled = true;
    scfg.timeseriesTick = 20000;
    const auto report = sys::runReportJson("MT/griffin", scfg, r);

    const obs::json::Value *ps = report.find("page_stats");
    ASSERT_NE(ps, nullptr);
    ASSERT_NE(ps->find("events"), nullptr);
    EXPECT_DOUBLE_EQ(ps->find("total_migrations")->asNumber(),
                     double(r.pageStats.totalMigrations));
    EXPECT_DOUBLE_EQ(ps->find("churn_events")->asNumber(), 0.0);
    ASSERT_NE(ps->find("hot_pages"), nullptr);
    EXPECT_GT(ps->find("hot_pages")->size(), 0u);

    const obs::json::Value *ts = report.find("timeseries");
    ASSERT_NE(ts, nullptr);
    EXPECT_DOUBLE_EQ(ts->find("tick")->asNumber(), 20000.0);
    EXPECT_EQ(ts->find("rows")->size(), r.timeseries.rows.size());
    ASSERT_NE(ts->find("totals"), nullptr);
    ASSERT_NE(ts->find("peak"), nullptr);

    // The document wrapper stamps the schema version.
    obs::json::Value runs = obs::json::Value::array();
    const auto doc = sys::reportDocument(std::move(runs));
    ASSERT_NE(doc.find("schema_version"), nullptr);
    EXPECT_DOUBLE_EQ(doc.find("schema_version")->asNumber(),
                     double(sys::reportSchemaVersion));

    // The whole report round-trips through the JSON parser.
    const auto parsed = obs::json::Value::parse(report.dump(2));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_DOUBLE_EQ(
        parsed->find("page_stats")->find("total_migrations")->asNumber(),
        double(r.pageStats.totalMigrations));
}

// --- Crafted ping-pong through the real migration executor ---------

namespace {

class NeverMigratePolicy : public core::MigrationPolicy
{
  public:
    core::CpuAccessDecision
    onCpuResidentAccess(DeviceId, PageId, mem::PageTable &) override
    {
        return core::CpuAccessDecision{false};
    }
};

class NullHandler : public xlat::FaultHandler
{
  public:
    void onPageFault(DeviceId, PageId, FaultId = invalidFaultId) override {}
};

struct PingPongRig
{
    sim::Engine engine;
    mem::PageTable pt{12, 5};
    ic::Network net{engine, 5, ic::LinkConfig{32.0, 10}};
    xlat::Iommu iommu{engine, net, pt, xlat::IommuConfig{}};
    NeverMigratePolicy policy;
    NullHandler handler;
    test::TestRouter router{engine};
    std::vector<std::unique_ptr<gpu::Gpu>> gpus;
    std::vector<gpu::Gpu *> gpu_ptrs;
    mem::Dram cpuDram{mem::DramConfig{}};
    std::vector<std::unique_ptr<gpu::Pmc>> pmcs;
    std::vector<gpu::Pmc *> pmc_ptrs;
    std::unique_ptr<core::MigrationExecutor> executor;

    PingPongRig()
    {
        iommu.setPolicy(&policy);
        iommu.setFaultHandler(&handler);
        gpu::GpuConfig cfg;
        cfg.numSes = 1;
        cfg.cusPerSe = 2;
        std::vector<mem::Dram *> drams{&cpuDram};
        for (DeviceId id = 1; id <= 4; ++id) {
            gpus.push_back(std::make_unique<gpu::Gpu>(
                engine, id, cfg, net, iommu, router,
                router.accesses));
            gpu_ptrs.push_back(gpus.back().get());
            drams.push_back(&gpus.back()->dram());
        }
        for (DeviceId dev = 0; dev <= 4; ++dev) {
            pmcs.push_back(std::make_unique<gpu::Pmc>(
                engine, net, dev, drams, 4096));
            pmc_ptrs.push_back(pmcs.back().get());
        }
        executor = std::make_unique<core::MigrationExecutor>(
            engine, net, pt, iommu, gpu_ptrs, pmc_ptrs, true);
    }

    core::MigrationBatch
    batchOf(std::vector<PageId> pages, DeviceId from, DeviceId to)
    {
        core::MigrationBatch batch;
        batch.source = from;
        for (const PageId p : pages) {
            if (pt.locationOf(p) != from)
                pt.setLocation(p, from);
            batch.moves.push_back(core::MigrationCandidate{
                p, from, to, core::PageClass::Shared, 1.0});
        }
        return batch;
    }
};

} // namespace

TEST(Telemetry, PingPongWorkloadFiresTheChurnDetector)
{
    PingPongRig rig;
    obs::PageStats ps;
    const obs::Telemetry::Scope attached(
        {.pages = &ps, .clock = &rig.engine});

    // Seed pages 10..12 on GPU1 (these CPU->GPU1 setLocation calls
    // commit but cannot churn: nothing has left GPU1 yet), then drive
    // GPU1 -> GPU2 -> GPU1 through the real ACUD executor.
    auto out = rig.batchOf({10, 11, 12}, 1, 2);
    rig.executor->executeBatch(out, [&rig] {
        auto back = rig.batchOf({10, 11, 12}, 2, 1);
        rig.executor->executeBatch(back, [] {});
    });
    rig.engine.run();

    // Each page returned to GPU1 shortly after leaving it: 3 churn
    // events, and the full lifecycle was witnessed.
    EXPECT_EQ(ps.churnEvents(), 3u);
    for (PageId p : {10, 11, 12}) {
        EXPECT_EQ(rig.pt.locationOf(p), 1u);
        EXPECT_EQ(ps.migrationsOf(p), 3u); // seed + out + back
        EXPECT_EQ(ps.churnOf(p), 1u);
    }
    EXPECT_GE(ps.eventCount(obs::PageEvent::MigrationStart), 6u);
    EXPECT_GE(ps.eventCount(obs::PageEvent::Shootdown), 6u);

    const obs::PageStatsSummary s = ps.summary();
    EXPECT_EQ(s.churnPages, 3u);
    ASSERT_EQ(s.thrashingPages.size(), 3u);
    EXPECT_EQ(s.thrashingPages[0].page, 10u);
}

TEST(Telemetry, HostProfilerAttributesRealRunsAndMetersObsOverhead)
{
    // A fully-instrumented profiled run: the attribution coverage
    // promise (>= 95% of dispatch wall time lands in a named bucket)
    // must hold on a real workload, and the telemetry sinks must show
    // up in the "obs" share.
    wl::WorkloadConfig wcfg;
    wcfg.scaleDiv = 64;
    wcfg.seed = 42;
    sys::SystemConfig on = sys::SystemConfig::griffinDefault();
    on.hostProf = true;
    on.pageStats.enabled = true;
    on.timeseriesTick = 20000;
    sys::MultiGpuSystem instrumented(on);
    const sys::RunResult with_obs =
        instrumented.run(*wl::makeWorkload("MT", wcfg));

    const obs::HostProfile &p = with_obs.hostProfile;
    ASSERT_TRUE(p.enabled);
    EXPECT_GT(p.events, 0u);
    EXPECT_GE(p.wallNs, p.dispatchNs);
    EXPECT_GE(p.attributedFraction(), 0.95);
    // PageStats + TimeSeries were recording, so telemetry overhead is
    // visibly nonzero...
    EXPECT_GT(p.obsNs(), 0u);
    EXPECT_NE(p.findBucket("obs", "pagestats"), nullptr);
    EXPECT_NE(p.findBucket("obs", "timeseries"), nullptr);

    // ...and with telemetry off, the obs share is structurally zero:
    // those recording paths never even execute.
    sys::SystemConfig off = sys::SystemConfig::griffinDefault();
    off.hostProf = true;
    sys::MultiGpuSystem bare(off);
    const sys::RunResult without_obs =
        bare.run(*wl::makeWorkload("MT", wcfg));
    const obs::HostProfile &q = without_obs.hostProfile;
    ASSERT_TRUE(q.enabled);
    EXPECT_EQ(q.obsNs(), 0u);
    EXPECT_DOUBLE_EQ(q.obsFraction(), 0.0);
    for (const auto &b : q.buckets)
        EXPECT_NE(b.component, "obs") << b.name();

    // Profiling does not perturb the simulation: a plain unprofiled
    // run produces identical timing and counters. (with_obs is not
    // counter-comparable here — page-stats adds its own counters.)
    sys::MultiGpuSystem plain(sys::SystemConfig::griffinDefault());
    const sys::RunResult unprofiled =
        plain.run(*wl::makeWorkload("MT", wcfg));
    EXPECT_EQ(with_obs.cycles, without_obs.cycles);
    EXPECT_EQ(unprofiled.cycles, without_obs.cycles);
    EXPECT_EQ(unprofiled.stats.all(), without_obs.stats.all());
}

TEST(Telemetry, HostProfilingOffLeavesTheResultUnprofiled)
{
    wl::WorkloadConfig wcfg;
    wcfg.scaleDiv = 64;
    wcfg.seed = 42;
    sys::MultiGpuSystem system(sys::SystemConfig::griffinDefault());
    const sys::RunResult r =
        system.run(*wl::makeWorkload("MT", wcfg));
    EXPECT_FALSE(r.hostProfile.enabled);
    EXPECT_EQ(r.hostProfile.events, 0u);
    EXPECT_EQ(system.hostProfiler(), nullptr);
}

TEST(Telemetry, LogClockLastsExactlyAsLongAsTheRun)
{
    std::vector<std::string> lines;
    const sim::LogLevel saved = sim::Log::level();
    sim::Log::setLevel(sim::LogLevel::Info);
    sim::Log::setSink([&lines](sim::LogLevel, const std::string &msg) {
        lines.push_back(msg);
    });

    // The run's own lines carry its engine's tick...
    wl::WorkloadConfig wcfg;
    wcfg.scaleDiv = 64;
    wcfg.seed = 42;
    auto a = std::make_unique<sys::MultiGpuSystem>(
        sys::SystemConfig::griffinDefault());
    auto b = std::make_unique<sys::MultiGpuSystem>(
        sys::SystemConfig::griffinDefault());
    b->run(*wl::makeWorkload("MT", wcfg));
    ASSERT_FALSE(lines.empty());
    const std::string first = lines.front();

    // ...and systems torn down out of construction order leave no
    // clock behind: a later line has no tick prefix to read.
    a.reset();
    b.reset();
    GLOG(Info, "after teardown");
    const std::string last = lines.back();

    sim::Log::resetSink();
    sim::Log::setLevel(saved);
    EXPECT_EQ(first, "[0] run: MT under griffin");
    EXPECT_EQ(last, "after teardown");
    EXPECT_EQ(obs::Telemetry::current().clock, nullptr);
}
