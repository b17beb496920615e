/**
 * @file
 * Cross-cutting property tests at system level: the paper's headline
 * claims hold qualitatively on small inputs, and structural
 * invariants (page conservation, translation coherence, access
 * accounting) survive end-to-end runs.
 */

#include <gtest/gtest.h>

#include <memory>

#include "src/sys/multi_gpu_system.hh"
#include "src/workloads/workload.hh"

using namespace griffin;

namespace {

sys::RunResult
runOne(const std::string &name, const sys::SystemConfig &scfg,
       unsigned scale_div = 48, std::uint64_t seed = 42)
{
    wl::WorkloadConfig wcfg;
    wcfg.scaleDiv = scale_div;
    wcfg.seed = seed;
    auto workload = wl::makeWorkload(name, wcfg);
    sys::MultiGpuSystem system(scfg);
    return system.run(*workload);
}

} // namespace

TEST(Properties, GriffinReducesCpuShootdownsEverywhere)
{
    for (const auto &name : {"SC", "MT", "KM"}) {
        const auto base = runOne(name, sys::SystemConfig::baseline());
        const auto grif = runOne(name,
                                 sys::SystemConfig::griffinDefault());
        EXPECT_LT(grif.cpuShootdowns, base.cpuShootdowns / 2) << name;
    }
}

TEST(Properties, BaselineNeverMigratesBetweenGpus)
{
    const auto base = runOne("SC", sys::SystemConfig::baseline());
    EXPECT_EQ(base.gpuShootdowns, 0u);
    EXPECT_EQ(base.pagesMigratedInterGpu, 0u);
    // Every migration was CPU -> GPU, once per page that moved.
    EXPECT_EQ(base.stats.get("pageTable.migrations"),
              base.stats.get("driver.pagesMigratedIn"));
}

TEST(Properties, GriffinImprovesLocalityOnAdjacentWorkloads)
{
    for (const auto &name : {"SC", "ST"}) {
        const auto base = runOne(name, sys::SystemConfig::baseline());
        const auto grif = runOne(name,
                                 sys::SystemConfig::griffinDefault());
        EXPECT_GT(grif.localFraction(), base.localFraction() + 0.05)
            << name;
    }
}

TEST(Properties, DftmKeepsOccupancyNearFairShare)
{
    const auto grif = runOne("SC", sys::SystemConfig::griffinDefault());
    EXPECT_LT(grif.maxGpuShare(), 0.34);
}

TEST(Properties, AccessAccountingIsExact)
{
    const auto r = runOne("KM", sys::SystemConfig::griffinDefault());
    // Every completed access was either local or remote; per-GPU
    // stats sum to the totals.
    double local = 0, remote = 0;
    for (int g = 1; g <= 4; ++g) {
        local += r.stats.get("gpu" + std::to_string(g) +
                             ".localAccesses");
        remote += r.stats.get("gpu" + std::to_string(g) +
                              ".remoteAccesses");
    }
    EXPECT_DOUBLE_EQ(local, double(r.localAccesses));
    EXPECT_DOUBLE_EQ(remote, double(r.remoteAccesses));
    EXPECT_GT(local + remote, 0.0);
}

TEST(Properties, PageConservationUnderHeavyMigration)
{
    sys::SystemConfig cfg = sys::SystemConfig::griffinDefault();
    cfg.griffin.migrationInterval = 1; // maximum churn
    cfg.griffin.lambdaT = 0.0005;
    const auto r = runOne("FW", cfg);
    std::uint64_t total = 0;
    for (const auto n : r.pagesPerDevice)
        total += n;
    EXPECT_EQ(double(total), r.stats.get("pageTable.totalPages"));
}

TEST(Properties, AcudNeverLosesWork)
{
    // Under ACUD nothing is discarded; under flushing, migration
    // activity implies discarded (replayed) transactions.
    const auto acud = runOne("SC", sys::SystemConfig::griffinDefault());
    double discarded = 0;
    for (int g = 1; g <= 4; ++g)
        discarded += acud.stats.get("gpu" + std::to_string(g) +
                                    ".opsDiscarded");
    EXPECT_EQ(discarded, 0.0);

    sys::SystemConfig flush_cfg = sys::SystemConfig::griffinDefault();
    flush_cfg.griffin.useAcud = false;
    const auto flush = runOne("SC", flush_cfg);
    if (flush.pagesMigratedInterGpu > 0) {
        double flush_discarded = 0;
        for (int g = 1; g <= 4; ++g)
            flush_discarded += flush.stats.get(
                "gpu" + std::to_string(g) + ".opsDiscarded");
        EXPECT_GT(flush_discarded, 0.0);
    }
}

TEST(Properties, EveryOpCompletesExactlyOnce)
{
    // Under ACUD and under flushing (which discards and re-issues
    // in-flight ops), every submitted op completes once and every
    // issue ends in one completion or one discard.
    sys::SystemConfig flush_cfg = sys::SystemConfig::griffinDefault();
    flush_cfg.griffin.useAcud = false;
    std::uint64_t discarded = 0;
    for (const auto &cfg :
         {sys::SystemConfig::griffinDefault(), flush_cfg}) {
        const auto r = runOne("SC", cfg);
        ASSERT_EQ(r.gpuOps.size(), 4u);
        EXPECT_GT(r.opsSubmitted, 0u);
        std::uint64_t completed = 0;
        for (const auto &ops : r.gpuOps) {
            EXPECT_EQ(ops.issued, ops.completed + ops.discarded);
            completed += ops.completed;
            discarded += ops.discarded;
        }
        EXPECT_EQ(completed, r.opsSubmitted);
    }
    EXPECT_GT(discarded, 0u) << "the flush run discarded nothing";
}

TEST(Properties, AcudBeatsFlushingWhenMigrationIsActive)
{
    const auto acud = runOne("SC", sys::SystemConfig::griffinDefault());
    sys::SystemConfig flush_cfg = sys::SystemConfig::griffinDefault();
    flush_cfg.griffin.useAcud = false;
    const auto flush = runOne("SC", flush_cfg);
    if (acud.pagesMigratedInterGpu > 20) {
        EXPECT_LE(acud.cycles, flush.cycles);
    }
}

TEST(Properties, ComponentTogglesActuallyDisable)
{
    sys::SystemConfig no_mig = sys::SystemConfig::griffinDefault();
    no_mig.griffin.enableInterGpuMigration = false;
    const auto r1 = runOne("SC", no_mig);
    EXPECT_EQ(r1.pagesMigratedInterGpu, 0u);
    EXPECT_EQ(r1.gpuShootdowns, 0u);

    sys::SystemConfig no_dftm = sys::SystemConfig::griffinDefault();
    no_dftm.griffin.enableDftm = false;
    const auto r2 = runOne("SC", no_dftm);
    EXPECT_EQ(r2.stats.get("griffin.dftm.denials"), 0.0);
    EXPECT_EQ(r2.stats.get("iommu.dcaRedirects"), 0.0);
}

TEST(Properties, HigherBandwidthNeverSlowsTheSystem)
{
    for (const auto &policy : {sys::SystemConfig::baseline(),
                              sys::SystemConfig::griffinDefault()}) {
        sys::SystemConfig hbw = policy;
        hbw.withHighBandwidthFabric();
        const auto pcie = runOne("FW", policy);
        const auto fast = runOne("FW", hbw);
        EXPECT_LE(fast.cycles, pcie.cycles);
    }
}

TEST(Properties, SeedsChangeRandomWorkloadTiming)
{
    const auto a = runOne("PR", sys::SystemConfig::griffinDefault(),
                          48, 1);
    const auto b = runOne("PR", sys::SystemConfig::griffinDefault(),
                          48, 2);
    EXPECT_NE(a.cycles, b.cycles);
}

TEST(Properties, PeriodsScaleWithRuntime)
{
    const auto r = runOne("KM", sys::SystemConfig::griffinDefault());
    const double periods = r.stats.get("griffin.periods");
    const double expected = double(r.cycles) / 1000.0; // T_ac = 1000
    EXPECT_NEAR(periods, expected, expected * 0.05 + 2);
}

TEST(Properties, StatsDumpIsComprehensive)
{
    const auto r = runOne("SC", sys::SystemConfig::griffinDefault());
    for (const char *key :
         {"sim.cycles", "driver.faults", "iommu.walks",
          "pageTable.migrations", "gpu1.localAccesses",
          "griffin.periods", "griffin.dpc.class.streaming"}) {
        EXPECT_TRUE(r.stats.all().count(key)) << key;
    }
}
