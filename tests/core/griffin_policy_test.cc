/**
 * @file
 * Unit tests for core::GriffinPolicy's orchestration: the periodic
 * count-collection machinery, DFTM wiring (leases through the IOTLB),
 * migration phase pacing, probes, and the component toggles.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/core/griffin_policy.hh"
#include "src/gpu/gpu.hh"
#include "src/sim/engine.hh"
#include "tests/gpu/op_sink.hh"
#include "tests/gpu/test_router.hh"

using namespace griffin;

namespace {

class NullHandler : public xlat::FaultHandler
{
  public:
    void onPageFault(DeviceId, PageId, FaultId = invalidFaultId) override {}
};

struct Rig
{
    sim::Engine engine;
    mem::PageTable pt{12, 5};
    ic::Network net{engine, 5, ic::LinkConfig{32.0, 10}};
    xlat::Iommu iommu{engine, net, pt, xlat::IommuConfig{}};
    test::TestRouter router{engine};
    NullHandler handler;
    std::vector<std::unique_ptr<gpu::Gpu>> gpus;
    std::vector<gpu::Gpu *> gpu_ptrs;
    mem::Dram cpuDram{mem::DramConfig{}};
    std::vector<std::unique_ptr<gpu::Pmc>> pmcs;
    std::vector<gpu::Pmc *> pmc_ptrs;
    std::unique_ptr<core::GriffinPolicy> policy;

    explicit Rig(core::GriffinConfig gcfg = core::GriffinConfig{})
    {
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
        policy = std::make_unique<core::GriffinPolicy>(
            engine, net, pt, iommu, gpu_ptrs, pmc_ptrs, gcfg);
        iommu.setPolicy(policy.get());
        iommu.setFaultHandler(&handler);
    }
};

} // namespace

TEST(GriffinPolicy, PeriodsRunAtTheConfiguredCadence)
{
    core::GriffinConfig gcfg;
    gcfg.tAc = 500;
    Rig rig(gcfg);
    rig.policy->onSystemStart();
    rig.engine.runUntil(5100);
    rig.policy->onSystemStop();
    rig.engine.run();
    // ~10 periods in 5100 cycles at T_ac = 500.
    EXPECT_GE(rig.policy->periodsRun, 9u);
    EXPECT_LE(rig.policy->periodsRun, 11u);
}

TEST(GriffinPolicy, StopPreventsFurtherPeriods)
{
    Rig rig;
    rig.policy->onSystemStart();
    rig.engine.runUntil(2500);
    rig.policy->onSystemStop();
    const auto periods = rig.policy->periodsRun;
    rig.engine.run(); // drains the one pending timer event
    EXPECT_LE(rig.policy->periodsRun, periods + 1);
    EXPECT_TRUE(rig.engine.pendingEvents() == 0);
}

TEST(GriffinPolicy, InterGpuDisabledMeansNoPeriods)
{
    core::GriffinConfig gcfg;
    gcfg.enableInterGpuMigration = false;
    Rig rig(gcfg);
    rig.policy->onSystemStart();
    // With no period to read them, the access counters stay off.
    test::OpSink sink(rig.engine, *rig.gpu_ptrs[1]);
    sink.issue(0, 0x5000, false);
    rig.engine.runUntil(10000);
    EXPECT_EQ(rig.policy->periodsRun, 0u);
    EXPECT_EQ(rig.gpu_ptrs[1]->accessCounter(0).recorded, 0u);
    rig.policy->onSystemStop();
    rig.engine.run();
}

TEST(GriffinPolicy, CollectionDrainsTheAccessCounters)
{
    Rig rig;
    // Starting the periods switches counting on, so GPU 2's access
    // lands in its counters before the first period collects them.
    rig.policy->onSystemStart();
    test::OpSink sink(rig.engine, *rig.gpu_ptrs[1]);
    sink.issue(0, 0x5000, false);
    rig.engine.runUntil(500);
    ASSERT_EQ(rig.gpu_ptrs[1]->accessCounter(0).size(), 1u);
    rig.engine.runUntil(1500); // one period, including the messages
    rig.policy->onSystemStop();
    rig.engine.run();
    // The counters were collected (and reset) by the period loop.
    EXPECT_TRUE(rig.gpu_ptrs[1]->collectAccessCounts().empty());
}

TEST(GriffinPolicy, PeriodDrivesMigrationFromCounts)
{
    core::GriffinConfig gcfg;
    gcfg.alpha = 0.9;       // converge fast
    gcfg.lambdaT = 0.001;
    gcfg.migrationInterval = 1;
    Rig rig(gcfg);
    // Page 5 lives on GPU 1, but GPU 3 hammers it.
    rig.pt.setLocation(5, 1);
    rig.policy->onSystemStart();
    // Sustain the traffic across several periods.
    for (int burst = 0; burst < 8; ++burst) {
        rig.engine.schedule(burst * 1000 + 1, [&rig] {
            for (int i = 0; i < 40; ++i)
                rig.gpu_ptrs[2]->accessCounter(0).record(5);
        });
    }
    rig.engine.runUntil(9000);
    rig.policy->onSystemStop();
    rig.engine.run();
    EXPECT_EQ(rig.pt.locationOf(5), 3u);
    EXPECT_GE(rig.policy->executor().pagesMigrated, 1u);
}

TEST(GriffinPolicy, MigrationIntervalPacesPhases)
{
    core::GriffinConfig gcfg;
    gcfg.alpha = 0.9;
    gcfg.lambdaT = 0.001;
    gcfg.migrationInterval = 1000000; // effectively never
    Rig rig(gcfg);
    rig.pt.setLocation(5, 1);
    rig.policy->onSystemStart();
    for (int burst = 0; burst < 8; ++burst) {
        rig.engine.schedule(burst * 1000 + 1, [&rig] {
            for (int i = 0; i < 40; ++i)
                rig.gpu_ptrs[2]->accessCounter(0).record(5);
        });
    }
    rig.engine.runUntil(9000);
    rig.policy->onSystemStop();
    rig.engine.run();
    EXPECT_EQ(rig.pt.locationOf(5), 1u); // paced out: no phase ran
}

TEST(GriffinPolicy, DftmDenialInstallsIotlbLease)
{
    Rig rig;
    // Warm the table so the fair-share denial can arm: GPU 1 ahead.
    for (PageId p = 100; p < 130; ++p)
        rig.pt.setLocation(p, 1);
    for (PageId p = 130; p < 150; ++p)
        rig.pt.setLocation(p, DeviceId(2 + p % 3));

    const auto decision =
        rig.policy->onCpuResidentAccess(1, 7, rig.pt);
    EXPECT_FALSE(decision.migrate);
    // The lease entry serves follow-up accesses from the IOTLB.
    EXPECT_TRUE(rig.iommu.iotlb().probe(7));
}

TEST(GriffinPolicy, LeaseExpiryPurgesIotlbViaPeriodLoop)
{
    core::GriffinConfig gcfg;
    gcfg.dftmLeaseGap = 100; // expire almost immediately
    gcfg.dftmLeaseCap = 100;
    Rig rig(gcfg);
    for (PageId p = 100; p < 130; ++p)
        rig.pt.setLocation(p, 1);
    for (PageId p = 130; p < 150; ++p)
        rig.pt.setLocation(p, DeviceId(2 + p % 3));
    rig.policy->onCpuResidentAccess(1, 7, rig.pt);
    ASSERT_TRUE(rig.iommu.iotlb().probe(7));

    rig.policy->onSystemStart();
    rig.engine.runUntil(2500); // two periods
    rig.policy->onSystemStop();
    rig.engine.run();
    EXPECT_FALSE(rig.iommu.iotlb().probe(7));
    // The next touch is the migrating second touch.
    EXPECT_TRUE(rig.policy->onCpuResidentAccess(1, 7, rig.pt).migrate);
}

TEST(GriffinPolicy, DftmDisabledAlwaysMigrates)
{
    core::GriffinConfig gcfg;
    gcfg.enableDftm = false;
    Rig rig(gcfg);
    for (PageId p = 100; p < 130; ++p)
        rig.pt.setLocation(p, 1);
    EXPECT_TRUE(rig.policy->onCpuResidentAccess(1, 7, rig.pt).migrate);
    EXPECT_TRUE(rig.pt.info(7).touched);
}

TEST(GriffinPolicy, PeriodProbeReportsRequestedPages)
{
    core::GriffinConfig gcfg;
    gcfg.alpha = 0.9;
    Rig rig(gcfg);
    rig.pt.setLocation(5, 1);

    std::vector<Tick> probe_times;
    rig.policy->setPeriodProbe(
        [&](Tick t, PageId page, const std::vector<double> &counts,
            DeviceId loc) {
            EXPECT_EQ(page, 5u);
            EXPECT_EQ(counts.size(), 4u);
            EXPECT_EQ(loc, 1u);
            probe_times.push_back(t);
        },
        {5});

    rig.policy->onSystemStart();
    rig.engine.runUntil(3500);
    rig.policy->onSystemStop();
    rig.engine.run();
    EXPECT_GE(probe_times.size(), 3u);
}
