/**
 * @file
 * Unit tests for core::MigrationExecutor: the ACUD migration protocol
 * end to end — block, drain, selective shootdown/flush, continue
 * before transfer, page-table update and parked-request replay — and
 * the full-flush alternative.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/core/acud.hh"
#include "src/core/migration_policy.hh"
#include "src/gpu/gpu.hh"
#include "src/sim/engine.hh"
#include "tests/gpu/test_router.hh"

using namespace griffin;

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

struct Rig
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

    explicit Rig(bool use_acud = true)
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
            engine, net, pt, iommu, gpu_ptrs, pmc_ptrs, use_acud);
    }

    std::unique_ptr<core::MigrationExecutor> executor;

    core::MigrationBatch
    batchOf(std::vector<PageId> pages, DeviceId from, DeviceId to)
    {
        core::MigrationBatch batch;
        batch.source = from;
        for (const PageId p : pages) {
            pt.setLocation(p, from);
            batch.moves.push_back(core::MigrationCandidate{
                p, from, to, core::PageClass::MostlyDedicated, 1.0});
        }
        return batch;
    }
};

} // namespace

TEST(MigrationExecutor, MovesPagesAndCompletes)
{
    Rig rig;
    const auto batch = rig.batchOf({10, 11, 12}, 1, 3);
    bool done = false;
    rig.executor->executeBatch(batch, [&] { done = true; });
    rig.engine.run();
    EXPECT_TRUE(done);
    for (PageId p : {10, 11, 12}) {
        EXPECT_EQ(rig.pt.locationOf(p), 3u);
        EXPECT_FALSE(rig.pt.info(p).migrating);
        EXPECT_FALSE(rig.pt.info(p).migrationPending);
    }
    EXPECT_EQ(rig.executor->pagesMigrated, 3u);
    EXPECT_EQ(rig.executor->batchesExecuted, 1u);
}

TEST(MigrationExecutor, MarksPagesPendingImmediately)
{
    Rig rig;
    const auto batch = rig.batchOf({10}, 1, 2);
    rig.executor->executeBatch(batch, [] {});
    EXPECT_TRUE(rig.pt.info(10).migrationPending);
    rig.engine.run();
    EXPECT_FALSE(rig.pt.info(10).migrationPending);
}

TEST(MigrationExecutor, SourceGpuIsDrainedAndResumed)
{
    Rig rig;
    const auto batch = rig.batchOf({10}, 2, 3);
    rig.executor->executeBatch(batch, [] {});
    rig.engine.run();
    gpu::Gpu &src = *rig.gpu_ptrs[1];
    EXPECT_EQ(src.drains, 1u);
    EXPECT_EQ(src.tlbShootdownEvents, 1u);
    EXPECT_FALSE(src.cu(0).paused());
    EXPECT_GT(src.pausedCycles, 0u);
}

TEST(MigrationExecutor, DrainWaitsForDataPhase)
{
    Rig rig;
    gpu::Gpu &src = *rig.gpu_ptrs[0];
    const auto token = src.dataPhase().enter(10);

    const auto batch = rig.batchOf({10}, 1, 2);
    bool done = false;
    rig.executor->executeBatch(batch, [&] { done = true; });
    rig.engine.runUntil(5000);
    EXPECT_FALSE(done); // still waiting on the in-flight access
    src.dataPhase().leave(token);
    rig.engine.run();
    EXPECT_TRUE(done);
}

TEST(MigrationExecutor, ContinueBeforeTransferCompletes)
{
    // The CUs must resume before the page data lands (paper Fig 7).
    Rig rig;
    const auto batch = rig.batchOf({10, 11, 12, 13}, 1, 2);
    Tick done_at = 0;
    rig.executor->executeBatch(batch, [&] { done_at = rig.engine.now(); });

    gpu::Gpu &src = *rig.gpu_ptrs[0];
    Tick resumed_at = 0;
    // Poll for the resume moment.
    std::function<void()> poll = [&] {
        if (resumed_at == 0 && src.drains == 1 && !src.cu(0).paused())
            resumed_at = rig.engine.now();
        if (done_at == 0)
            rig.engine.schedule(5, poll);
    };
    rig.engine.schedule(1, poll);
    rig.engine.run();
    ASSERT_GT(resumed_at, 0u);
    ASSERT_GT(done_at, 0u);
    EXPECT_LT(resumed_at, done_at);
}

TEST(MigrationExecutor, ParkedTranslationsReplayToNewLocation)
{
    Rig rig;
    const auto batch = rig.batchOf({10}, 1, 2);
    rig.executor->executeBatch(batch, [] {});
    // While the migration is in flight, a translation request parks.
    rig.engine.runUntil(50); // past the drain command
    auto reply = std::make_shared<std::optional<xlat::XlatReply>>();
    rig.iommu.request(4, 10, false,
                      [reply](xlat::XlatReply r) { *reply = r; });
    rig.engine.run();
    ASSERT_TRUE(reply->has_value());
    EXPECT_EQ((*reply)->location, 2u);
}

TEST(MigrationExecutor, FlushModeDiscardsAndUsesFullFlush)
{
    Rig rig(/*use_acud=*/false);
    const auto batch = rig.batchOf({10}, 1, 2);
    bool done = false;
    rig.executor->executeBatch(batch, [&] { done = true; });
    rig.engine.run();
    EXPECT_TRUE(done);
    gpu::Gpu &src = *rig.gpu_ptrs[0];
    EXPECT_EQ(src.fullFlushes, 1u);
    EXPECT_EQ(src.drains, 0u);
    EXPECT_EQ(rig.pt.locationOf(10), 2u);
}

TEST(MigrationExecutor, ClassAccountingByReason)
{
    Rig rig;
    core::MigrationBatch batch;
    batch.source = 1;
    rig.pt.setLocation(20, 1);
    rig.pt.setLocation(21, 1);
    batch.moves.push_back(core::MigrationCandidate{
        20, 1, 2, core::PageClass::OwnerShifting, 1.0});
    batch.moves.push_back(core::MigrationCandidate{
        21, 1, 2, core::PageClass::Shared, 1.0});
    rig.executor->executeBatch(batch, [] {});
    rig.engine.run();
    EXPECT_EQ(rig.executor->migrationsByClass[std::size_t(
                  core::PageClass::OwnerShifting)],
              1u);
    EXPECT_EQ(rig.executor->migrationsByClass[std::size_t(
                  core::PageClass::Shared)],
              1u);
}
