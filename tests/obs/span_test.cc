/**
 * @file
 * Unit tests for the causal fault spans (obs/span.hh): the no-op
 * guards when the spans slot is empty, stage-mark ordering and
 * clamping, critical-path aggregation — and an integration rig
 * proving a FaultId survives the whole IOMMU -> driver -> CPMS batch
 * -> PMC -> replay path with a complete, monotone span tree and no
 * orphans.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <vector>

#include "src/core/first_touch_policy.hh"
#include "src/driver/driver.hh"
#include "src/gpu/pmc.hh"
#include "src/mem/dram.hh"
#include "src/obs/span.hh"
#include "src/sim/engine.hh"
#include "src/xlat/iommu.hh"

using namespace griffin;
using obs::FaultSpans;
using obs::Stage;

TEST(FaultSpans, NothingActiveByDefault)
{
    EXPECT_EQ(obs::Telemetry::current().spans, nullptr);
    // Static guards are safe no-ops without a sink.
    FaultSpans::markActive(1, Stage::Walk, 100);
    FaultSpans::completeActive(1, 200);
}

TEST(FaultSpans, AttachDetachRestoresPrevious)
{
    FaultSpans outer;
    {
        const obs::Telemetry::Scope outer_scope({.spans = &outer});
        EXPECT_EQ(obs::Telemetry::current().spans, &outer);
        {
            FaultSpans inner;
            const obs::Telemetry::Scope inner_scope({.spans = &inner});
            EXPECT_EQ(obs::Telemetry::current().spans, &inner);
        }
        EXPECT_EQ(obs::Telemetry::current().spans, &outer);
    }
    EXPECT_EQ(obs::Telemetry::current().spans, nullptr);
}

TEST(FaultSpans, InvalidFaultIdIsIgnored)
{
    FaultSpans spans;
    const obs::Telemetry::Scope attached({.spans = &spans});
    FaultSpans::markActive(invalidFaultId, Stage::Walk, 50);
    FaultSpans::completeActive(invalidFaultId, 60);
    EXPECT_EQ(spans.faultsStarted(), 0u);
    EXPECT_EQ(spans.completedFaults().size(), 0u);
}

TEST(FaultSpans, CompleteFaultRecordsOrderedStages)
{
    FaultSpans spans;
    const FaultId fid = spans.beginFault(2, 77, 1000);
    ASSERT_NE(fid, invalidFaultId);
    spans.mark(fid, Stage::WalkQueue, 1050);
    spans.mark(fid, Stage::Walk, 1350);
    spans.mark(fid, Stage::Policy, 1360);
    spans.mark(fid, Stage::BatchWait, 1500);
    spans.mark(fid, Stage::Shootdown, 2200);
    spans.mark(fid, Stage::TransferQueue, 2200);
    spans.mark(fid, Stage::Transfer, 4000);
    EXPECT_EQ(spans.openFaults(), 1u);
    spans.complete(fid, 4100);
    EXPECT_EQ(spans.openFaults(), 0u);

    ASSERT_EQ(spans.completedFaults().size(), 1u);
    const obs::FaultRecord &rec = spans.completedFaults().front();
    EXPECT_EQ(rec.id, fid);
    EXPECT_EQ(rec.gpu, 2u);
    EXPECT_EQ(rec.page, 77u);
    EXPECT_EQ(rec.origin, 1000u);
    ASSERT_EQ(rec.marks.size(), obs::numStages);
    for (unsigned s = 0; s < obs::numStages; ++s)
        EXPECT_EQ(unsigned(rec.marks[s].stage), s);
    EXPECT_EQ(rec.totalLatency(), 3100u);
}

TEST(FaultSpans, EarlyMarksClampToZeroLengthStages)
{
    // A requester that joined an in-flight walk can observe a walk
    // start "before" its own miss; the stage clamps to zero length
    // instead of going negative.
    FaultSpans spans;
    const FaultId fid = spans.beginFault(1, 5, 1000);
    spans.mark(fid, Stage::WalkQueue, 400); // before origin
    spans.mark(fid, Stage::Walk, 700);      // still before origin
    spans.mark(fid, Stage::Policy, 1200);
    spans.complete(fid, 1300);

    const obs::FaultRecord &rec = spans.completedFaults().front();
    EXPECT_EQ(rec.marks[0].at, 1000u);
    EXPECT_EQ(rec.marks[1].at, 1000u);
    EXPECT_EQ(rec.totalLatency(), 300u);
}

TEST(FaultSpans, MarksOnUnknownOrCompletedFaultsAreDropped)
{
    FaultSpans spans;
    spans.mark(99, Stage::Walk, 10); // never begun
    const FaultId fid = spans.beginFault(1, 1, 0);
    spans.complete(fid, 50);
    spans.mark(fid, Stage::Transfer, 60); // already completed
    EXPECT_EQ(spans.completedFaults().size(), 1u);
    EXPECT_EQ(spans.completedFaults().front().marks.size(), 1u);
}

TEST(CriticalPath, StageSumsPartitionTheTotalExactly)
{
    FaultSpans spans;
    for (int f = 0; f < 3; ++f) {
        const Tick base = Tick(1000 * f);
        const FaultId fid = spans.beginFault(1, PageId(f), base);
        spans.mark(fid, Stage::WalkQueue, base + 10);
        spans.mark(fid, Stage::Walk, base + 310);
        spans.mark(fid, Stage::Policy, base + 315);
        spans.mark(fid, Stage::BatchWait, base + 500);
        spans.mark(fid, Stage::Shootdown, base + 700);
        spans.mark(fid, Stage::TransferQueue, base + 700);
        spans.mark(fid, Stage::Transfer, base + 1400);
        spans.complete(fid, base + 1500);
    }

    const obs::CriticalPath &cp = spans.criticalPath();
    EXPECT_EQ(cp.faults(), 3u);
    EXPECT_DOUBLE_EQ(cp.total().sum(), 3.0 * 1500.0);

    double stage_total = 0.0, share_total = 0.0;
    for (unsigned s = 0; s < obs::numStages; ++s) {
        stage_total += cp.stageSum(Stage(s));
        share_total += cp.share(Stage(s));
        EXPECT_EQ(cp.stageHistogram(Stage(s)).count(), 3u);
    }
    EXPECT_DOUBLE_EQ(stage_total, cp.total().sum());
    EXPECT_NEAR(share_total, 1.0, 1e-12);
    // Spot-check one stage: walks are 300 cycles each.
    EXPECT_DOUBLE_EQ(cp.stageSum(Stage::Walk), 900.0);
    EXPECT_NEAR(cp.share(Stage::Walk), 900.0 / 4500.0, 1e-12);
}

TEST(StageNames, AreDistinctAndSnakeCase)
{
    std::set<std::string> names;
    for (unsigned s = 0; s < obs::numStages; ++s)
        names.insert(obs::stageName(Stage(s)));
    EXPECT_EQ(names.size(), obs::numStages);
    EXPECT_EQ(names.count("walk_queue"), 1u);
    EXPECT_EQ(names.count("transfer_queue"), 1u);
}

// ---------------------------------------------------------------------
// Integration: FaultId propagation through the real fault path
// ---------------------------------------------------------------------

namespace {

/** The driver_test rig: CPU + 4 GPUs, IOMMU, first-touch, one PMC. */
struct Rig
{
    sim::Engine engine;
    mem::PageTable pt{12, 5};
    ic::Network net{engine, 5, ic::LinkConfig{32.0, 10}};
    xlat::Iommu iommu{engine, net, pt, xlat::IommuConfig{}};
    core::FirstTouchPolicy policy;
    mem::Dram cpuDram{mem::DramConfig{4, 100, 16.0, 256}};
    mem::Dram gpuDram{mem::DramConfig{}};
    std::vector<mem::Dram *> drams{&cpuDram, &gpuDram, &gpuDram,
                                   &gpuDram, &gpuDram};
    gpu::Pmc pmc{engine, net, cpuDeviceId, drams, 4096};
    std::unique_ptr<driver::Driver> driver;

    explicit Rig(driver::DriverConfig cfg = driver::DriverConfig{})
    {
        driver = std::make_unique<driver::Driver>(engine, pt, iommu,
                                                  pmc, cfg);
        iommu.setPolicy(&policy);
        iommu.setFaultHandler(driver.get());
    }
};

} // namespace

TEST(FaultSpansIntegration, CpmsBatchedFaultsFormCompleteSpanTrees)
{
    driver::DriverConfig cfg;
    cfg.faultBatchSize = 4; // CPMS batching: one flush for all four
    cfg.faultBatchWindow = 100000;
    Rig rig(cfg);

    obs::FaultSpans spans;
    const obs::Telemetry::Scope attached({.spans = &spans});

    // Four GPUs fault four distinct CPU-resident pages, staggered so
    // the early faults genuinely wait for the batch to fill.
    unsigned replies = 0;
    std::vector<Tick> origins;
    for (PageId p = 0; p < 4; ++p) {
        const Tick at = Tick(p) * 40;
        origins.push_back(at);
        rig.engine.schedule(at, [&rig, &replies, p] {
            rig.iommu.request(DeviceId(p + 1), p, false,
                              [&replies](xlat::XlatReply) { ++replies; },
                              rig.engine.now());
        });
    }
    rig.engine.run();

    EXPECT_EQ(replies, 4u);
    EXPECT_EQ(rig.driver->batchesProcessed, 1u);
    EXPECT_EQ(rig.driver->cpuShootdowns, 1u);

    // Every fault belongs to exactly one complete span tree.
    EXPECT_EQ(spans.faultsStarted(), 4u);
    EXPECT_EQ(spans.openFaults(), 0u) << "orphaned fault spans";
    ASSERT_EQ(spans.completedFaults().size(), 4u);

    std::set<FaultId> ids;
    std::set<PageId> pages;
    for (const obs::FaultRecord &rec : spans.completedFaults()) {
        ids.insert(rec.id);
        pages.insert(rec.page);
        // Exactly the eight taxonomy stages, in order, monotone.
        ASSERT_EQ(rec.marks.size(), obs::numStages);
        Tick prev = rec.origin;
        for (unsigned s = 0; s < obs::numStages; ++s) {
            EXPECT_EQ(unsigned(rec.marks[s].stage), s);
            EXPECT_GE(rec.marks[s].at, prev);
            prev = rec.marks[s].at;
        }
        EXPECT_GT(rec.totalLatency(), 0u);
        // The span origin is the requester's miss time, not the walk.
        EXPECT_NE(std::find(origins.begin(), origins.end(), rec.origin),
                  origins.end());
    }
    EXPECT_EQ(ids.size(), 4u) << "fault ids must be unique";
    EXPECT_EQ(pages.size(), 4u);

    // Aggregate invariant: the stage sums partition the summed
    // end-to-end service time exactly (integer ticks, no rounding).
    const obs::CriticalPath &cp = spans.criticalPath();
    EXPECT_EQ(cp.faults(), 4u);
    double stage_total = 0.0;
    for (unsigned s = 0; s < obs::numStages; ++s)
        stage_total += cp.stageSum(Stage(s));
    EXPECT_DOUBLE_EQ(stage_total, cp.total().sum());
    // Batching really showed up: somebody waited for the batch.
    EXPECT_GT(cp.stageSum(Stage::BatchWait), 0.0);
}

TEST(FaultSpansIntegration, BoundedPmcSurfacesTransferQueueTime)
{
    Rig rig; // only for engine/net/drams
    gpu::Pmc bounded{rig.engine, rig.net, cpuDeviceId, rig.drams, 4096,
                     /*max_concurrent=*/1};

    obs::FaultSpans spans;
    const obs::Telemetry::Scope attached({.spans = &spans});
    const FaultId f1 = spans.beginFault(1, 10, 0);
    const FaultId f2 = spans.beginFault(2, 11, 0);

    unsigned done = 0;
    bounded.transferPage(10, 1, [&] {
        ++done;
        spans.complete(f1, rig.engine.now());
    }, f1);
    bounded.transferPage(11, 2, [&] {
        ++done;
        spans.complete(f2, rig.engine.now());
    }, f2);
    EXPECT_EQ(bounded.queueDepth(), 2u);
    rig.engine.run();

    EXPECT_EQ(done, 2u);
    EXPECT_EQ(bounded.transfersDeferred, 1u);
    EXPECT_EQ(bounded.queueDepth(), 0u);

    // First transfer started immediately; the second's queue stage is
    // the first one's whole service time.
    ASSERT_EQ(spans.completedFaults().size(), 2u);
    auto queueTime = [](const obs::FaultRecord &rec) {
        Tick prev = rec.origin, dur = 0;
        for (const obs::StageMark &m : rec.marks) {
            if (m.stage == Stage::TransferQueue)
                dur = m.at - prev;
            prev = m.at;
        }
        return dur;
    };
    const auto &first = spans.completedFaults()[0];
    const auto &second = spans.completedFaults()[1];
    EXPECT_EQ(queueTime(first.id == f1 ? first : second), 0u);
    EXPECT_GT(queueTime(first.id == f2 ? first : second), 0u);
}
