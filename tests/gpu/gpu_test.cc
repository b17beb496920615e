/**
 * @file
 * GPU-level tests: the translation path (L1 TLB -> L2 TLB -> IOMMU),
 * local vs remote routing, TLB fill rules for remote translations,
 * the ACUD drain (waits only for data-phase accesses to migrating
 * pages), selective shootdown, and the per-Shader-Engine access
 * counters and their collection.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/core/migration_policy.hh"
#include "src/gpu/gpu.hh"
#include "src/sim/engine.hh"
#include "src/xlat/iommu.hh"
#include "tests/gpu/op_sink.hh"
#include "tests/gpu/test_router.hh"

using namespace griffin;

namespace {

class AlwaysMigratePolicy : public core::MigrationPolicy
{
  public:
    core::CpuAccessDecision
    onCpuResidentAccess(DeviceId, PageId, mem::PageTable &) override
    {
        return core::CpuAccessDecision{true};
    }
};

/** Instantly completes migrations (no PMC timing). */
class InstantDriver : public xlat::FaultHandler
{
  public:
    InstantDriver(mem::PageTable &pt, xlat::Iommu &iommu)
        : _pt(pt), _iommu(iommu)
    {
    }

    void
    onPageFault(DeviceId requester, PageId page,
                FaultId = invalidFaultId) override
    {
        ++faults;
        _pt.setLocation(page, requester);
        _iommu.onMigrationDone(page);
    }

    int faults = 0;

  private:
    mem::PageTable &_pt;
    xlat::Iommu &_iommu;
};

struct Rig
{
    sim::Engine engine;
    mem::PageTable pt{12, 5};
    ic::Network net{engine, 5, ic::LinkConfig{32.0, 10}};
    xlat::Iommu iommu{engine, net, pt, xlat::IommuConfig{}};
    AlwaysMigratePolicy policy;
    InstantDriver driver{pt, iommu};
    test::TestRouter router{engine, /*latency=*/100};
    gpu::GpuConfig cfg;
    std::unique_ptr<gpu::Gpu> gpu1;
    std::unique_ptr<test::OpSink> sink;

    explicit Rig(const gpu::GpuConfig &config = {}) : cfg(config)
    {
        iommu.setPolicy(&policy);
        iommu.setFaultHandler(&driver);
        gpu1 = std::make_unique<gpu::Gpu>(engine, 1, cfg, net, iommu,
                                          router, router.accesses);
        sink = std::make_unique<test::OpSink>(engine, *gpu1);
    }

    /** Issue one access from CU 0 and report completion time. */
    std::shared_ptr<std::optional<Tick>>
    access(Addr vaddr, bool is_write = false)
    {
        auto done = std::make_shared<std::optional<Tick>>();
        sink->issue(0, vaddr, is_write, [done](Tick t) { *done = t; });
        return done;
    }
};

} // namespace

TEST(Gpu, FirstTouchFaultsAndBecomesLocal)
{
    Rig rig;
    auto t = rig.access(0x5000);
    rig.engine.run();
    ASSERT_TRUE(t->has_value());
    EXPECT_EQ(rig.driver.faults, 1);
    EXPECT_EQ(rig.pt.locationOf(5), 1u);
    EXPECT_EQ(rig.gpu1->localAccesses, 1u);
}

TEST(Gpu, LocalTranslationIsCachedSecondAccessFast)
{
    Rig rig;
    auto t1 = rig.access(0x5000);
    rig.engine.run();
    const Tick first = **t1;
    auto t2 = rig.access(0x5040);
    rig.engine.run();
    // Second access: TLB hit + L1 miss path only — far below the
    // fault path.
    EXPECT_LT(**t2 - first, first / 2 + 1);
    EXPECT_EQ(rig.gpu1->xlatRequestsSent, 1u);
    EXPECT_TRUE(rig.gpu1->l1Tlb(0).probe(5));
    EXPECT_TRUE(rig.gpu1->l2Tlb().probe(5));
}

TEST(Gpu, L2TlbServesOtherCus)
{
    Rig rig;
    rig.access(0x5000);
    rig.engine.run();
    // CU 7 misses its own L1 TLB but hits the shared L2 TLB.
    bool done = false;
    rig.sink->issue(7, 0x5000, false, [&](Tick) { done = true; });
    rig.engine.run();
    EXPECT_TRUE(done);
    EXPECT_EQ(rig.gpu1->xlatRequestsSent, 1u);
    EXPECT_TRUE(rig.gpu1->l1Tlb(7).probe(5));
}

TEST(Gpu, RemotePageRoutedToOwnerAndNotCached)
{
    Rig rig;
    rig.pt.setLocation(9, 3); // resident on GPU 3
    auto t = rig.access(0x9000);
    rig.engine.run();
    ASSERT_TRUE(t->has_value());
    ASSERT_EQ(rig.router.remote.size(), 1u);
    EXPECT_EQ(rig.router.remote[0].first, 3u);
    EXPECT_EQ(rig.gpu1->remoteAccesses, 1u);
    // Paper SS II-B: remote translations are never cached.
    EXPECT_FALSE(rig.gpu1->l1Tlb(0).probe(9));
    EXPECT_FALSE(rig.gpu1->l2Tlb().probe(9));

    // So the next access pays the IOMMU again.
    rig.access(0x9040);
    rig.engine.run();
    EXPECT_EQ(rig.gpu1->xlatRequestsSent, 2u);
}

TEST(Gpu, AnAccessHoldsItsRecordUntilItCompletes)
{
    Rig rig;
    rig.pt.setLocation(9, 3); // resident on GPU 3
    auto local = rig.access(0x5000);
    auto remote = rig.access(0x9000);
    rig.engine.runUntil(20); // both issued, neither translated
    EXPECT_EQ(rig.router.accesses.live(), 2u);
    rig.engine.run();
    ASSERT_TRUE(local->has_value() && remote->has_value());
    EXPECT_EQ(rig.router.accesses.live(), 0u);

    // A router that drops the remote record strands it, and its op
    // never completes: exactly what the system's watchdog names.
    rig.router.releaseRecords = false;
    auto dropped = rig.access(0x9040);
    rig.engine.run();
    EXPECT_FALSE(dropped->has_value());
    EXPECT_EQ(rig.router.accesses.live(), 1u);
    rig.router.accesses.forEachLive([](const gpu::Access &a) {
        EXPECT_EQ(a.requester, 1u);
        EXPECT_EQ(a.owner, 3u);
        EXPECT_EQ(a.vaddr, 0x9040u);
    });
}

TEST(Gpu, AccessCountersRecordPerShaderEngine)
{
    Rig rig;
    rig.gpu1->enableAccessCounting();
    // CU 0 is in SE 0; CU 9 is in SE 1 (9 CUs per SE).
    rig.sink->issue(0, 0x1000, false);
    rig.sink->issue(0, 0x1040, false);
    rig.sink->issue(9, 0x2000, false);
    rig.engine.run();

    const auto counts = rig.gpu1->collectAccessCounts();
    ASSERT_EQ(counts.size(), 2u);
    EXPECT_EQ(counts[0].page, 1u);
    EXPECT_EQ(counts[0].count, 2u);
    EXPECT_EQ(counts[1].page, 2u);
}

TEST(ShaderEngine, CounterCapacityFollowsConfig)
{
    gpu::GpuConfig cfg;
    cfg.accessCounterCapacity = 37;
    Rig rig(cfg);
    for (unsigned se = 0; se < cfg.numSes; ++se)
        EXPECT_EQ(rig.gpu1->accessCounter(se).capacity(), 37u);
}

TEST(ShaderEngineDeath, MoreThan16CusRejected)
{
    // Paper SS III-C: an SE groups *up to 16* CUs.
    gpu::GpuConfig cfg;
    cfg.cusPerSe = 17;
    EXPECT_DEATH(Rig{cfg}, "16");
}

TEST(Gpu, CollectAccessCountsResets)
{
    Rig rig;
    rig.gpu1->enableAccessCounting();
    rig.sink->issue(0, 0x1000, false);
    rig.engine.run();
    EXPECT_EQ(rig.gpu1->collectAccessCounts().size(), 1u);
    EXPECT_TRUE(rig.gpu1->collectAccessCounts().empty());
}

TEST(Gpu, ShootdownPagesIsSelectiveAcrossAllTlbs)
{
    Rig rig;
    rig.access(0x5000);
    rig.access(0x6000);
    rig.engine.run();
    ASSERT_TRUE(rig.gpu1->l1Tlb(0).probe(5));
    ASSERT_TRUE(rig.gpu1->l2Tlb().probe(6));

    rig.gpu1->shootdownPages({5});
    EXPECT_FALSE(rig.gpu1->l1Tlb(0).probe(5));
    EXPECT_FALSE(rig.gpu1->l2Tlb().probe(5));
    EXPECT_TRUE(rig.gpu1->l2Tlb().probe(6));
    EXPECT_EQ(rig.gpu1->tlbShootdownEvents, 1u);
    EXPECT_EQ(rig.gpu1->tlbEntriesShotDown, 2u); // L1 + L2 entries
}

TEST(Gpu, FlushCachesForPagesWritesBackDirtyLines)
{
    Rig rig;
    rig.access(0x5000, true); // dirty line in L1 (and allocated in L2
                              // only on eviction, so L1 holds it)
    rig.engine.run();
    const std::uint64_t wb_before = rig.gpu1->dram().writes;
    rig.gpu1->flushCachesForPages({5});
    EXPECT_GE(rig.gpu1->dram().writes, wb_before + 1);
    EXPECT_FALSE(rig.gpu1->l1Cache(0).probe(0x5000));
}

TEST(Gpu, DrainImmediateWhenNoMatchingInflight)
{
    Rig rig;
    auto pages = std::make_shared<std::vector<PageId>>(
        std::vector<PageId>{42});
    bool drained = false;
    rig.gpu1->drainForPages(pages, [&] { drained = true; });
    rig.engine.run();
    EXPECT_TRUE(drained);
    EXPECT_EQ(rig.gpu1->drainsImmediate, 1u);
    rig.gpu1->resumeAllCus();
}

TEST(Gpu, DrainWaitsForDataPhaseOnMigratingPage)
{
    Rig rig;
    auto pages = std::make_shared<std::vector<PageId>>(
        std::vector<PageId>{7});
    gpu::DataPhase &dp = rig.gpu1->dataPhase();
    const auto token = dp.enter(7);

    Tick drained_at = 0;
    rig.gpu1->drainForPages(pages,
                            [&] { drained_at = rig.engine.now(); });
    rig.engine.schedule(500, [&] { dp.leave(token); });
    rig.engine.run();
    EXPECT_EQ(drained_at, 500u);
}

TEST(Gpu, DrainIgnoresDataPhaseOnOtherPages)
{
    Rig rig;
    auto pages = std::make_shared<std::vector<PageId>>(
        std::vector<PageId>{7});
    rig.gpu1->dataPhase().enter(8); // unrelated page never completes
    bool drained = false;
    rig.gpu1->drainForPages(pages, [&] { drained = true; });
    rig.engine.run();
    EXPECT_TRUE(drained); // ACUD's whole point
}

TEST(Gpu, DrainWaitsForAccessesEnteringWhileItIsPending)
{
    Rig rig;
    auto pages = std::make_shared<std::vector<PageId>>(
        std::vector<PageId>{7, 9});
    gpu::DataPhase &dp = rig.gpu1->dataPhase();
    gpu::DataPhase::Token early = 0, late = 0;

    Tick drained_at = 0;
    rig.gpu1->drainForPages(pages,
                            [&] { drained_at = rig.engine.now(); });
    // One access enters before the drain check, one after it, while
    // the drain waits; an access to another page comes and goes.
    rig.engine.schedule(2, [&] { early = dp.enter(7); });
    rig.engine.schedule(100, [&] { late = dp.enter(9); });
    rig.engine.schedule(150, [&] { dp.leave(dp.enter(8)); });
    rig.engine.schedule(200, [&] { dp.leave(early); });
    rig.engine.schedule(500, [&] { dp.leave(late); });
    rig.engine.run();
    EXPECT_EQ(drained_at, 500u);
    EXPECT_EQ(rig.gpu1->drainsImmediate, 0u);
    EXPECT_EQ(dp.live(), 0u);
    rig.gpu1->resumeAllCus();
}

TEST(Gpu, FlushForMigrationInvalidatesEverything)
{
    Rig rig;
    rig.access(0x5000, true);
    rig.engine.run();
    bool flushed = false;
    rig.gpu1->flushForMigration([&] { flushed = true; });
    rig.engine.run();
    EXPECT_TRUE(flushed);
    EXPECT_EQ(rig.gpu1->fullFlushes, 1u);
    EXPECT_EQ(rig.gpu1->l1Tlb(0).validEntries(), 0u);
    EXPECT_EQ(rig.gpu1->l2Tlb().validEntries(), 0u);
    EXPECT_EQ(rig.gpu1->l1Cache(0).validLines(), 0u);
    rig.gpu1->resumeAllCus();
}

TEST(Gpu, FreeCusAccountsForQueuedWork)
{
    Rig rig;
    EXPECT_EQ(rig.gpu1->freeCus(), rig.cfg.numCus());
    wl::Workgroup wg;
    wl::WavefrontTrace tr;
    tr.ops.push_back(wl::MemOp{0x1000, 1, false});
    wg.wavefronts.push_back(tr);
    rig.gpu1->enqueueWorkgroup(std::move(wg));
    EXPECT_EQ(rig.gpu1->freeCus(), rig.cfg.numCus() - 1);
    rig.engine.run();
    EXPECT_EQ(rig.gpu1->freeCus(), rig.cfg.numCus());
    EXPECT_EQ(rig.gpu1->workgroupsExecuted, 1u);
}
