/**
 * @file
 * Unit tests for xlat::Iommu: IOTLB behaviour, walker concurrency and
 * FCFS scheduling, walk coalescing, the fault path, DCA redirection,
 * and page blocking during migration.
 */

#include <gtest/gtest.h>

#include <vector>

#include "src/core/migration_policy.hh"
#include "src/interconnect/switch.hh"
#include "src/mem/page_table.hh"
#include "src/sim/engine.hh"
#include "src/xlat/iommu.hh"

using namespace griffin;

namespace {

/** Policy stub with a scriptable answer. */
class StubPolicy : public core::MigrationPolicy
{
  public:
    core::CpuAccessDecision
    onCpuResidentAccess(DeviceId requester, PageId page,
                        mem::PageTable &) override
    {
        ++calls;
        lastRequester = requester;
        lastPage = page;
        return core::CpuAccessDecision{migrateAnswer};
    }

    bool migrateAnswer = true;
    int calls = 0;
    DeviceId lastRequester = 0;
    PageId lastPage = 0;
};

/** Fault handler stub that records faults (and can auto-complete). */
class StubHandler : public xlat::FaultHandler
{
  public:
    void
    onPageFault(DeviceId requester, PageId page,
                FaultId = invalidFaultId) override
    {
        faults.push_back({requester, page});
    }

    std::vector<std::pair<DeviceId, PageId>> faults;
};

struct Rig
{
    sim::Engine engine;
    mem::PageTable pt{12, 5};
    ic::Network net{engine, 5, ic::LinkConfig{32.0, 10}};
    xlat::IommuConfig cfg;
    xlat::Iommu iommu;
    StubPolicy policy;
    StubHandler handler;

    explicit Rig(xlat::IommuConfig c = xlat::IommuConfig{})
        : cfg(c), iommu(engine, net, pt, cfg)
    {
        iommu.setPolicy(&policy);
        iommu.setFaultHandler(&handler);
    }

    /** Issue a request and capture the reply. */
    std::shared_ptr<std::optional<xlat::XlatReply>>
    request(DeviceId requester, PageId page)
    {
        auto out = std::make_shared<std::optional<xlat::XlatReply>>();
        iommu.request(requester, page, false,
                      [out](xlat::XlatReply r) { *out = r; });
        return out;
    }
};

} // namespace

TEST(Iommu, GpuResidentPageRepliesWithLocation)
{
    Rig rig;
    rig.pt.setLocation(5, 2);
    auto reply = rig.request(1, 5);
    rig.engine.run();
    ASSERT_TRUE(reply->has_value());
    EXPECT_EQ((*reply)->location, 2u);
    EXPECT_FALSE((*reply)->cacheable); // remote to requester 1
    EXPECT_EQ(rig.iommu.walks, 1u);
}

TEST(Iommu, LocalPageIsCacheable)
{
    Rig rig;
    rig.pt.setLocation(5, 1);
    auto reply = rig.request(1, 5);
    rig.engine.run();
    EXPECT_TRUE((*reply)->cacheable);
}

TEST(Iommu, IotlbHitSkipsWalk)
{
    Rig rig;
    rig.pt.setLocation(5, 2);
    auto first = rig.request(1, 5);
    rig.engine.run();
    EXPECT_EQ(rig.iommu.walks, 1u);
    auto second = rig.request(3, 5);
    rig.engine.run();
    EXPECT_EQ(rig.iommu.walks, 1u); // IOTLB hit
    EXPECT_EQ(rig.iommu.iotlbHits, 1u);
    EXPECT_EQ((*second)->location, 2u);
}

TEST(Iommu, CpuResidentNeverCachedInIotlb)
{
    Rig rig;
    rig.policy.migrateAnswer = false; // DCA redirect
    auto r1 = rig.request(1, 7);
    rig.engine.run();
    auto r2 = rig.request(1, 7);
    rig.engine.run();
    // Both accesses reached the policy: DFTM can see the 2nd touch.
    EXPECT_EQ(rig.policy.calls, 2);
    EXPECT_EQ(rig.iommu.dcaRedirects, 2u);
    EXPECT_EQ((*r2)->location, cpuDeviceId);
    EXPECT_FALSE((*r2)->cacheable);
}

TEST(Iommu, ExplicitCpuCachingServesLeases)
{
    Rig rig;
    rig.policy.migrateAnswer = false;
    rig.iommu.cacheCpuResident(7);
    auto r = rig.request(1, 7);
    rig.engine.run();
    // Served from the IOTLB: the policy never saw it.
    EXPECT_EQ(rig.policy.calls, 0);
    EXPECT_EQ((*r)->location, cpuDeviceId);
    rig.iommu.invalidateIotlb(7);
    rig.request(1, 7);
    rig.engine.run();
    EXPECT_EQ(rig.policy.calls, 1);
}

TEST(Iommu, FaultParksRequestUntilMigrationDone)
{
    Rig rig;
    auto reply = rig.request(2, 9);
    rig.engine.run();
    ASSERT_EQ(rig.handler.faults.size(), 1u);
    EXPECT_EQ(rig.handler.faults[0].first, 2u);
    EXPECT_FALSE(reply->has_value()); // parked
    EXPECT_TRUE(rig.pt.info(9).migrating);

    // Driver completes the migration.
    rig.pt.setLocation(9, 2);
    rig.iommu.onMigrationDone(9);
    rig.engine.run();
    ASSERT_TRUE(reply->has_value());
    EXPECT_EQ((*reply)->location, 2u);
    EXPECT_TRUE((*reply)->cacheable);
}

TEST(Iommu, ConcurrentFaultsOnSamePageCoalesce)
{
    Rig rig;
    auto r1 = rig.request(1, 9);
    auto r2 = rig.request(2, 9);
    auto r3 = rig.request(3, 9);
    rig.engine.run();
    // One walk (coalesced), one fault; everyone parked.
    EXPECT_EQ(rig.iommu.walks, 1u);
    EXPECT_EQ(rig.handler.faults.size(), 1u);
    EXPECT_FALSE(r1->has_value());
    EXPECT_FALSE(r3->has_value());

    rig.pt.setLocation(9, 1);
    rig.iommu.onMigrationDone(9);
    rig.engine.run();
    EXPECT_TRUE(r1->has_value());
    EXPECT_TRUE(r2->has_value());
    EXPECT_TRUE(r3->has_value());
    EXPECT_TRUE((*r1)->cacheable);   // local to GPU 1
    EXPECT_FALSE((*r2)->cacheable);  // remote to GPU 2
}

TEST(Iommu, WalkerPoolBoundsConcurrency)
{
    xlat::IommuConfig cfg;
    cfg.numWalkers = 2;
    cfg.walkLatency = 100;
    Rig rig(cfg);
    // Distinct pages so nothing coalesces.
    std::vector<std::shared_ptr<std::optional<xlat::XlatReply>>> replies;
    for (PageId p = 0; p < 6; ++p) {
        rig.pt.setLocation(p, 1);
        rig.iommu.invalidateIotlb(p);
        replies.push_back(rig.request(1, p));
    }
    // 6 walks over 2 walkers = 3 serialized rounds of 100 cycles.
    rig.engine.runUntil(150);
    int done = 0;
    for (const auto &r : replies)
        done += r->has_value() ? 1 : 0;
    EXPECT_EQ(done, 2);
    rig.engine.run();
    for (const auto &r : replies)
        EXPECT_TRUE(r->has_value());
    EXPECT_EQ(rig.iommu.walks, 6u);
}

TEST(Iommu, BlockPageParksNewRequests)
{
    Rig rig;
    rig.pt.setLocation(4, 1);
    rig.iommu.blockPage(4);
    auto reply = rig.request(2, 4);
    rig.engine.run();
    EXPECT_FALSE(reply->has_value());
    EXPECT_EQ(rig.iommu.parkedRequests, 1u);

    rig.pt.setLocation(4, 3);
    rig.iommu.onMigrationDone(4);
    rig.engine.run();
    ASSERT_TRUE(reply->has_value());
    EXPECT_EQ((*reply)->location, 3u);
}

TEST(Iommu, BlockPagePurgesIotlb)
{
    Rig rig;
    rig.pt.setLocation(4, 1);
    rig.request(1, 4);
    rig.engine.run();
    EXPECT_TRUE(rig.iommu.iotlb().probe(4));
    rig.iommu.blockPage(4);
    EXPECT_FALSE(rig.iommu.iotlb().probe(4));
}

TEST(Iommu, ActiveWalksTracksQueueAndService)
{
    xlat::IommuConfig cfg;
    cfg.numWalkers = 1;
    cfg.walkLatency = 100;
    Rig rig(cfg);
    rig.pt.setLocation(0, 1);
    rig.pt.setLocation(1, 1);
    rig.request(1, 0);
    rig.request(1, 1);
    rig.engine.runUntil(cfg.iotlb.latency); // past the IOTLB probes
    EXPECT_EQ(rig.iommu.activeWalks(), 2u);
    rig.engine.run();
    EXPECT_EQ(rig.iommu.activeWalks(), 0u);
}
