/**
 * @file
 * Unit tests for gpu::Dispatcher: demand-driven round-robin dealing,
 * GPU 1's first-workgroup advantage, kernel completion, and refill
 * flow to faster GPUs.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/core/first_touch_policy.hh"
#include "src/gpu/dispatcher.hh"
#include "src/gpu/gpu.hh"
#include "src/sim/engine.hh"
#include "src/xlat/iommu.hh"
#include "tests/gpu/test_router.hh"

using namespace griffin;

namespace {

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
        _pt.setLocation(page, requester);
        _iommu.onMigrationDone(page);
    }

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
    core::FirstTouchPolicy policy;
    InstantDriver driver{pt, iommu};
    test::TestRouter router{engine};
    std::vector<std::unique_ptr<gpu::Gpu>> gpus;
    std::vector<gpu::Gpu *> ptrs;
    std::unique_ptr<gpu::Dispatcher> dispatcher;

    explicit Rig(unsigned cus_per_se = 2)
    {
        iommu.setPolicy(&policy);
        iommu.setFaultHandler(&driver);
        gpu::GpuConfig cfg;
        cfg.numSes = 1;
        cfg.cusPerSe = cus_per_se;
        for (DeviceId id = 1; id <= 4; ++id) {
            gpus.push_back(std::make_unique<gpu::Gpu>(
                engine, id, cfg, net, iommu, router,
                router.accesses));
            ptrs.push_back(gpus.back().get());
        }
        dispatcher = std::make_unique<gpu::Dispatcher>(engine, ptrs, 4);
    }
};

wl::KernelLaunch
makeKernel(unsigned wgs, unsigned ops = 1)
{
    wl::KernelLaunch launch;
    for (unsigned w = 0; w < wgs; ++w) {
        wl::Workgroup wg;
        wg.id = w;
        wl::WavefrontTrace tr;
        for (unsigned i = 0; i < ops; ++i)
            tr.ops.push_back(
                wl::MemOp{Addr(w) * 0x1000 + i * 64, 1, false});
        wg.wavefronts.push_back(std::move(tr));
        launch.workgroups.push_back(std::move(wg));
    }
    return launch;
}

} // namespace

TEST(Dispatcher, KernelCompletesAfterAllWorkgroups)
{
    Rig rig;
    bool done = false;
    rig.dispatcher->launchKernel(makeKernel(12), [&] { done = true; });
    rig.engine.run();
    EXPECT_TRUE(done);
    EXPECT_EQ(rig.dispatcher->workgroupsDispatched, 12u);
    EXPECT_FALSE(rig.dispatcher->kernelInFlight());
}

TEST(Dispatcher, EmptyKernelCompletes)
{
    Rig rig;
    bool done = false;
    rig.dispatcher->launchKernel(wl::KernelLaunch{}, [&] { done = true; });
    rig.engine.run();
    EXPECT_TRUE(done);
}

TEST(Dispatcher, InitialDealIsRoundRobinGpu1First)
{
    Rig rig;
    rig.dispatcher->launchKernel(makeKernel(8, 100), nullptr);
    // After 4 dispatch slots the first four workgroups went to GPUs
    // 1, 2, 3, 4 in that order.
    rig.engine.runUntil(17);
    const auto &per = rig.dispatcher->perGpuDispatched();
    EXPECT_EQ(per[0], 1u);
    EXPECT_EQ(per[1], 1u);
    EXPECT_EQ(per[2], 1u);
    EXPECT_EQ(per[3], 1u);
    rig.engine.run();
}

TEST(Dispatcher, EvenSplitWhenGpusAreSymmetric)
{
    Rig rig;
    rig.dispatcher->launchKernel(makeKernel(40, 4), nullptr);
    rig.engine.run();
    const auto &per = rig.dispatcher->perGpuDispatched();
    std::uint64_t total = 0;
    for (const auto n : per) {
        EXPECT_GE(n, 8u);
        EXPECT_LE(n, 12u);
        total += n;
    }
    EXPECT_EQ(total, 40u);
}

TEST(Dispatcher, RefillsFlowWhenCusFree)
{
    // 2 CUs per GPU = 8 CU slots; 24 workgroups need three waves.
    Rig rig;
    bool done = false;
    rig.dispatcher->launchKernel(makeKernel(24, 8), [&] { done = true; });
    rig.engine.run();
    EXPECT_TRUE(done);
    EXPECT_EQ(rig.dispatcher->workgroupsDispatched, 24u);
}

TEST(Dispatcher, BackToBackKernels)
{
    Rig rig;
    int done = 0;
    rig.dispatcher->launchKernel(makeKernel(8), [&] {
        ++done;
        rig.dispatcher->launchKernel(makeKernel(8), [&] { ++done; });
    });
    rig.engine.run();
    EXPECT_EQ(done, 2);
    EXPECT_EQ(rig.dispatcher->kernelsLaunched, 2u);
    EXPECT_EQ(rig.dispatcher->workgroupsDispatched, 16u);
}
