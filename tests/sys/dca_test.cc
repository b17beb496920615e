/**
 * @file
 * The system's DCA path on one access record: the request crosses the
 * fabric, the owner's RDMA engine serves the line inside the owner's
 * data phase, the reply carries the line (or a write ack) back, and the
 * record is released when the reply lands. A record that is never
 * released trips the run's watchdog.
 */

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/sim/watchdog.hh"
#include "src/sys/multi_gpu_system.hh"
#include "src/workloads/workload.hh"
#include "tests/gpu/op_sink.hh"

using namespace griffin;

namespace {

/** GPU 1 reaches pages resident on GPU 2 over DCA. */
struct DcaRig
{
    sys::SystemConfig cfg;
    sys::MultiGpuSystem system{cfg};
    test::OpSink sink{system.engine(), system.gpu(0)};
    gpu::Gpu &owner = system.gpu(1);

    /** Issue one access from GPU 1 to @p vaddr, homed on GPU 2. */
    std::shared_ptr<std::optional<Tick>>
    access(Addr vaddr, bool is_write)
    {
        system.pageTable().setLocation(vaddr >> cfg.gpu.pageShift, 2);
        auto done = std::make_shared<std::optional<Tick>>();
        sink.issue(0, vaddr, is_write, [done](Tick t) { *done = t; });
        return done;
    }

    /** Run until the access is being served in the owner's data phase. */
    void
    runUntilServed()
    {
        while (owner.dataPhase().live() == 0 &&
               !system.engine().queue().empty())
            system.engine().runUntil(system.engine().now() + 1);
        ASSERT_EQ(owner.dataPhase().live(), 1u);
    }
};

} // namespace

TEST(Rdma, ReadMissGoesToDramAndRepliesWithData)
{
    DcaRig rig;
    auto done = rig.access(0x1000, false);
    rig.system.engine().run();
    ASSERT_TRUE(done->has_value());
    EXPECT_EQ(rig.owner.rdma().readsServed, 1u);
    EXPECT_EQ(rig.owner.dram().reads, 1u);
    EXPECT_EQ(rig.system.gpu(0).remoteAccesses, 1u);
    // The request and the reply each crossed two links.
    EXPECT_GT(**done, 4 * rig.cfg.link.latency);
    // The owner sent one message: the reply, carrying a cache line.
    EXPECT_EQ(rig.system.network().link(2).bytesSent[0],
              ic::MessageSizes::dcaReadReply);
    EXPECT_EQ(rig.system.accesses().live(), 0u);
}

TEST(Rdma, WriteAcksWithSmallMessage)
{
    DcaRig rig;
    auto done = rig.access(0x3000, true);
    rig.system.engine().run();
    EXPECT_TRUE(done->has_value());
    EXPECT_EQ(rig.owner.rdma().writesServed, 1u);
    EXPECT_EQ(rig.system.network().link(2).bytesSent[0],
              ic::MessageSizes::dcaWriteAck);
    // Write-allocate left the line in the owner's L2.
    EXPECT_TRUE(rig.owner.l2().probe(0x3000));
    EXPECT_EQ(rig.system.accesses().live(), 0u);
}

TEST(Rdma, ServedLineHoldsADrainOnItsPage)
{
    DcaRig rig;
    auto replied = rig.access(0x7040, false);
    rig.runUntilServed();
    gpu::DataPhase &dp = rig.owner.dataPhase();
    bool drained = false;
    dp.beginDrain(std::make_shared<std::vector<PageId>>(
        std::vector<PageId>{7}));
    EXPECT_FALSE(dp.satisfied());
    dp.await([&] {
        drained = true;
        EXPECT_FALSE(replied->has_value())
            << "the line leaves before its reply";
    });
    rig.system.engine().run();
    EXPECT_TRUE(drained);
    EXPECT_TRUE(replied->has_value());
    EXPECT_EQ(dp.live(), 0u);
    EXPECT_FALSE(dp.awaiting());
}

TEST(Gpu, DcaServiceOnADrainSetPageHoldsTheDrain)
{
    DcaRig rig;
    auto replied = rig.access(0x7040, false);
    rig.runUntilServed();
    const Tick served_at = rig.system.engine().now();
    Tick drained_at = 0;
    // The line misses the owner's L2, so the service outlasts the
    // drain check.
    rig.owner.drainForPages(
        std::make_shared<std::vector<PageId>>(std::vector<PageId>{7}),
        [&] {
            drained_at = rig.system.engine().now();
            EXPECT_EQ(rig.owner.dataPhase().live(), 0u);
        });
    EXPECT_EQ(rig.owner.dataPhase().busy(), 1u);
    rig.system.engine().run();
    ASSERT_TRUE(replied->has_value());
    EXPECT_GT(drained_at, served_at + rig.cfg.gpu.drainCheckLatency);
    EXPECT_LT(drained_at, **replied); // released before the reply
    EXPECT_EQ(rig.owner.drainsImmediate, 0u);
    rig.owner.resumeAllCus();
}

TEST(AccessTable, AStrandedRecordTripsTheWatchdog)
{
    wl::WorkloadConfig wcfg;
    wcfg.scaleDiv = 256;
    auto workload = wl::makeWorkload("SC", wcfg);
    sys::MultiGpuSystem system{sys::SystemConfig{}};
    system.accesses().acquire(gpu::Access{
        .vaddr = 0x1000, .page = 1, .done = {}, .cuId = 0, .requester = 1,
        .isWrite = false});
    try {
        system.run(*workload);
        FAIL() << "a record never released must trip the watchdog";
    } catch (const sim::WatchdogError &e) {
        EXPECT_NE(std::string(e.what()).find("accesses: inFlight = 1"),
                  std::string::npos)
            << e.what();
    }
}
