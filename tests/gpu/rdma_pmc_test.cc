/**
 * @file
 * Unit tests for the DCA service engine (gpu::Rdma) and the Page
 * Migration Controller (gpu::Pmc).
 */

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <vector>

#include "src/gpu/pmc.hh"
#include "src/gpu/rdma.hh"
#include "src/mem/cache.hh"
#include "src/mem/dram.hh"
#include "src/sim/engine.hh"

using namespace griffin;

namespace {

struct RdmaRig
{
    sim::Engine engine;
    ic::Network net{engine, 5, ic::LinkConfig{32.0, 100}};
    mem::Cache l2{mem::CacheConfig{256 * 1024, 16, 64, 20}};
    mem::Dram dram{mem::DramConfig{}};
    gpu::Rdma rdma{engine, net, /*self=*/2, l2, dram, 64};
};

} // namespace

TEST(Rdma, ReadMissGoesToDramAndRepliesWithData)
{
    RdmaRig rig;
    std::optional<Tick> done;
    rig.rdma.serve(0x1000, 1, false, /*reply_to=*/1,
                   [&] { done = rig.engine.now(); });
    rig.engine.run();
    ASSERT_TRUE(done.has_value());
    EXPECT_EQ(rig.rdma.readsServed, 1u);
    EXPECT_EQ(rig.dram.reads, 1u);
    // The reply crossed the fabric (latency 2 x 100 + service).
    EXPECT_GT(*done, 200u);
    // The reply carried a cache line (72 B message).
    EXPECT_EQ(rig.net.link(2).bytesSent[0],
              ic::MessageSizes::dcaReadReply);
}

TEST(Rdma, ReadHitSkipsDram)
{
    RdmaRig rig;
    rig.l2.access(0x1000, false); // warm the line
    std::optional<Tick> miss_done, hit_done;
    rig.rdma.serve(0x2000, 2, false, 1,
                   [&] { miss_done = rig.engine.now(); });
    rig.engine.run();
    RdmaRig rig2;
    rig2.l2.access(0x1000, false);
    rig2.rdma.serve(0x1000, 1, false, 1,
                    [&] { hit_done = rig2.engine.now(); });
    rig2.engine.run();
    EXPECT_EQ(rig2.rdma.l2HitsServed, 1u);
    EXPECT_EQ(rig2.dram.reads, 0u);
    EXPECT_LT(*hit_done, *miss_done);
}

TEST(Rdma, WriteAcksWithSmallMessage)
{
    RdmaRig rig;
    bool done = false;
    rig.rdma.serve(0x3000, 3, true, 3, [&] { done = true; });
    rig.engine.run();
    EXPECT_TRUE(done);
    EXPECT_EQ(rig.rdma.writesServed, 1u);
    EXPECT_EQ(rig.net.link(2).bytesSent[0],
              ic::MessageSizes::dcaWriteAck);
    // Write-allocate left the line dirty in the L2.
    EXPECT_TRUE(rig.l2.probe(0x3000));
}

TEST(Rdma, ServedLineHoldsADrainOnItsPage)
{
    sim::Engine engine;
    ic::Network net{engine, 5, ic::LinkConfig{32.0, 100}};
    mem::Cache l2{mem::CacheConfig{256 * 1024, 16, 64, 20}};
    mem::Dram dram{mem::DramConfig{}};
    gpu::DataPhase dp;
    gpu::Rdma rdma{engine, net, /*self=*/2, l2, dram, 64, &dp};

    bool replied = false, drained = false;
    rdma.serve(0x7040, 7, false, 1, [&] { replied = true; });
    EXPECT_EQ(dp.live(), 1u);
    dp.beginDrain(std::make_shared<std::vector<PageId>>(
        std::vector<PageId>{7}));
    EXPECT_FALSE(dp.satisfied());
    dp.await([&] {
        drained = true;
        EXPECT_FALSE(replied) << "the line leaves before its reply";
    });
    engine.run();
    EXPECT_TRUE(drained);
    EXPECT_TRUE(replied);
    EXPECT_EQ(dp.live(), 0u);
    EXPECT_FALSE(dp.awaiting());
}

namespace {

struct PmcRig
{
    sim::Engine engine;
    ic::Network net{engine, 3, ic::LinkConfig{32.0, 250}};
    mem::Dram cpuDram{mem::DramConfig{4, 120, 16.0, 256}};
    mem::Dram gpuDram{mem::DramConfig{}};
    std::vector<mem::Dram *> drams{&cpuDram, &gpuDram, &gpuDram};
    gpu::Pmc pmc{engine, net, /*self=*/0, drams, 4096};
};

} // namespace

TEST(Pmc, TransfersWholePageAcrossTheFabric)
{
    PmcRig rig;
    std::optional<Tick> done;
    rig.pmc.transferPage(7, 1, [&] { done = rig.engine.now(); });
    rig.engine.run();
    ASSERT_TRUE(done.has_value());
    EXPECT_EQ(rig.pmc.pagesTransferred, 1u);
    EXPECT_EQ(rig.pmc.bytesTransferred, 4096u);
    // Source read + destination write happened.
    EXPECT_EQ(rig.cpuDram.reads, 1u);
    EXPECT_EQ(rig.gpuDram.writes, 1u);
    // The fabric carried page + header on both hops.
    EXPECT_EQ(rig.net.link(0).bytesSent[0], 4096u + 8u);
    // Lower bound: source DRAM read burst + 2 x (129 ser + 250 lat).
    EXPECT_GT(*done, 758u);
}

TEST(Pmc, BackToBackTransfersPipelineOnTheLink)
{
    PmcRig rig;
    std::vector<Tick> done;
    for (PageId p = 0; p < 4; ++p)
        rig.pmc.transferPage(p, 1, [&] { done.push_back(rig.engine.now()); });
    rig.engine.run();
    ASSERT_EQ(done.size(), 4u);
    // Completions are spaced by roughly the serialization time of one
    // page (129 cycles at 32 B/cy), not a full round trip each.
    for (std::size_t i = 1; i < done.size(); ++i) {
        EXPECT_GT(done[i], done[i - 1]);
        EXPECT_LT(done[i] - done[i - 1], 400u);
    }
    EXPECT_EQ(rig.pmc.bytesTransferred, 4u * 4096u);
}

TEST(Pmc, DistinctDestinationsStillSerializeOnSourceEgress)
{
    PmcRig rig;
    std::vector<Tick> done;
    rig.pmc.transferPage(0, 1, [&] { done.push_back(rig.engine.now()); });
    rig.pmc.transferPage(1, 2, [&] { done.push_back(rig.engine.now()); });
    rig.engine.run();
    ASSERT_EQ(done.size(), 2u);
    // Both leave through the CPU's upstream wire: ~129 cycles apart.
    EXPECT_GE(done[1] - done[0], 100u);
}
