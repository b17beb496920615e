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
    mem::Cache l2{mem::CacheConfig{256 * 1024, 16, 20}};
    mem::Dram dram{mem::DramConfig{}};
    gpu::Rdma rdma{l2, dram};
};

} // namespace

// The replies and the drain bookkeeping of a DCA service are the
// system's (tests/sys/dca_test.cc); the engine itself serves the line.

TEST(Rdma, ReadHitSkipsDram)
{
    RdmaRig miss, hit;
    hit.l2.access(0x1000, false); // warm the line
    const Tick miss_ready = miss.rdma.serve(100, 0x1000, false);
    const Tick hit_ready = hit.rdma.serve(100, 0x1000, false);
    EXPECT_EQ(hit_ready, 100 + hit.l2.latency());
    EXPECT_EQ(hit.rdma.readsServed, 1u);
    EXPECT_EQ(hit.rdma.l2HitsServed, 1u);
    EXPECT_EQ(hit.dram.reads, 0u);
    EXPECT_EQ(miss.rdma.l2HitsServed, 0u);
    EXPECT_EQ(miss.dram.reads, 1u);
    EXPECT_GT(miss_ready, hit_ready);
}

TEST(Rdma, WriteMissAllocatesADirtyLine)
{
    RdmaRig rig;
    rig.rdma.serve(0, 0x3000, true);
    EXPECT_EQ(rig.rdma.writesServed, 1u);
    // Write-allocate: the missing line is read from DRAM first.
    EXPECT_EQ(rig.dram.reads, 1u);
    EXPECT_TRUE(rig.l2.probe(0x3000));
    EXPECT_EQ(rig.l2.flushAll().dirtyWritebacks, 1u);
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
