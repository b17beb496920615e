/**
 * @file
 * Tests for the workload generators: factory coverage, footprint
 * bounds, determinism, trace-shape properties per access pattern, and
 * the TraceBuilder's wavefront interleaving.
 */

#include <gtest/gtest.h>

#include <set>
#include <unordered_map>
#include <unordered_set>

#include "src/workloads/workload.hh"

using namespace griffin;
using wl::makeWorkload;
using wl::Workload;
using wl::WorkloadConfig;

namespace {

WorkloadConfig
tinyConfig()
{
    WorkloadConfig cfg;
    cfg.scaleDiv = 64;
    cfg.seed = 42;
    return cfg;
}

/** All line addresses of a kernel. */
std::vector<Addr>
allAddrs(wl::KernelLaunch &launch)
{
    std::vector<Addr> addrs;
    for (const auto &wg : launch.workgroups) {
        for (const auto &wf : wg.wavefronts) {
            for (const auto &op : wf.ops)
                addrs.push_back(op.vaddr);
        }
    }
    return addrs;
}

} // namespace

TEST(WorkloadFactory, ListsExactlyTheTableIIIWorkloads)
{
    const auto names = wl::workloadNames();
    ASSERT_EQ(names.size(), 10u);
    EXPECT_EQ(names.front(), "BFS");
    EXPECT_EQ(names.back(), "ST");
    for (const auto &name : names)
        EXPECT_NE(makeWorkload(name, tinyConfig()), nullptr) << name;
}

TEST(WorkloadFactory, UnknownNameReturnsNull)
{
    EXPECT_EQ(makeWorkload("nope", tinyConfig()), nullptr);
    EXPECT_EQ(makeWorkload("bfs", tinyConfig()), nullptr); // case matters
}

class EveryWorkload : public ::testing::TestWithParam<std::string>
{
  protected:
    std::unique_ptr<Workload> w = makeWorkload(GetParam(), tinyConfig());
};

TEST_P(EveryWorkload, MetadataIsConsistent)
{
    EXPECT_EQ(w->name(), GetParam());
    EXPECT_FALSE(w->fullName().empty());
    EXPECT_FALSE(w->suite().empty());
    EXPECT_FALSE(w->accessPattern().empty());
    EXPECT_GE(w->paperFootprintBytes(), 30ull << 20);
    EXPECT_LE(w->paperFootprintBytes(), 64ull << 20);
    EXPECT_EQ(w->footprintBytes(), w->paperFootprintBytes() / 64);
    EXPECT_GE(w->numKernels(), 1u);
    EXPECT_GE(w->workgroupsPerKernel(), 60u);
}

TEST_P(EveryWorkload, KernelsHaveTheDeclaredWorkgroupCount)
{
    for (unsigned k = 0; k < w->numKernels(); ++k) {
        const auto launch = w->makeKernel(k);
        EXPECT_EQ(launch.workgroups.size(), w->workgroupsPerKernel());
        EXPECT_GT(launch.totalOps(), 0u);
    }
}

TEST_P(EveryWorkload, AddressesStayWithinTheFootprint)
{
    auto launch = w->makeKernel(0);
    for (const Addr addr : allAddrs(launch))
        EXPECT_LT(addr, w->footprintBytes()) << GetParam();
}

TEST_P(EveryWorkload, AddressesAreLineAligned)
{
    auto launch = w->makeKernel(0);
    for (const Addr addr : allAddrs(launch))
        EXPECT_EQ(addr % 64, 0u);
}

TEST_P(EveryWorkload, GenerationIsDeterministic)
{
    auto w2 = makeWorkload(GetParam(), tinyConfig());
    auto a = w->makeKernel(1);
    auto b = w2->makeKernel(1);
    ASSERT_EQ(a.workgroups.size(), b.workgroups.size());
    ASSERT_EQ(a.totalOps(), b.totalOps());
    auto aa = allAddrs(a), bb = allAddrs(b);
    EXPECT_EQ(aa, bb);
}

TEST_P(EveryWorkload, SeedChangesRandomWorkloadsOnly)
{
    WorkloadConfig other = tinyConfig();
    other.seed = 1234;
    auto w2 = makeWorkload(GetParam(), other);
    auto ka = w->makeKernel(0);
    auto kb = w2->makeKernel(0);
    auto a = allAddrs(ka);
    auto b = allAddrs(kb);
    // BS is labelled Random for its pair distances but is a fully
    // deterministic butterfly; only BFS and PR use the seed.
    if (GetParam() == "BFS" || GetParam() == "PR") {
        EXPECT_NE(a, b) << "random workloads must vary with the seed";
    }
}

TEST_P(EveryWorkload, TouchesAReasonablePageCount)
{
    auto launch = w->makeKernel(0);
    std::unordered_set<PageId> pages;
    for (const Addr addr : allAddrs(launch))
        pages.insert(addr >> 12);
    // At 1/64 scale the footprints are 120-256 pages; each kernel
    // should touch a meaningful share of its buffers.
    EXPECT_GE(pages.size(), 16u);
    EXPECT_LE(pages.size(), w->footprintBytes() / 4096 + 2);
}

INSTANTIATE_TEST_SUITE_P(Suite, EveryWorkload,
                         ::testing::ValuesIn(wl::workloadNames()),
                         [](const auto &info) { return info.param; });

// --- Generator fingerprints ------------------------------------------

namespace {

/**
 * FNV-1a over every op of every kernel: address, write flag and
 * compute delay, with each kernel's, workgroup's and wavefront's size
 * and each workgroup id mixed in ahead of its contents, so moving an
 * op across a wavefront or workgroup boundary changes the hash.
 */
std::uint64_t
fingerprint(Workload &w)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    auto mix = [&h](std::uint64_t v) {
        for (int byte = 0; byte < 8; ++byte) {
            h ^= (v >> (8 * byte)) & 0xff;
            h *= 0x100000001b3ULL;
        }
    };
    for (unsigned k = 0; k < w.numKernels(); ++k) {
        const wl::KernelLaunch launch = w.makeKernel(k);
        mix(launch.workgroups.size());
        for (const auto &wg : launch.workgroups) {
            mix(wg.id);
            mix(wg.wavefronts.size());
            for (const auto &wf : wg.wavefronts) {
                mix(wf.ops.size());
                for (const auto &op : wf.ops) {
                    mix(op.vaddr);
                    mix(op.computeDelay);
                    mix(op.isWrite);
                }
            }
        }
    }
    return h;
}

struct Fingerprint
{
    const char *name;
    std::uint64_t scale32;  ///< scaleDiv 32, seed 42
    std::uint64_t tiny;     ///< tinyConfig()
};

/** Recorded hashes: any change to a generator's ops changes its row. */
constexpr Fingerprint recorded[] = {
    {"BFS", 0xac80fb5bb3516acaULL, 0x7531b36ea360ee26ULL},
    {"BS", 0xb45efa99bb91ad65ULL, 0xa501914cabf11e23ULL},
    {"FIR", 0xcd6ad2d75f6237d5ULL, 0x0db8b4b7ce049479ULL},
    {"FLW", 0x50e958197122547dULL, 0x7a9102f2a88fcb91ULL},
    {"FW", 0x0fbd961f781a2d49ULL, 0x97d7e717c1641a3bULL},
    {"KM", 0x8c2df4ffe664cc85ULL, 0x50a04fd9ec6b8115ULL},
    {"MT", 0xb5ab4e77743a8729ULL, 0x30254f53819df24dULL},
    {"PR", 0xc1ee9090a6950687ULL, 0x9e585a8dacb60a6aULL},
    {"SC", 0xf8a619975de9696dULL, 0x7e831ef2349c27d7ULL},
    {"ST", 0x9793ea81d27e29aeULL, 0xcee091177dba8392ULL},
};

} // namespace

TEST(GeneratorFingerprint, EveryKernelOfEveryWorkloadIsUnchanged)
{
    WorkloadConfig scale32;
    scale32.scaleDiv = 32;
    scale32.seed = 42;
    ASSERT_EQ(std::size(recorded), wl::workloadNames().size());
    for (const Fingerprint &want : recorded) {
        auto big = makeWorkload(want.name, scale32);
        auto tiny = makeWorkload(want.name, tinyConfig());
        ASSERT_NE(big, nullptr) << want.name;
        EXPECT_EQ(fingerprint(*big), want.scale32)
            << want.name << " at scale 32: 0x" << std::hex
            << fingerprint(*big);
        EXPECT_EQ(fingerprint(*tiny), want.tiny)
            << want.name << " at tinyConfig(): 0x" << std::hex
            << fingerprint(*tiny);
    }
}

// --- Pattern-specific properties -----------------------------------

TEST(WorkloadPatterns, MtInputLinesAreSingleTouch)
{
    const auto mt = makeWorkload("MT", tinyConfig());
    auto launch = mt->makeKernel(0);
    std::unordered_map<Addr, int> reads;
    for (const auto &wg : launch.workgroups) {
        for (const auto &wf : wg.wavefronts) {
            for (const auto &op : wf.ops) {
                if (!op.isWrite)
                    ++reads[op.vaddr];
            }
        }
    }
    for (const auto &[addr, n] : reads)
        EXPECT_EQ(n, 1) << "MT reads each input line exactly once";
}

TEST(WorkloadPatterns, MtWritesAreScattered)
{
    const auto mt = makeWorkload("MT", tinyConfig());
    auto launch = mt->makeKernel(0);
    // Take one workgroup's writes: consecutive writes must land far
    // apart (column scatter).
    const auto &wg = launch.workgroups[3];
    std::vector<Addr> writes;
    for (const auto &wf : wg.wavefronts) {
        for (const auto &op : wf.ops) {
            if (op.isWrite)
                writes.push_back(op.vaddr);
        }
    }
    ASSERT_GE(writes.size(), 2u);
    std::set<PageId> pages;
    for (const Addr a : writes)
        pages.insert(a >> 12);
    EXPECT_GT(pages.size(), writes.size() / 32);
}

TEST(WorkloadPatterns, KmCentroidPagesAreSharedByAllWorkgroups)
{
    const auto km = makeWorkload("KM", tinyConfig());
    auto launch = km->makeKernel(0);
    // Find pages touched by every workgroup: the centroid table.
    std::unordered_map<PageId, std::unordered_set<std::uint32_t>> users;
    for (const auto &wg : launch.workgroups) {
        for (const auto &wf : wg.wavefronts) {
            for (const auto &op : wf.ops)
                users[op.vaddr >> 12].insert(wg.id);
        }
    }
    std::size_t shared_by_all = 0;
    for (const auto &[page, set] : users)
        shared_by_all += set.size() == launch.workgroups.size() ? 1 : 0;
    EXPECT_GE(shared_by_all, 1u);
}

TEST(WorkloadPatterns, StHaloTouchesNeighbourBands)
{
    const auto st = makeWorkload("ST", tinyConfig());
    auto launch = st->makeKernel(0);
    // Band pages read by more than one workgroup exist (the halo).
    std::unordered_map<PageId, std::unordered_set<std::uint32_t>> users;
    for (const auto &wg : launch.workgroups) {
        for (const auto &wf : wg.wavefronts) {
            for (const auto &op : wf.ops) {
                if (!op.isWrite)
                    users[op.vaddr >> 12].insert(wg.id);
            }
        }
    }
    std::size_t shared = 0;
    for (const auto &[page, set] : users)
        shared += set.size() > 1 ? 1 : 0;
    EXPECT_GT(shared, 0u);
}

TEST(WorkloadPatterns, PrPullsReRandomizeEachKernel)
{
    const auto pr = makeWorkload("PR", tinyConfig());
    auto k0 = pr->makeKernel(0);
    auto k2 = pr->makeKernel(2); // same rank-buffer direction as k0
    auto a = allAddrs(k0);
    auto b = allAddrs(k2);
    EXPECT_NE(a, b);
}

TEST(WorkloadPatterns, ScAlternatesImageBuffers)
{
    const auto sc = makeWorkload("SC", tinyConfig());
    auto k0 = sc->makeKernel(0);
    auto k1 = sc->makeKernel(1);
    // Writes of kernel 0 and reads of kernel 1 hit the same buffer.
    std::set<PageId> k0_writes, k1_reads;
    for (const auto &wg : k0.workgroups)
        for (const auto &wf : wg.wavefronts)
            for (const auto &op : wf.ops)
                if (op.isWrite)
                    k0_writes.insert(op.vaddr >> 12);
    for (const auto &wg : k1.workgroups)
        for (const auto &wf : wg.wavefronts)
            for (const auto &op : wf.ops)
                if (!op.isWrite)
                    k1_reads.insert(op.vaddr >> 12);
    std::size_t overlap = 0;
    for (const PageId p : k0_writes)
        overlap += k1_reads.count(p);
    EXPECT_GT(overlap, k0_writes.size() / 2);
}

// --- TraceBuilder ----------------------------------------------------

TEST(TraceBuilder, InterleavesOpsAcrossWavefronts)
{
    wl::TraceBuilder tb(4, 1, 8);
    for (Addr a = 0; a < 16; ++a)
        tb.add(a * 64, false);
    const auto wg = tb.finishWorkgroup(0);
    // 16 ops at 4 per wavefront = 4 wavefronts, dealt round-robin.
    ASSERT_EQ(wg.wavefronts.size(), 4u);
    EXPECT_EQ(wg.wavefronts[0].ops[0].vaddr, 0u * 64);
    EXPECT_EQ(wg.wavefronts[1].ops[0].vaddr, 1u * 64);
    EXPECT_EQ(wg.wavefronts[0].ops[1].vaddr, 4u * 64);
    EXPECT_EQ(wg.totalOps(), 16u);
}

TEST(TraceBuilder, CapsWavefrontCount)
{
    wl::TraceBuilder tb(1, 1, 8);
    for (Addr a = 0; a < 100; ++a)
        tb.add(a * 64, false);
    const auto wg = tb.finishWorkgroup(0);
    EXPECT_EQ(wg.wavefronts.size(), 8u);
    EXPECT_EQ(wg.totalOps(), 100u);
}

TEST(TraceBuilder, FinishResetsState)
{
    wl::TraceBuilder tb(4, 1);
    tb.add(0, false);
    tb.finishWorkgroup(0);
    const auto wg = tb.finishWorkgroup(1);
    EXPECT_TRUE(wg.wavefronts.empty());
}

TEST(TraceBuilder, ComputeDelayApplied)
{
    wl::TraceBuilder tb(4, 7);
    tb.add(0, false);
    tb.setComputeDelay(21);
    tb.add(64, false);
    const auto wg = tb.finishWorkgroup(0);
    // Two ops fit one wavefront; each keeps the delay set at add time.
    ASSERT_EQ(wg.wavefronts.size(), 1u);
    EXPECT_EQ(wg.wavefronts[0].ops[0].computeDelay, 7u);
    EXPECT_EQ(wg.wavefronts[0].ops[1].computeDelay, 21u);
}
