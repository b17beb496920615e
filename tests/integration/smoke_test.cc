/**
 * @file
 * End-to-end smoke tests: every workload runs to completion under
 * both policies on a small scale, and basic cross-cutting invariants
 * hold (page conservation, all accesses resolve, determinism).
 */

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>

#include "src/obs/telemetry.hh"
#include "src/sys/multi_gpu_system.hh"
#include "src/workloads/workload.hh"

using namespace griffin;

namespace {

wl::WorkloadConfig
tinyWorkloadConfig()
{
    wl::WorkloadConfig cfg;
    cfg.scaleDiv = 64; // ~0.5-1 MB footprints: seconds-fast
    cfg.seed = 42;
    return cfg;
}

sys::RunResult
runOne(const std::string &name, sys::PolicyKind policy,
       unsigned scale_div = 64)
{
    wl::WorkloadConfig wcfg = tinyWorkloadConfig();
    wcfg.scaleDiv = scale_div;
    auto workload = wl::makeWorkload(name, wcfg);
    EXPECT_NE(workload, nullptr) << name;

    sys::SystemConfig scfg = policy == sys::PolicyKind::Griffin
        ? sys::SystemConfig::griffinDefault()
        : sys::SystemConfig::baseline();
    sys::MultiGpuSystem system(scfg);
    return system.run(*workload);
}

class SmokeAllWorkloads
    : public ::testing::TestWithParam<std::string>
{
};

} // namespace

TEST_P(SmokeAllWorkloads, BaselineRunsToCompletion)
{
    const auto result = runOne(GetParam(), sys::PolicyKind::FirstTouch);
    EXPECT_GT(result.cycles, 0u);
    EXPECT_GT(result.localAccesses + result.remoteAccesses, 0u);
    // Every page the system saw is accounted for exactly once.
    std::uint64_t total = 0;
    for (const auto n : result.pagesPerDevice)
        total += n;
    EXPECT_EQ(total, std::uint64_t(result.stats.get(
                  "pageTable.totalPages")));
}

TEST_P(SmokeAllWorkloads, GriffinRunsToCompletion)
{
    const auto result = runOne(GetParam(), sys::PolicyKind::Griffin);
    EXPECT_GT(result.cycles, 0u);
    std::uint64_t total = 0;
    for (const auto n : result.pagesPerDevice)
        total += n;
    EXPECT_EQ(total, std::uint64_t(result.stats.get(
                  "pageTable.totalPages")));
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, SmokeAllWorkloads,
                         ::testing::ValuesIn(wl::workloadNames()),
                         [](const auto &info) { return info.param; });

TEST(SmokeAccessCounters, OnlyGriffinFillsTheSeTables)
{
    // Only Griffin's DPC collects the SE access counters, so only a
    // Griffin run switches them on; a first-touch run leaves every
    // table untouched.
    for (const auto policy :
         {sys::PolicyKind::FirstTouch, sys::PolicyKind::Griffin}) {
        wl::WorkloadConfig wcfg = tinyWorkloadConfig();
        wcfg.scaleDiv = 32;
        auto workload = wl::makeWorkload("SC", wcfg);
        sys::MultiGpuSystem system(policy == sys::PolicyKind::Griffin
                                       ? sys::SystemConfig::griffinDefault()
                                       : sys::SystemConfig::baseline());
        const auto result = system.run(*workload);
        ASSERT_GT(result.localAccesses + result.remoteAccesses, 0u);
        std::uint64_t recorded = 0;
        for (unsigned g = 0; g < system.numGpus(); ++g) {
            gpu::Gpu &gpu = system.gpu(g);
            for (unsigned se = 0; se < gpu.config().numSes; ++se) {
                const auto &counter = gpu.accessCounter(se);
                recorded += counter.recorded;
                if (policy == sys::PolicyKind::FirstTouch) {
                    EXPECT_EQ(counter.size(), 0u);
                }
            }
        }
        if (policy == sys::PolicyKind::FirstTouch) {
            EXPECT_EQ(recorded, 0u);
        } else {
            EXPECT_GT(recorded, 0u);
        }
    }
}

TEST(SmokeDeterminism, SameSeedSameCycles)
{
    const auto a = runOne("SC", sys::PolicyKind::Griffin);
    const auto b = runOne("SC", sys::PolicyKind::Griffin);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.pagesPerDevice, b.pagesPerDevice);
    EXPECT_EQ(a.remoteAccesses, b.remoteAccesses);
}

TEST(SmokeLifecycle, SecondRunThrowsAndKeepsTheFirstResult)
{
    auto workload = wl::makeWorkload("MT", tinyWorkloadConfig());
    sys::MultiGpuSystem system(sys::SystemConfig::griffinDefault());
    const sys::RunResult first = system.run(*workload);
    const auto stats = first.stats.all();
    const std::uint64_t migrations = system.pageTable().migrations();

    try {
        system.run(*workload);
        FAIL() << "a second run() must throw";
    } catch (const std::logic_error &e) {
        EXPECT_STREQ(e.what(),
                     "griffin: a MultiGpuSystem instance runs exactly one "
                     "workload; build a new system for each run");
    }

    // The refused run touched nothing: the first result and the
    // system's state are as the first run left them, and no telemetry
    // slot is left installed on this thread.
    EXPECT_EQ(first.stats.all(), stats);
    EXPECT_EQ(system.engine().now(), first.cycles);
    EXPECT_EQ(system.pageTable().migrations(), migrations);
    EXPECT_EQ(system.faultSpans().openFaults(), 0u);
    EXPECT_EQ(obs::Telemetry::current().latency, nullptr);
    EXPECT_EQ(obs::Telemetry::current().spans, nullptr);
}
