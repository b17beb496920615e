#include <gtest/gtest.h>

#include <set>
#include <string>

#include "src/sys/scenario_gen.hh"
#include "src/workloads/workload.hh"

namespace {

using griffin::sys::Scenario;
using griffin::sys::fuzzCorpusSeeds;
using griffin::sys::isScenarioKnob;
using griffin::sys::makeScenario;
using griffin::sys::PolicyKind;
using griffin::sys::scenarioKnobs;

TEST(ScenarioGen, SameSeedSameScenario)
{
    for (std::uint64_t seed : {1ull, 42ull, 0xdeadbeefull}) {
        const Scenario a = makeScenario(seed);
        const Scenario b = makeScenario(seed);
        EXPECT_EQ(a.describe(), b.describe());
        EXPECT_EQ(a.label(), b.label());
    }
}

TEST(ScenarioGen, DifferentSeedsDiffer)
{
    // Not every pair differs (small knob ranges), but across a run of
    // seeds the descriptions cannot all collapse to one.
    std::set<std::string> seen;
    for (std::uint64_t seed = 1; seed <= 32; ++seed)
        seen.insert(makeScenario(seed).describe());
    EXPECT_GT(seen.size(), 16u);
}

TEST(ScenarioGen, EveryScenarioIsValidByConstruction)
{
    for (std::uint64_t seed = 1; seed <= 300; ++seed) {
        const Scenario s = makeScenario(seed);
        // The workload exists.
        EXPECT_NE(griffin::wl::makeWorkload(s.workload,
                                            s.workloadConfig),
                  nullptr)
            << "seed " << seed;
        // Griffin needs at least two GPUs for DPC classification.
        if (s.config.policy == PolicyKind::Griffin) {
            EXPECT_GE(s.config.numGpus, 2u) << "seed " << seed;
        }
        EXPECT_GE(s.config.numGpus, 1u);
        EXPECT_LE(s.config.numGpus, 8u);
        EXPECT_GE(s.config.gpu.pageShift, 12u);
        EXPECT_LE(s.config.gpu.pageShift, 14u);
        EXPECT_GE(s.workloadConfig.scaleDiv, 128u);
        EXPECT_GT(s.config.iommu.numWalkers, 0u);
        EXPECT_GT(s.config.link.bytesPerCycle, 0.0);
    }
}

TEST(ScenarioGen, PinningHoldsTheKnobAtItsDefault)
{
    // Find a seed whose policy knob draws Griffin, pin "policy", and
    // expect the baseline default back.
    for (std::uint64_t seed = 1; seed <= 64; ++seed) {
        const Scenario free = makeScenario(seed);
        if (free.config.policy != PolicyKind::Griffin)
            continue;
        const Scenario pinned = makeScenario(seed, {"policy"});
        EXPECT_EQ(pinned.config.policy, PolicyKind::FirstTouch);
        return;
    }
    FAIL() << "no seed in 1..64 drew the Griffin policy";
}

TEST(ScenarioGen, PinningOneKnobLeavesTheOthersAlone)
{
    for (std::uint64_t seed : {7ull, 19ull, 101ull}) {
        const Scenario free = makeScenario(seed);
        const Scenario pinned = makeScenario(seed, {"flush"});
        // The pinned knob reverts to its default...
        EXPECT_EQ(pinned.config.cpuFlushPenalty, 100u);
        // ...while every independent knob keeps its draw.
        EXPECT_EQ(pinned.workload, free.workload);
        EXPECT_EQ(pinned.workloadConfig.scaleDiv,
                  free.workloadConfig.scaleDiv);
        EXPECT_EQ(pinned.workloadConfig.seed, free.workloadConfig.seed);
        EXPECT_EQ(pinned.config.numGpus, free.config.numGpus);
        EXPECT_EQ(pinned.config.policy, free.config.policy);
        EXPECT_EQ(pinned.config.gpu.pageShift, free.config.gpu.pageShift);
        EXPECT_EQ(pinned.config.iommu.numWalkers,
                  free.config.iommu.numWalkers);
        EXPECT_EQ(pinned.config.timeseriesTick, free.config.timeseriesTick);
    }
}

TEST(ScenarioGen, UnknownPinNamesAreIgnored)
{
    const Scenario a = makeScenario(5);
    const Scenario b = makeScenario(5, {"no-such-knob"});
    EXPECT_TRUE(b.pinned.empty());
    EXPECT_EQ(a.describe(), b.describe());
}

TEST(ScenarioGen, KnobListIsStable)
{
    const auto &knobs = scenarioKnobs();
    EXPECT_GE(knobs.size(), 10u);
    for (const std::string &k : knobs)
        EXPECT_TRUE(isScenarioKnob(k));
    EXPECT_FALSE(isScenarioKnob("bogus"));
    // Names relied on by shrink repro commands in docs and CI.
    EXPECT_TRUE(isScenarioKnob("workload"));
    EXPECT_TRUE(isScenarioKnob("policy"));
    EXPECT_TRUE(isScenarioKnob("chaos"));
    EXPECT_TRUE(isScenarioKnob("telemetry"));
}

TEST(ScenarioGen, ReproCommandNamesSeedAndPins)
{
    const Scenario s = makeScenario(0x2a, {"chaos", "telemetry"});
    EXPECT_EQ(s.reproCommand(),
              "griffin fuzz --seed=0x2a --seeds=1 --pin=chaos,telemetry");
}

TEST(ScenarioGen, CorpusCoversTheKnobSpace)
{
    const auto &seeds = fuzzCorpusSeeds();
    ASSERT_EQ(seeds.size(), 16u);
    bool griffinSeen = false, firstTouchSeen = false;
    bool chaosOn = false, chaosOff = false;
    bool pageStatsOn = false, timeseriesOn = false;
    std::set<unsigned> gpuCounts;
    std::set<std::string> workloads;
    for (const std::uint64_t seed : seeds) {
        const Scenario s = makeScenario(seed);
        (s.config.policy == PolicyKind::Griffin ? griffinSeen
                                                : firstTouchSeen) = true;
        (s.config.chaos.enabled() ? chaosOn : chaosOff) = true;
        pageStatsOn |= s.config.pageStats.enabled;
        timeseriesOn |= s.config.timeseriesTick > 0;
        gpuCounts.insert(s.config.numGpus);
        workloads.insert(s.workload);
    }
    EXPECT_TRUE(griffinSeen);
    EXPECT_TRUE(firstTouchSeen);
    EXPECT_TRUE(chaosOn);
    EXPECT_TRUE(chaosOff);
    EXPECT_TRUE(pageStatsOn);
    EXPECT_TRUE(timeseriesOn);
    EXPECT_GE(gpuCounts.size(), 3u);
    EXPECT_GE(workloads.size(), 5u);
}

} // namespace
