/**
 * @file
 * The pinned fuzz corpus as a regression suite: every corpus seed runs
 * under the full oracle battery (sys/oracle.hh) on every ctest
 * invocation. The 200-seed sweep lives in CI (griffin fuzz --seeds=200)
 * where its wall clock is acceptable; this test keeps the tier-1 suite
 * fast while still exercising the whole fuzz stack.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/sys/oracle.hh"
#include "src/sys/scenario_gen.hh"

namespace {

using griffin::sys::FuzzOptions;
using griffin::sys::Scenario;
using griffin::sys::ScenarioVerdict;
using griffin::sys::fuzzCorpusSeeds;
using griffin::sys::makeScenario;
using griffin::sys::runFuzzBatch;

std::vector<Scenario>
corpusScenarios()
{
    std::vector<Scenario> scenarios;
    for (const std::uint64_t seed : fuzzCorpusSeeds())
        scenarios.push_back(makeScenario(seed));
    return scenarios;
}

std::string
explain(const ScenarioVerdict &v)
{
    std::string out = "seed=" + std::to_string(v.scenario.seed) + " (" +
                      v.scenario.describe() + ")";
    for (const auto &f : v.findings)
        out += "\n  " + f.oracle + ": " + f.detail;
    out += "\n  repro: " + v.scenario.reproCommand();
    return out;
}

void
expectAllClean(const std::vector<ScenarioVerdict> &verdicts)
{
    ASSERT_EQ(verdicts.size(), fuzzCorpusSeeds().size());
    for (const auto &v : verdicts)
        EXPECT_TRUE(v.ok()) << explain(v);
}

// The serial pass plus the reference-scheduler differential, with the
// parallel differential disabled (jobs=1): every oracle that does not
// need a worker pool.
TEST(FuzzCorpus, CleanAtJobs1)
{
    FuzzOptions options;
    options.jobs = 1;
    expectAllClean(runFuzzBatch(corpusScenarios(), options));
}

// The full battery: serial, reference-scheduler, and the 8-worker
// parallel sweep whose reports must match the serial pass byte for
// byte.
TEST(FuzzCorpus, CleanAtJobs8)
{
    FuzzOptions options;
    options.jobs = 8;
    expectAllClean(runFuzzBatch(corpusScenarios(), options));
}

// Verdicts come back in input order with the scenario attached — the
// property the fuzz CLI's failure reporting relies on.
TEST(FuzzCorpus, VerdictsPreserveInputOrder)
{
    std::vector<Scenario> scenarios = {makeScenario(3), makeScenario(1)};
    FuzzOptions options;
    options.jobs = 1;
    options.differential = false;
    const auto verdicts = runFuzzBatch(scenarios, options);
    ASSERT_EQ(verdicts.size(), 2u);
    EXPECT_EQ(verdicts[0].scenario.seed, 3u);
    EXPECT_EQ(verdicts[1].scenario.seed, 1u);
    for (const auto &v : verdicts)
        EXPECT_TRUE(v.ok()) << explain(v);
}

// An unknown workload cannot run; the harness must report it as a
// verdict rather than throw out of the batch.
TEST(FuzzCorpus, UnrunnableScenarioYieldsAVerdict)
{
    Scenario bad = makeScenario(1);
    bad.workload = "no-such-workload";
    FuzzOptions options;
    options.jobs = 1;
    const auto verdicts = runFuzzBatch({bad}, options);
    ASSERT_EQ(verdicts.size(), 1u);
    EXPECT_FALSE(verdicts[0].ran);
    EXPECT_FALSE(verdicts[0].ok());
    ASSERT_FALSE(verdicts[0].findings.empty());
    EXPECT_EQ(verdicts[0].findings[0].oracle, "run-completed");
}

} // namespace
