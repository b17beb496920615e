#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "src/obs/span.hh"
#include "src/sys/oracle.hh"
#include "src/sys/system_config.hh"

namespace {

using griffin::sys::OracleFinding;
using griffin::sys::RunResult;
using griffin::sys::SystemConfig;
using griffin::sys::checkRunInvariants;

bool
fired(const std::vector<OracleFinding> &findings, const std::string &oracle)
{
    return std::any_of(findings.begin(), findings.end(),
                       [&oracle](const OracleFinding &f) {
                           return f.oracle == oracle;
                       });
}

/** One completed fault whose stage marks partition its latency. */
griffin::obs::CriticalPath
consistentBreakdown()
{
    griffin::obs::FaultRecord rec;
    rec.id = 1;
    rec.gpu = 1;
    rec.page = 7;
    rec.origin = 100;
    for (unsigned s = 0; s < griffin::obs::numStages; ++s)
        rec.marks.push_back(
            {griffin::obs::Stage(s), 100 + griffin::Tick(s + 1) * 50});
    griffin::obs::CriticalPath cp;
    cp.addFault(rec);
    return cp;
}

/** A result every oracle accepts, paired with its config. */
struct CleanRun
{
    SystemConfig config = SystemConfig::baseline();
    RunResult result;

    CleanRun()
    {
        result.cycles = 123456;
        result.pagesPerDevice = {40, 10, 10};
        result.stats.set("pageTable.totalPages", 60.0);
        result.stats.set("pageTable.migrations", 1.0);
        result.localAccesses = 900;
        result.remoteAccesses = 100;
        result.faultBreakdown = consistentBreakdown();
        result.opsSubmitted = 1000;
        result.gpuOps = {{620, 600, 20}, {400, 400, 0}};
    }
};

TEST(Oracle, CleanResultHasNoFindings)
{
    CleanRun run;
    const auto findings = checkRunInvariants(run.result, run.config);
    EXPECT_TRUE(findings.empty())
        << (findings.empty() ? "" : findings[0].oracle + ": " +
                                        findings[0].detail);
}

// The residency oracle is the one the acceptance criterion injects a
// deliberate bug against: double-mapping a page (or dropping one)
// breaks the per-device sum against the page population.
TEST(Oracle, ResidencyConservationCatchesADoubleMappedPage)
{
    CleanRun run;
    run.result.pagesPerDevice[1] += 1; // one page now mapped twice
    const auto findings = checkRunInvariants(run.result, run.config);
    EXPECT_TRUE(fired(findings, "residency-conservation"));
}

TEST(Oracle, ResidencyConservationCatchesALostPage)
{
    CleanRun run;
    run.result.pagesPerDevice[2] -= 1;
    EXPECT_TRUE(fired(checkRunInvariants(run.result, run.config),
                      "residency-conservation"));
}

TEST(Oracle, AuditViolationsAreReported)
{
    CleanRun run;
    run.result.auditViolations = 3;
    EXPECT_TRUE(fired(checkRunInvariants(run.result, run.config),
                      "invariant-audit"));
}

TEST(Oracle, OpenFaultSpansAreOrphans)
{
    CleanRun run;
    run.result.faultSpansOpen = 2;
    EXPECT_TRUE(fired(checkRunInvariants(run.result, run.config),
                      "span-orphans"));
}

TEST(Oracle, ZeroAccessesIsAnAccountingLoss)
{
    CleanRun run;
    run.result.localAccesses = 0;
    run.result.remoteAccesses = 0;
    EXPECT_TRUE(fired(checkRunInvariants(run.result, run.config),
                      "access-accounting"));
}

TEST(Oracle, OpCompletionCatchesALostOp)
{
    // The op's last issue was discarded and never re-issued: the GPU's
    // issue count still balances, but the run completed one op short.
    CleanRun run;
    run.result.gpuOps[1].completed -= 1;
    run.result.gpuOps[1].discarded += 1;
    const auto findings = checkRunInvariants(run.result, run.config);
    EXPECT_TRUE(fired(findings, "op-completion"));
    EXPECT_EQ(findings.size(), 1u);
}

TEST(Oracle, OpCompletionCatchesADoubleCompletion)
{
    // A stale reply completed an op its flush had discarded: one issue
    // ended twice, and the run completed one op too many.
    CleanRun run;
    run.result.gpuOps[0].completed += 1;
    const auto findings = checkRunInvariants(run.result, run.config);
    EXPECT_EQ(std::count_if(findings.begin(), findings.end(),
                            [](const OracleFinding &f) {
                                return f.oracle == "op-completion";
                            }),
              2);
}

TEST(Oracle, OpCompletionCatchesAnIssueThatNeverEnded)
{
    CleanRun run;
    run.result.gpuOps[1].issued += 1;
    EXPECT_TRUE(fired(checkRunInvariants(run.result, run.config),
                      "op-completion"));
}

TEST(Oracle, TimeseriesRowsMustSumToTotals)
{
    CleanRun run;
    run.config.timeseriesTick = 20000;
    auto &ts = run.result.timeseries;
    ts.tick = 20000;
    griffin::obs::TimeSeries::Row row;
    row.counts = {1, 100, 0, 1};
    ts.rows.push_back(row);
    ts.totals = {1, 100, 0, 1};
    // Align the totals with the independent aggregates so only the
    // corruption below can fire.
    run.result.latency.faultLatency.sample(500.0);
    ASSERT_FALSE(fired(checkRunInvariants(run.result, run.config),
                       "timeseries-reconciliation"));

    ts.rows[0].counts[1] = 99; // drop one DCA access from the rows
    EXPECT_TRUE(fired(checkRunInvariants(run.result, run.config),
                      "timeseries-reconciliation"));
}

TEST(Oracle, TimeseriesTotalsMustMatchRunAggregates)
{
    CleanRun run;
    run.config.timeseriesTick = 20000;
    auto &ts = run.result.timeseries;
    ts.tick = 20000;
    griffin::obs::TimeSeries::Row row;
    row.counts = {2, 100, 0, 1};
    ts.rows.push_back(row);
    ts.totals = {2, 100, 0, 1}; // 2 migrations, but the stat says 1
    run.result.latency.faultLatency.sample(500.0);
    EXPECT_TRUE(fired(checkRunInvariants(run.result, run.config),
                      "timeseries-reconciliation"));
}

TEST(Oracle, TimeseriesOffButSummaryCarriesATick)
{
    CleanRun run;
    run.result.timeseries.tick = 20000;
    EXPECT_TRUE(fired(checkRunInvariants(run.result, run.config),
                      "timeseries-reconciliation"));
}

TEST(Oracle, PageStatsEnableFlagsMustAgree)
{
    CleanRun run;
    run.config.pageStats.enabled = true;
    run.result.pageStats.enabled = false;
    EXPECT_TRUE(fired(checkRunInvariants(run.result, run.config),
                      "pagestats-reconciliation"));

    CleanRun other;
    other.result.pageStats.enabled = true; // recorder was off
    EXPECT_TRUE(fired(checkRunInvariants(other.result, other.config),
                      "pagestats-reconciliation"));
}

TEST(Oracle, PageStatsMigrationsMustMatchThePageTable)
{
    CleanRun run;
    run.config.pageStats.enabled = true;
    run.result.pageStats.enabled = true;
    run.result.pageStats.totalMigrations = 1;
    ASSERT_FALSE(fired(checkRunInvariants(run.result, run.config),
                       "pagestats-reconciliation"));

    run.result.pageStats.totalMigrations = 5;
    EXPECT_TRUE(fired(checkRunInvariants(run.result, run.config),
                      "pagestats-reconciliation"));
}

TEST(Oracle, ChaosOffDemandsZeroCounters)
{
    CleanRun run;
    run.result.chaosInjected = 1;
    EXPECT_TRUE(fired(checkRunInvariants(run.result, run.config),
                      "chaos-accounting"));
}

TEST(Oracle, ChaosOnDemandsPerClassSum)
{
    CleanRun run;
    run.config.chaos.dmaFaultRate = 0.1;
    ASSERT_TRUE(run.config.chaos.enabled());
    run.result.chaosInjected = 5;
    run.result.stats.set("chaos.dmaFaults", 3.0);
    run.result.stats.set("chaos.linkFaults", 2.0);
    ASSERT_FALSE(fired(checkRunInvariants(run.result, run.config),
                       "chaos-accounting"));

    run.result.chaosInjected = 7; // two injections unaccounted for
    EXPECT_TRUE(fired(checkRunInvariants(run.result, run.config),
                      "chaos-accounting"));
}

TEST(Oracle, SpanPartitionHoldsForFoldedFaults)
{
    // Sanity-check the fixture the clean test relies on: the stage
    // sums of a folded fault partition its end-to-end latency.
    const auto cp = consistentBreakdown();
    double stageSum = 0.0;
    for (unsigned s = 0; s < griffin::obs::numStages; ++s)
        stageSum += cp.stageSum(griffin::obs::Stage(s));
    EXPECT_EQ(stageSum, cp.total().sum());
    EXPECT_EQ(cp.total().count(), cp.faults());
}

TEST(Oracle, FindingsAccumulate)
{
    CleanRun run;
    run.result.pagesPerDevice[0] += 1;
    run.result.auditViolations = 1;
    run.result.faultSpansOpen = 1;
    const auto findings = checkRunInvariants(run.result, run.config);
    EXPECT_TRUE(fired(findings, "residency-conservation"));
    EXPECT_TRUE(fired(findings, "invariant-audit"));
    EXPECT_TRUE(fired(findings, "span-orphans"));
    EXPECT_GE(findings.size(), 3u);
}

} // namespace
