#include "src/sys/oracle.hh"

#include <algorithm>
#include <cstddef>
#include <exception>
#include <sstream>
#include <string>
#include <utility>

#include "src/obs/span.hh"
#include "src/sys/report.hh"
#include "src/sys/sweep_runner.hh"
#include "src/workloads/workload.hh"

namespace griffin::sys {

namespace {

/** Locate the first differing byte of two report dumps. */
std::string
firstDifference(const std::string &a, const std::string &b)
{
    std::size_t i = 0;
    const std::size_t n = std::min(a.size(), b.size());
    while (i < n && a[i] == b[i])
        ++i;
    const auto excerpt = [i](const std::string &s) {
        const std::size_t from = i >= 40 ? i - 40 : 0;
        return s.substr(from, std::min<std::size_t>(80, s.size() - from));
    };
    std::ostringstream os;
    os << "first divergence at byte " << i << ": \"" << excerpt(a)
       << "\" vs \"" << excerpt(b) << "\"";
    return os.str();
}

} // namespace

std::vector<OracleFinding>
checkRunInvariants(const RunResult &result, const SystemConfig &config)
{
    std::vector<OracleFinding> findings;
    const auto add = [&findings](const char *oracle, std::string detail) {
        findings.push_back({oracle, std::move(detail)});
    };
    const auto expectEq = [&add](const char *oracle, const char *what,
                                 double got, double want) {
        if (got != want) {
            std::ostringstream os;
            os << what << ": got " << got << ", want " << want;
            add(oracle, os.str());
        }
    };

    // Residency conservation: the per-device residency counts must
    // sum to the page population — a page mapped on two devices (or
    // none) breaks the sum.
    std::uint64_t resident = 0;
    for (std::uint64_t n : result.pagesPerDevice)
        resident += n;
    expectEq("residency-conservation",
             "sum(pagesPerDevice) vs pageTable.totalPages",
             double(resident), result.stats.get("pageTable.totalPages"));

    // The system's own auditor covers the pointwise invariants
    // (pin/fallback exclusivity, TLB staleness): it must be silent.
    if (result.auditViolations != 0)
        add("invariant-audit",
            std::to_string(result.auditViolations) +
                " violations logged by the invariant auditor");

    // Fault-span partition: stage durations partition each fault's
    // end-to-end latency, so the per-stage sums must reproduce the
    // total sum exactly (integer-valued doubles — no tolerance).
    double stageSum = 0.0;
    for (unsigned s = 0; s < obs::numStages; ++s)
        stageSum += result.faultBreakdown.stageSum(obs::Stage(s));
    expectEq("span-partition", "sum(stage sums) vs total latency sum",
             stageSum, result.faultBreakdown.total().sum());
    expectEq("span-partition", "total histogram count vs faults folded",
             double(result.faultBreakdown.total().count()),
             double(result.faultBreakdown.faults()));

    if (result.faultSpansOpen != 0)
        add("span-orphans", std::to_string(result.faultSpansOpen) +
                                " fault spans never completed");

    // Every workload issues memory transactions; a run that recorded
    // none lost its accounting somewhere.
    if (result.localAccesses + result.remoteAccesses == 0)
        add("access-accounting", "run recorded zero memory accesses");

    // Exactly-once completion: every submitted op completes once, and
    // every issue ends in exactly one completion or one discard (a
    // flushed op is re-issued, so its issue count grows with it).
    std::uint64_t completed = 0;
    for (std::size_t g = 0; g < result.gpuOps.size(); ++g) {
        const RunResult::GpuOps &ops = result.gpuOps[g];
        completed += ops.completed;
        std::ostringstream what;
        what << "gpu" << g + 1 << " issued vs completed + discarded";
        expectEq("op-completion", what.str().c_str(), double(ops.issued),
                 double(ops.completed + ops.discarded));
    }
    expectEq("op-completion", "sum(completed) vs ops submitted",
             double(completed), double(result.opsSubmitted));

    // Time-series reconciliation: interval rows must sum to the
    // series totals, and the totals must agree with the run aggregates
    // (each row is a difference of those counters between two of the
    // recorder's samples).
    if (config.timeseriesTick > 0) {
        const auto &ts = result.timeseries;
        using Series = obs::TimeSeries::Series;
        expectEq("timeseries-reconciliation", "summary tick vs config",
                 double(ts.tick), double(config.timeseriesTick));
        std::array<std::uint64_t, obs::TimeSeries::numSeries> rowSums{};
        for (const auto &row : ts.rows)
            for (unsigned s = 0; s < obs::TimeSeries::numSeries; ++s)
                rowSums[s] += row.counts[s];
        for (unsigned s = 0; s < obs::TimeSeries::numSeries; ++s) {
            expectEq("timeseries-reconciliation",
                     (std::string("row sum vs total for ") +
                      obs::seriesName(Series(s)))
                         .c_str(),
                     double(rowSums[s]), double(ts.totals[s]));
        }
        expectEq("timeseries-reconciliation",
                 "migrations total vs pageTable.migrations",
                 double(ts.totals[unsigned(Series::Migrations)]),
                 result.stats.get("pageTable.migrations"));
        expectEq("timeseries-reconciliation",
                 "dca total vs remoteAccesses",
                 double(ts.totals[unsigned(Series::DcaAccesses)]),
                 double(result.remoteAccesses));
        expectEq("timeseries-reconciliation",
                 "shootdown total vs cpu+gpu shootdowns",
                 double(ts.totals[unsigned(Series::Shootdowns)]),
                 double(result.cpuShootdowns + result.gpuShootdowns));
        expectEq("timeseries-reconciliation",
                 "fault total vs faultLatency count",
                 double(ts.totals[unsigned(Series::Faults)]),
                 double(result.latency.faultLatency.count()));
    } else if (result.timeseries.tick != 0) {
        add("timeseries-reconciliation",
            "recorder was off but the summary carries a tick");
    }

    // Page-lifecycle reconciliation: the digest's commit count is
    // instrumented at the same site as the page table's counter.
    if (config.pageStats.enabled) {
        if (!result.pageStats.enabled) {
            add("pagestats-reconciliation",
                "recorder was on but the summary says off");
        } else {
            expectEq("pagestats-reconciliation",
                     "totalMigrations vs pageTable.migrations",
                     double(result.pageStats.totalMigrations),
                     result.stats.get("pageTable.migrations"));
        }
    } else if (result.pageStats.enabled) {
        add("pagestats-reconciliation",
            "recorder was off but the summary says on");
    }

    // Chaos accounting: with injection off every counter is zero;
    // with it on, the total equals the per-class sum by definition.
    if (!config.chaos.enabled()) {
        if (result.chaosInjected || result.chaosRetries ||
            result.chaosFallbacks || result.chaosRecoveryCycles) {
            std::ostringstream os;
            os << "chaos off but counters nonzero: injected="
               << result.chaosInjected << " retries="
               << result.chaosRetries << " fallbacks="
               << result.chaosFallbacks << " recoveryCycles="
               << result.chaosRecoveryCycles;
            add("chaos-accounting", os.str());
        }
    } else {
        const double perClass = result.stats.get("chaos.linkFaults") +
                                result.stats.get("chaos.linkDegrades") +
                                result.stats.get("chaos.dmaFaults") +
                                result.stats.get("chaos.acksLost") +
                                result.stats.get("chaos.walkerStalls");
        expectEq("chaos-accounting", "injected vs per-class sum",
                 double(result.chaosInjected), perClass);
    }

    return findings;
}

std::vector<OracleFinding>
checkSystemQuiesced(MultiGpuSystem &system)
{
    std::vector<OracleFinding> findings;
    auto &queue = system.engine().queue();
    if (!queue.empty())
        findings.push_back(
            {"quiesced", "event queue holds " +
                             std::to_string(queue.size()) +
                             " events after the run"});
    if (queue.pendingTimeouts() != 0)
        findings.push_back(
            {"quiesced", std::to_string(queue.pendingTimeouts()) +
                             " timeouts still armed after the run"});
    if (system.watchdog().hasOutstandingWork())
        findings.push_back(
            {"quiesced", "watchdog probes nonzero after the run:\n" +
                             system.watchdog().snapshot()});
    return findings;
}

namespace {

/** One serial execution of a scenario, with its report snapshot. */
struct SerialRun
{
    bool ran = false;
    std::string error;
    RunResult result;
    std::string reportDump;
    std::vector<OracleFinding> quiesced;
};

SerialRun
runScenarioOnce(const Scenario &scenario, bool referenceQueue)
{
    SerialRun out;
    auto workload =
        wl::makeWorkload(scenario.workload, scenario.workloadConfig);
    if (!workload) {
        out.error = "unknown workload " + scenario.workload;
        return out;
    }
    SystemConfig cfg = scenario.config;
    cfg.useReferenceQueue = referenceQueue;
    try {
        MultiGpuSystem system(cfg);
        out.result = system.run(*workload);
        out.quiesced = checkSystemQuiesced(system);
        out.ran = true;
    } catch (const std::exception &e) {
        out.error = e.what();
        return out;
    }
    // The report is rendered from the scenario's own config: the
    // reference-queue flag is excluded from configJson() precisely so
    // the two modes stay byte-comparable.
    out.reportDump =
        runReportJson(scenario.label(), scenario.config, out.result)
            .dump(2);
    return out;
}

} // namespace

std::vector<ScenarioVerdict>
runFuzzBatch(const std::vector<Scenario> &scenarios,
             const FuzzOptions &options)
{
    std::vector<ScenarioVerdict> verdicts(scenarios.size());
    std::vector<SerialRun> serial(scenarios.size());

    for (std::size_t i = 0; i < scenarios.size(); ++i) {
        ScenarioVerdict &v = verdicts[i];
        v.scenario = scenarios[i];
        serial[i] = runScenarioOnce(scenarios[i], false);
        if (!serial[i].ran) {
            v.findings.push_back({"run-completed", serial[i].error});
            continue;
        }
        v.ran = true;
        v.result = serial[i].result;
        auto found =
            checkRunInvariants(serial[i].result, scenarios[i].config);
        v.findings.insert(v.findings.end(), found.begin(), found.end());
        v.findings.insert(v.findings.end(), serial[i].quiesced.begin(),
                          serial[i].quiesced.end());
    }

    if (!options.differential)
        return verdicts;

    // A differential re-run must complete and reproduce the serial
    // run's report bytes.
    const auto compare = [&](std::size_t i, const SerialRun &twin,
                             const char *oracle, const std::string &run,
                             const std::string &between) {
        if (!twin.ran) {
            verdicts[i].findings.push_back(
                {oracle, run + " run failed: " + twin.error});
        } else if (twin.reportDump != serial[i].reportDump) {
            verdicts[i].findings.push_back(
                {oracle, "report bytes diverge between " + between + "; " +
                             firstDifference(serial[i].reportDump,
                                             twin.reportDump)});
        }
    };

    // Reference-scheduler differential: the same scenario on the
    // naive heap must produce the same report bytes.
    for (std::size_t i = 0; i < scenarios.size(); ++i) {
        if (serial[i].ran)
            compare(i, runScenarioOnce(scenarios[i], true),
                    "determinism-ref", "reference-queue",
                    "the tiered and reference schedulers");
    }

    // Parallel differential: the batch re-runs under a worker pool;
    // every run's report must match its serial twin.
    if (options.jobs > 1) {
        std::vector<SerialRun> parallel(scenarios.size());
        SweepRunner runner(options.jobs);
        for (std::size_t i = 0; i < scenarios.size(); ++i) {
            if (serial[i].ran)
                runner.submit([&, i] {
                    parallel[i] = runScenarioOnce(scenarios[i], false);
                });
        }
        runner.run();
        for (std::size_t i = 0; i < scenarios.size(); ++i) {
            if (serial[i].ran)
                compare(i, parallel[i], "determinism-jobs", "parallel",
                        "--jobs=1 and --jobs=" +
                            std::to_string(options.jobs));
        }
    }

    return verdicts;
}

} // namespace griffin::sys
