/**
 * @file
 * Invariant oracles: the properties every simulation run must satisfy
 * regardless of configuration, workload, or injected chaos.
 *
 * The oracle catalog (see DESIGN.md §15 for the rationale behind each
 * entry):
 *
 *  - residency-conservation: the final per-device residency counts
 *    sum to the page population — every page is mapped exactly once;
 *  - invariant-audit: the system's own auditor (TLB-vs-page-table
 *    staleness, pin/fallback exclusivity, residency sums) found
 *    nothing, at the periodic chaos audits or the end-of-run sweep;
 *  - span-partition: per-stage critical-path sums equal the
 *    end-to-end fault latency sum exactly, and per-stage counts match
 *    the completed-fault count;
 *  - span-orphans: no fault span was left open at end of run;
 *  - access-accounting: a completed run recorded memory accesses;
 *  - timeseries-reconciliation: interval rows sum to the series
 *    totals and the totals equal the independently-counted run
 *    aggregates (migrations, DCA accesses, shootdowns, faults);
 *  - pagestats-reconciliation: the page-lifecycle digest agrees with
 *    the page table's migration counter;
 *  - chaos-accounting: injected faults equal the per-class sums, and
 *    a chaos-off run reports zero everywhere;
 *  - quiesced: after a run, the event queue is empty, no timeouts are
 *    pending, and every watchdog probe reads zero;
 *  - determinism-jobs / determinism-ref: the scenario's run report is
 *    byte-identical when re-run under a parallel sweep / under the
 *    naive reference scheduler (sim/ref_queue.hh).
 *
 * runFuzzBatch() is the harness `griffin fuzz` and the pinned-corpus
 * ctest share: it runs each scenario serially, applies every result
 * oracle, then re-runs the batch at --jobs=N and on the reference
 * queue for the differential oracles.
 */

#ifndef GRIFFIN_SYS_ORACLE_HH
#define GRIFFIN_SYS_ORACLE_HH

#include <string>
#include <vector>

#include "src/sys/multi_gpu_system.hh"
#include "src/sys/scenario_gen.hh"
#include "src/sys/system_config.hh"

namespace griffin::sys {

/** One violated invariant. */
struct OracleFinding
{
    /** Catalog name ("residency-conservation", ...). */
    std::string oracle;
    /** What was observed vs what the invariant demands. */
    std::string detail;
};

/**
 * Apply every result-level oracle to @p result, which @p config
 * produced. Pure: safe on snapshots long after the system is gone
 * (the corrupted-result tests in tests/sys/oracle_test.cc rely on
 * this). @return one finding per violated invariant; empty = clean.
 */
std::vector<OracleFinding> checkRunInvariants(const RunResult &result,
                                              const SystemConfig &config);

/**
 * Apply the quiesced oracle to a system whose run() just returned:
 * event queue empty, no pending timeouts, all watchdog probes zero.
 */
std::vector<OracleFinding> checkSystemQuiesced(MultiGpuSystem &system);

/** The outcome of fuzzing one scenario. */
struct ScenarioVerdict
{
    Scenario scenario;
    /** The serial run completed (no watchdog error, no exception). */
    bool ran = false;
    std::vector<OracleFinding> findings;
    /** Serial-run result, valid when @c ran. */
    RunResult result;

    bool ok() const { return ran && findings.empty(); }
};

struct FuzzOptions
{
    /**
     * Worker threads for the parallel determinism oracle. The serial
     * pass always runs; jobs <= 1 skips the parallel re-run (the
     * reference-queue differential still applies).
     */
    unsigned jobs = 8;
    /** Run the jobs-N and reference-queue differential oracles. */
    bool differential = true;
};

/**
 * Run @p scenarios under every oracle. Per scenario: one serial run
 * (result oracles + quiesced oracle + report capture), then — for
 * scenarios whose serial run completed — one parallel sweep over the
 * whole batch and one serial reference-queue run, each compared
 * byte-for-byte against the serial run's report. Returns one verdict
 * per scenario, in input order; a scenario that throws is reported in
 * its verdict, never propagated.
 */
std::vector<ScenarioVerdict>
runFuzzBatch(const std::vector<Scenario> &scenarios,
             const FuzzOptions &options = {});

} // namespace griffin::sys

#endif // GRIFFIN_SYS_ORACLE_HH
