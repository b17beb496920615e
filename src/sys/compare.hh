/**
 * @file
 * Cross-run report comparison: the library behind `griffin compare`
 * and the CI perf-regression gate.
 *
 * A report document is what the benches write with --report=FILE:
 * {"runs": [{label, config, result, counters, histograms,
 * fault_breakdown, ...}, ...]}. Comparison matches runs between a
 * reference and a current document by label, evaluates a set of
 * metric thresholds ("fault_p95 may grow at most 5%") on every
 * matched run, and summarizes every other numeric drift
 * informationally. Missing runs or metrics fail the comparison: a
 * gate that silently skips what it cannot find is not a gate.
 */

#ifndef GRIFFIN_SYS_COMPARE_HH
#define GRIFFIN_SYS_COMPARE_HH

#include <optional>
#include <string>
#include <vector>

#include "src/obs/json.hh"

namespace griffin::sys {

/**
 * One gate: "metric may not drift more than pct percent". Direction
 * +1 fails only on increase (a "+5%" spec: latency growing is bad,
 * shrinking is fine), -1 only on decrease ("-5%": e.g. local-access
 * fraction dropping), 0 on either ("5%": lockstep metrics like page
 * counts).
 */
struct Threshold
{
    std::string metric;
    double pct = 0.0;
    int direction = 0;
    /**
     * A breached warn-only threshold becomes a warning instead of a
     * failure (the CLI's --warn-on). Host-time metrics (any path
     * under host_profile.host) are forced warn-only regardless: wall
     * time is machine-dependent, so it must never hard-fail a gate.
     */
    bool warnOnly = false;
};

/**
 * Parse a "METRIC:[+|-]P%" spec ("fault_p95:+5%", "cycles:3%").
 * @return nullopt on malformed input.
 */
std::optional<Threshold> parseThreshold(const std::string &spec);

/**
 * Resolve a metric name to its dotted path inside one run's report
 * object. Known aliases:
 *
 *   cycles               result.cycles
 *   local_fraction       result.localFraction
 *   cpu_shootdowns       result.cpuShootdowns
 *   gpu_shootdowns       result.gpuShootdowns
 *   migrations           result.pagesMigratedFromCpu
 *   fault_{mean,p50,p95,p99}   histograms.faultLatency.*
 *   <stage>_{share,sum,p95}    fault_breakdown.stages.<stage>.*
 *                              (<stage> per obs::stageName)
 *   churn                page_stats.churn_events
 *   churn_pages          page_stats.churn_pages
 *   pages_migrated       page_stats.pages_migrated
 *   reuse_{mean,p50,p95,p99}   page_stats.reuse_distance.*
 *   peak_{migrations,dca_accesses,shootdowns,faults}
 *                              timeseries.peak.*
 *   host_events_per_sec  host_profile.host.events_per_sec
 *                              (always warn-only: host time)
 *
 * Anything else is taken verbatim as a dotted path (so
 * "counters.iommu.walks" works unaliased... but note counter names
 * themselves contain dots, so counters are resolved with a longest-
 * prefix fallback by the lookup, not here).
 */
std::string resolveMetricPath(const std::string &metric);

/**
 * Numeric lookup by dotted path inside one run object. Descends
 * member by member; if a segment is missing, tries the remaining
 * path joined by dots as one literal key (counter names like
 * "iommu.walks" live under "counters" as single keys).
 */
std::optional<double> lookupMetric(const obs::json::Value &run,
                                   const std::string &path);

/** One threshold evaluated on one matched run. */
struct CheckResult
{
    std::string run;    ///< run label
    std::string metric; ///< as specified
    std::string path;   ///< resolved dotted path
    double ref = 0.0;
    double cur = 0.0;
    double deltaPct = 0.0;
    bool ok = false;
    /** Breach downgraded to a warning (warn-only threshold). */
    bool warnedOnly = false;
    std::string note; ///< non-empty when the metric could not be read
};

/** One informational numeric drift (no threshold attached). */
struct Drift
{
    std::string run;
    std::string path;
    double ref = 0.0;
    double cur = 0.0;
    double deltaPct = 0.0;
};

/** The whole comparison. */
struct CompareResult
{
    bool pass = true;
    /**
     * True when the comparison itself is invalid — e.g. a report
     * contains two runs with the same label, so there is no way to
     * tell which pair was compared. Tools should report this as a
     * usage-class failure (exit 2), distinct from a metric fail.
     */
    bool fatal = false;
    std::vector<CheckResult> checks;
    std::vector<Drift> drifts; ///< largest |delta| first, capped
    std::vector<std::string> errors; ///< missing runs, parse problems
    /**
     * Non-failing advisories — today: a schema_version the comparer
     * does not know (an absent field counts as version 1). A warned
     * comparison still passes; the advisory just travels with the
     * verdict.
     */
    std::vector<std::string> warnings;

    /**
     * Machine-readable verdict:
     * {status, checks: [...], drift: [...], errors: [...],
     *  warnings: [...]}.
     */
    obs::json::Value verdictJson() const;
};

/**
 * Compare two report documents. @p thresholds apply to every run
 * label present in @p ref; a label missing from @p cur (or vice
 * versa), or a threshold metric missing from a matched run, fails.
 */
CompareResult compareReports(const obs::json::Value &ref,
                             const obs::json::Value &cur,
                             const std::vector<Threshold> &thresholds);

} // namespace griffin::sys

#endif // GRIFFIN_SYS_COMPARE_HH
