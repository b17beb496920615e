/**
 * @file
 * Report helpers shared by the benches: fixed-width tables, CSV
 * emission, geometric means, simple ASCII bar rows — and the JSON run
 * report, the machine-readable record of one workload run (config,
 * counters, latency histograms with percentiles, optional samples),
 * plus the loader the report-reading tools share.
 */

#ifndef GRIFFIN_SYS_REPORT_HH
#define GRIFFIN_SYS_REPORT_HH

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/obs/hostprof.hh"
#include "src/obs/json.hh"

namespace griffin::sim {
class Histogram;
} // namespace griffin::sim

namespace griffin::obs {
class Sampler;
} // namespace griffin::obs

namespace griffin::sys {

struct RunResult;
struct SystemConfig;

/**
 * Geometric mean of @p values (empty -> 0). Values must all be > 0: a
 * non-positive value makes the mean undefined, so it asserts (and in
 * assert-free builds warns and returns 0 instead of a garbage mean).
 */
double geomean(const std::vector<double> &values);

/**
 * A fixed-width text table: set the header, add rows, print.
 */
class Table
{
  public:
    explicit Table(std::vector<std::string> header);

    /**
     * Append one row, padded to the header width. A row *wider* than
     * the header is a caller bug (the extra cells would silently
     * vanish from the output): it asserts, and in assert-free builds
     * warns before truncating.
     */
    void addRow(std::vector<std::string> row);

    /** Convenience: format a double with @p precision decimals. */
    static std::string num(double value, int precision = 2);

    /** Render with aligned columns. */
    std::string str() const;

    /** Render as CSV (comma-separated, header first). */
    std::string csv() const;

    /** Print str() to @p os. */
    void print(std::ostream &os) const;

  private:
    std::vector<std::string> _header;
    std::vector<std::vector<std::string>> _rows;
};

/**
 * One horizontal ASCII bar scaled to @p width characters, e.g. for
 * occupancy or speedup figures: "MT  |######----| 1.62".
 */
std::string asciiBar(double value, double max_value, int width = 40);

/** @name JSON run report @{ */

/**
 * The report document schema version, bumped whenever the shape of a
 * run report changes incompatibly. Version history:
 *  - (absent) = 1: the original {runs: [...]} document.
 *  - 2: adds the document-level schema_version field and the optional
 *    per-run page_stats / timeseries sections.
 *  - 3: adds the optional per-run host_profile section (deterministic
 *    "counts" plus the nondeterministic, warn-only "host" subtree).
 * Consumers (sys::compare, griffin compare / pages / prof) warn — not
 * fail — on a version they do not know.
 */
inline constexpr std::uint64_t reportSchemaVersion = 3;

/**
 * Whether @p version is a schema this build knows how to read. All
 * versions so far are additive, so v2 and v3 reports diff cleanly
 * against each other; consumers warn only outside this set.
 */
inline constexpr bool
knownReportSchemaVersion(std::uint64_t version)
{
    return version >= 1 && version <= reportSchemaVersion;
}

/**
 * One histogram as JSON: {count, mean, min, max, p50, p95, p99,
 * bucketWidth, buckets}. Buckets are emitted sparsely as
 * [[index, count], ...] so idle histograms stay tiny.
 */
obs::json::Value histogramJson(const sim::Histogram &hist);

/** The run-relevant SystemConfig fields as a JSON object. */
obs::json::Value configJson(const SystemConfig &config);

/**
 * The per-run "host_profile" section for @p hp. Deterministic members
 * first (events dispatched, per-bucket counts — byte-identical across
 * --jobs=N), then the "host" subtree holding every nanosecond-derived
 * measurement, which is nondeterministic by nature and treated as
 * warn-only by sys::compare.
 */
obs::json::Value hostProfileJson(const obs::HostProfile &hp);

/**
 * Rebuild a HostProfile from a "host_profile" section produced by
 * hostProfileJson (griffin prof, sweep post-processing, tests).
 * @return nullopt if @p v does not have the expected shape.
 */
std::optional<obs::HostProfile>
hostProfileFromJson(const obs::json::Value &v);

/**
 * The full report of one run:
 * {label, config, result, counters, histograms[, samples]}.
 * @p sampler may be nullptr (no "samples" member then).
 */
obs::json::Value runReportJson(const std::string &label,
                               const SystemConfig &config,
                               const RunResult &result,
                               const obs::Sampler *sampler = nullptr);

/**
 * The top-level report document wrapping @p runs:
 * {schema_version, runs}. Every report writer should go through this
 * so the version stamp cannot be forgotten.
 */
obs::json::Value reportDocument(obs::json::Value runs);

/**
 * Read and parse the report at @p path. On failure, prints
 * "TOOL: cannot open PATH" or "TOOL: PATH: parse error" to stderr
 * (TOOL = @p tool) and returns nullopt.
 */
std::optional<obs::json::Value> loadReport(const std::string &path,
                                           const char *tool);

/** One run of a report document: its label and its JSON object. */
using ReportRun = std::pair<std::string, const obs::json::Value *>;

/**
 * The runs of a report document in document order: the "runs" array
 * of a reportDocument() (or a bare array of runs), or a bare
 * single-run object. An unlabelled run is named "run<index>".
 * @return nullopt when @p doc holds no runs array and is not a
 *         labelled run.
 */
std::optional<std::vector<ReportRun>>
reportRuns(const obs::json::Value &doc);

/** @} */

} // namespace griffin::sys

#endif // GRIFFIN_SYS_REPORT_HH
