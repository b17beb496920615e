#include "src/sys/compare.hh"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <map>

#include "src/obs/span.hh"
#include "src/obs/timeseries.hh"
#include "src/sys/report.hh"

namespace griffin::sys {

namespace {

/** Relative change in percent; +/-1e9 stands in for "from zero". */
double
deltaPercent(double ref, double cur)
{
    if (ref != 0.0)
        return (cur - ref) / std::fabs(ref) * 100.0;
    if (cur == 0.0)
        return 0.0;
    return cur > 0.0 ? 1e9 : -1e9;
}

/**
 * The "runs" of a report document, keyed by label. A duplicate label
 * is fatal: the comparison would silently match an arbitrary one of
 * the duplicates, so the caller must refuse to produce a verdict.
 */
std::map<std::string, const obs::json::Value *>
runsByLabel(const obs::json::Value &doc, std::vector<std::string> &errors,
            bool &fatal, const char *which)
{
    std::map<std::string, const obs::json::Value *> out;
    const auto runs = reportRuns(doc);
    if (!runs) {
        errors.push_back(std::string(which) +
                         ": no \"runs\" array in report document");
        return out;
    }
    for (std::size_t i = 0; i < runs->size(); ++i) {
        const auto &[label, run] = (*runs)[i];
        if (!run->find("label")) {
            errors.push_back(std::string(which) + ": run " +
                             std::to_string(i) + " has no label");
            continue;
        }
        if (!out.emplace(label, run).second) {
            errors.push_back(std::string(which) + ": duplicate run label \"" +
                             label +
                             "\" — labels must be unique within a report "
                             "(add a config dim to the sweep labels)");
            fatal = true;
        }
    }
    return out;
}

/** Collect every numeric leaf under @p node (samples excluded). */
void
flattenNumbers(const obs::json::Value &node, const std::string &prefix,
               std::vector<std::pair<std::string, double>> &out)
{
    for (const auto &[key, child] : node.members()) {
        if (key == "samples" || key == "label")
            continue;
        // Host-time measurements are nondeterministic by nature; they
        // would swamp the drift table with noise on every run.
        if (prefix == "host_profile" && key == "host")
            continue;
        const std::string path = prefix.empty() ? key : prefix + "." + key;
        switch (child.kind()) {
          case obs::json::Value::Kind::Number:
            out.emplace_back(path, child.asNumber());
            break;
          case obs::json::Value::Kind::Object:
            flattenNumbers(child, path, out);
            break;
          default:
            // Arrays (histogram buckets, pagesPerDevice) are noise at
            // this granularity; the summary stats cover them.
            break;
        }
    }
}

} // namespace

std::optional<Threshold>
parseThreshold(const std::string &spec)
{
    const auto colon = spec.rfind(':');
    if (colon == std::string::npos || colon == 0 ||
        colon + 1 >= spec.size()) {
        return std::nullopt;
    }
    Threshold t;
    t.metric = spec.substr(0, colon);
    std::string bound = spec.substr(colon + 1);
    if (bound.front() == '+') {
        t.direction = +1;
        bound.erase(0, 1);
    } else if (bound.front() == '-') {
        t.direction = -1;
        bound.erase(0, 1);
    }
    if (!bound.empty() && bound.back() == '%')
        bound.pop_back();
    if (bound.empty())
        return std::nullopt;
    char *end = nullptr;
    t.pct = std::strtod(bound.c_str(), &end);
    if (end != bound.c_str() + bound.size() || !(t.pct >= 0.0))
        return std::nullopt;
    return t;
}

std::string
resolveMetricPath(const std::string &metric)
{
    static const std::map<std::string, std::string> aliases = {
        {"cycles", "result.cycles"},
        {"local_fraction", "result.localFraction"},
        {"cpu_shootdowns", "result.cpuShootdowns"},
        {"gpu_shootdowns", "result.gpuShootdowns"},
        {"migrations", "result.pagesMigratedFromCpu"},
        {"fault_mean", "histograms.faultLatency.mean"},
        {"fault_p50", "histograms.faultLatency.p50"},
        {"fault_p95", "histograms.faultLatency.p95"},
        {"fault_p99", "histograms.faultLatency.p99"},
        {"injected", "chaos.injected"},
        {"retries", "chaos.retries"},
        {"fallbacks", "chaos.fallbacks"},
        {"recovery_cycles", "chaos.recovery_cycles"},
        {"audit_violations", "chaos.audit_violations"},
        {"churn", "page_stats.churn_events"},
        {"churn_pages", "page_stats.churn_pages"},
        {"pages_migrated", "page_stats.pages_migrated"},
        {"reuse_mean", "page_stats.reuse_distance.mean"},
        {"reuse_p50", "page_stats.reuse_distance.p50"},
        {"reuse_p95", "page_stats.reuse_distance.p95"},
        {"reuse_p99", "page_stats.reuse_distance.p99"},
        {"host_events_per_sec", "host_profile.host.events_per_sec"},
    };
    if (auto it = aliases.find(metric); it != aliases.end())
        return it->second;

    // Series peaks: "peak_<series>" for every time-series column.
    for (unsigned s = 0; s < obs::TimeSeries::numSeries; ++s) {
        const std::string series =
            obs::seriesName(obs::TimeSeries::Series(s));
        if (metric == "peak_" + series)
            return "timeseries.peak." + series;
    }

    // Stage metrics: "<stage>_<field>" for every span-model stage.
    static const char *fields[] = {"share", "sum",  "mean",
                                   "p50",   "p95",  "p99"};
    for (unsigned s = 0; s < obs::numStages; ++s) {
        const std::string stage = obs::stageName(obs::Stage(s));
        for (const char *field : fields) {
            if (metric == stage + "_" + field) {
                return "fault_breakdown.stages." + stage + "." + field;
            }
        }
    }
    return metric;
}

std::optional<double>
lookupMetric(const obs::json::Value &run, const std::string &path)
{
    // Descend one dotted segment at a time; counter names contain
    // dots, so a whole remaining path may also be one literal key.
    const auto dot = path.find('.');
    if (dot != std::string::npos) {
        if (const obs::json::Value *child = run.find(path.substr(0, dot))) {
            if (auto v = lookupMetric(*child, path.substr(dot + 1)))
                return v;
        }
    }
    if (const obs::json::Value *child = run.find(path)) {
        if (child->kind() == obs::json::Value::Kind::Number)
            return child->asNumber();
    }
    return std::nullopt;
}

CompareResult
compareReports(const obs::json::Value &ref, const obs::json::Value &cur,
               const std::vector<Threshold> &thresholds)
{
    CompareResult result;

    // A report written by a newer (or older) library may carry
    // sections this comparer does not understand; the numbers it does
    // know still compare fine, so version skew warns instead of
    // failing the gate.
    const auto warn_version = [&result](const obs::json::Value &doc,
                                        const char *which) {
        const std::uint64_t version = reportSchemaVersionOf(doc);
        // Every version so far is additive, so any known version pair
        // (v2 references vs v3 reports, say) diffs cleanly; only a
        // version this build has never heard of merits an advisory.
        if (!knownReportSchemaVersion(version)) {
            result.warnings.push_back(
                std::string(which) + ": report schema_version " +
                std::to_string(version) + " > known " +
                std::to_string(reportSchemaVersion) +
                " — unknown sections are ignored");
        }
    };
    warn_version(ref, "reference");
    warn_version(cur, "current");

    const auto ref_runs =
        runsByLabel(ref, result.errors, result.fatal, "reference");
    const auto cur_runs =
        runsByLabel(cur, result.errors, result.fatal, "current");
    if (!result.errors.empty())
        result.pass = false;
    if (result.fatal)
        return result; // ambiguous labels: no verdict is trustworthy

    for (const auto &[label, cur_run] : cur_runs) {
        (void)cur_run;
        if (!ref_runs.count(label)) {
            result.errors.push_back("run \"" + label +
                                    "\" not in the reference (re-pin the "
                                    "gate references?)");
            result.pass = false;
        }
    }

    for (const auto &[label, ref_run] : ref_runs) {
        auto cit = cur_runs.find(label);
        if (cit == cur_runs.end()) {
            result.errors.push_back("run \"" + label +
                                    "\" missing from the current report");
            result.pass = false;
            continue;
        }
        const obs::json::Value &cur_run = *cit->second;

        for (const Threshold &t : thresholds) {
            CheckResult check;
            check.run = label;
            check.metric = t.metric;
            check.path = resolveMetricPath(t.metric);
            const auto rv = lookupMetric(*ref_run, check.path);
            const auto cv = lookupMetric(cur_run, check.path);
            if (!rv || !cv) {
                check.ok = false;
                check.note = std::string("metric missing from the ") +
                             (!rv ? "reference" : "current") + " report";
            } else if (!std::isfinite(*rv) || !std::isfinite(*cv)) {
                // NaN/inf poisons every comparison below (a NaN delta
                // fails all <= checks with no explanation), so name
                // the culprit instead of producing a nan verdict.
                check.ok = false;
                check.note = std::string("non-finite value in the ") +
                             (!std::isfinite(*rv) ? "reference"
                                                  : "current") +
                             " report";
            } else {
                check.ref = *rv;
                check.cur = *cv;
                check.deltaPct = deltaPercent(*rv, *cv);
                switch (t.direction) {
                  case +1:
                    check.ok = check.deltaPct <= t.pct;
                    break;
                  case -1:
                    check.ok = check.deltaPct >= -t.pct;
                    break;
                  default:
                    check.ok = std::fabs(check.deltaPct) <= t.pct;
                    break;
                }
            }
            // Host-time metrics never hard-fail: wall measurements
            // vary with the machine and its load, so a breach is an
            // advisory even if the spec did not say --warn-on.
            const bool warn_only =
                t.warnOnly ||
                check.path.rfind("host_profile.host.", 0) == 0;
            if (!check.ok && warn_only) {
                check.ok = true;
                check.warnedOnly = true;
                result.warnings.push_back(
                    "warn-only check breached: " + label + " " +
                    t.metric + " — " +
                    (check.note.empty()
                         ? "drifted " + std::to_string(check.deltaPct) +
                               "%"
                         : check.note));
            }
            if (!check.ok)
                result.pass = false;
            result.checks.push_back(std::move(check));
        }

        // Informational drift: every numeric leaf that moved.
        std::vector<std::pair<std::string, double>> ref_leaves, cur_leaves;
        flattenNumbers(*ref_run, "", ref_leaves);
        flattenNumbers(cur_run, "", cur_leaves);
        std::map<std::string, double> cur_map(cur_leaves.begin(),
                                              cur_leaves.end());
        for (const auto &[path, rv] : ref_leaves) {
            auto it = cur_map.find(path);
            if (it == cur_map.end())
                continue;
            // Non-finite leaves are excluded: a NaN delta in the sort
            // comparator below would break strict weak ordering (UB),
            // and the thresholds report non-finite values explicitly.
            if (!std::isfinite(rv) || !std::isfinite(it->second))
                continue;
            const double delta = deltaPercent(rv, it->second);
            if (std::fabs(delta) < 1e-9)
                continue;
            result.drifts.push_back(Drift{label, path, rv, it->second,
                                          delta});
        }
    }

    std::stable_sort(result.drifts.begin(), result.drifts.end(),
                     [](const Drift &a, const Drift &b) {
                         return std::fabs(a.deltaPct) >
                                std::fabs(b.deltaPct);
                     });
    constexpr std::size_t maxDrifts = 50;
    if (result.drifts.size() > maxDrifts)
        result.drifts.resize(maxDrifts);

    return result;
}

obs::json::Value
CompareResult::verdictJson() const
{
    obs::json::Value v = obs::json::Value::object();
    v["status"] = fatal ? "fatal" : pass ? "pass" : "fail";

    obs::json::Value jchecks = obs::json::Value::array();
    for (const CheckResult &c : checks) {
        obs::json::Value jc = obs::json::Value::object();
        jc["run"] = c.run;
        jc["metric"] = c.metric;
        jc["path"] = c.path;
        jc["ok"] = c.ok;
        if (c.warnedOnly)
            jc["warned_only"] = true;
        if (c.note.empty()) {
            jc["ref"] = c.ref;
            jc["cur"] = c.cur;
            jc["deltaPct"] = c.deltaPct;
        } else {
            jc["note"] = c.note;
        }
        jchecks.push(std::move(jc));
    }
    v["checks"] = std::move(jchecks);

    obs::json::Value jdrift = obs::json::Value::array();
    for (const Drift &d : drifts) {
        obs::json::Value jd = obs::json::Value::object();
        jd["run"] = d.run;
        jd["path"] = d.path;
        jd["ref"] = d.ref;
        jd["cur"] = d.cur;
        jd["deltaPct"] = d.deltaPct;
        jdrift.push(std::move(jd));
    }
    v["drift"] = std::move(jdrift);

    obs::json::Value jerrors = obs::json::Value::array();
    for (const std::string &e : errors)
        jerrors.push(e);
    v["errors"] = std::move(jerrors);

    obs::json::Value jwarnings = obs::json::Value::array();
    for (const std::string &w : warnings)
        jwarnings.push(w);
    v["warnings"] = std::move(jwarnings);

    return v;
}

} // namespace griffin::sys
