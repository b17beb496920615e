/**
 * @file
 * Unit tests for sys/compare: threshold-spec parsing, metric aliasing
 * and dotted-path lookup (including the literal-key fallback for
 * counter names), and the pass/fail semantics of compareReports — the
 * library behind griffin compare and the CI perf-regression gate.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>

#include "src/obs/json.hh"
#include "src/sys/compare.hh"
#include "src/sys/report.hh"

using namespace griffin;
using obs::json::Value;
using sys::compareReports;
using sys::parseThreshold;
using sys::Threshold;

namespace {

/** A minimal run report document with one labelled run. */
Value
makeReport(double fault_p95, double cycles, double walks = 100.0,
           const std::string &label = "MT/griffin")
{
    Value run = Value::object();
    run["label"] = label;
    Value result = Value::object();
    result["cycles"] = cycles;
    result["localFraction"] = 0.75;
    run["result"] = std::move(result);
    Value counters = Value::object();
    counters["iommu.walks"] = walks;
    run["counters"] = std::move(counters);
    Value fl = Value::object();
    fl["mean"] = fault_p95 * 0.6;
    fl["p50"] = fault_p95 * 0.5;
    fl["p95"] = fault_p95;
    fl["p99"] = fault_p95 * 1.2;
    Value hists = Value::object();
    hists["faultLatency"] = std::move(fl);
    run["histograms"] = std::move(hists);

    Value doc = Value::object();
    Value runs = Value::array();
    runs.push(std::move(run));
    doc["runs"] = std::move(runs);
    return doc;
}

} // namespace

TEST(ParseThreshold, AcceptsDirectionsAndPercents)
{
    auto t = parseThreshold("fault_p95:+5%");
    ASSERT_TRUE(t.has_value());
    EXPECT_EQ(t->metric, "fault_p95");
    EXPECT_DOUBLE_EQ(t->pct, 5.0);
    EXPECT_EQ(t->direction, +1);

    t = parseThreshold("local_fraction:-2.5%");
    ASSERT_TRUE(t.has_value());
    EXPECT_DOUBLE_EQ(t->pct, 2.5);
    EXPECT_EQ(t->direction, -1);

    t = parseThreshold("migrations:0%");
    ASSERT_TRUE(t.has_value());
    EXPECT_EQ(t->direction, 0);
    EXPECT_DOUBLE_EQ(t->pct, 0.0);

    // The trailing % is optional.
    t = parseThreshold("cycles:+3");
    ASSERT_TRUE(t.has_value());
    EXPECT_DOUBLE_EQ(t->pct, 3.0);
}

TEST(ParseThreshold, RejectsMalformedSpecs)
{
    EXPECT_FALSE(parseThreshold("").has_value());
    EXPECT_FALSE(parseThreshold("fault_p95").has_value());
    EXPECT_FALSE(parseThreshold(":5%").has_value());
    EXPECT_FALSE(parseThreshold("fault_p95:").has_value());
    EXPECT_FALSE(parseThreshold("fault_p95:abc%").has_value());
    EXPECT_FALSE(parseThreshold("fault_p95:-%").has_value());
}

TEST(ResolveMetricPath, AliasesAndPassThrough)
{
    EXPECT_EQ(sys::resolveMetricPath("cycles"), "result.cycles");
    EXPECT_EQ(sys::resolveMetricPath("fault_p95"),
              "histograms.faultLatency.p95");
    EXPECT_EQ(sys::resolveMetricPath("transfer_share"),
              "fault_breakdown.stages.transfer.share");
    EXPECT_EQ(sys::resolveMetricPath("batch_wait_p95"),
              "fault_breakdown.stages.batch_wait.p95");
    // Unknown names pass through verbatim.
    EXPECT_EQ(sys::resolveMetricPath("counters.iommu.walks"),
              "counters.iommu.walks");
}

TEST(ResolveMetricPath, PageAnalyticsAliases)
{
    EXPECT_EQ(sys::resolveMetricPath("churn"),
              "page_stats.churn_events");
    EXPECT_EQ(sys::resolveMetricPath("churn_pages"),
              "page_stats.churn_pages");
    EXPECT_EQ(sys::resolveMetricPath("pages_migrated"),
              "page_stats.pages_migrated");
    EXPECT_EQ(sys::resolveMetricPath("reuse_p95"),
              "page_stats.reuse_distance.p95");
    EXPECT_EQ(sys::resolveMetricPath("peak_migrations"),
              "timeseries.peak.migrations");
    EXPECT_EQ(sys::resolveMetricPath("peak_shootdowns"),
              "timeseries.peak.shootdowns");
}

TEST(LookupMetric, DescendsAndFallsBackToLiteralKeys)
{
    const Value doc = makeReport(1000.0, 5000.0, 42.0);
    const Value &run = doc.find("runs")->at(0);

    auto v = sys::lookupMetric(run, "result.cycles");
    ASSERT_TRUE(v.has_value());
    EXPECT_DOUBLE_EQ(*v, 5000.0);

    // "iommu.walks" is ONE key under "counters": the dotted descent
    // fails at "iommu" and the remaining path must match literally.
    v = sys::lookupMetric(run, "counters.iommu.walks");
    ASSERT_TRUE(v.has_value());
    EXPECT_DOUBLE_EQ(*v, 42.0);

    EXPECT_FALSE(sys::lookupMetric(run, "result.nope").has_value());
    EXPECT_FALSE(sys::lookupMetric(run, "nope.cycles").has_value());
}

TEST(CompareReports, IdenticalReportsPass)
{
    const Value ref = makeReport(1000.0, 5000.0);
    const Value cur = makeReport(1000.0, 5000.0);
    const auto res = compareReports(
        ref, cur, {*parseThreshold("fault_p95:+5%"),
                   *parseThreshold("cycles:+3%")});
    EXPECT_TRUE(res.pass);
    ASSERT_EQ(res.checks.size(), 2u);
    for (const auto &c : res.checks) {
        EXPECT_TRUE(c.ok);
        EXPECT_DOUBLE_EQ(c.deltaPct, 0.0);
    }
    EXPECT_TRUE(res.errors.empty());
    EXPECT_TRUE(res.drifts.empty());
}

TEST(CompareReports, InjectedFaultP95RegressionFails)
{
    const Value ref = makeReport(1000.0, 5000.0);
    const Value cur = makeReport(1080.0, 5000.0); // +8% > +5% gate
    const auto res =
        compareReports(ref, cur, {*parseThreshold("fault_p95:+5%")});
    EXPECT_FALSE(res.pass);
    ASSERT_EQ(res.checks.size(), 1u);
    EXPECT_FALSE(res.checks[0].ok);
    EXPECT_NEAR(res.checks[0].deltaPct, 8.0, 1e-9);
}

TEST(CompareReports, ImprovementPassesDirectionalGate)
{
    const Value ref = makeReport(1000.0, 5000.0);
    const Value cur = makeReport(800.0, 5000.0); // 20% faster
    const auto res =
        compareReports(ref, cur, {*parseThreshold("fault_p95:+5%")});
    EXPECT_TRUE(res.pass) << "a '+' gate must not fail on improvement";

    // ...but a bidirectional gate treats it as drift out of bounds.
    const auto both =
        compareReports(ref, cur, {*parseThreshold("fault_p95:5%")});
    EXPECT_FALSE(both.pass);
}

TEST(CompareReports, MissingRunInCurrentFails)
{
    const Value ref = makeReport(1000.0, 5000.0);
    const Value cur = makeReport(1000.0, 5000.0, 100.0, "BFS/griffin");
    const auto res = compareReports(ref, cur, {});
    EXPECT_FALSE(res.pass);
    EXPECT_FALSE(res.errors.empty());
}

TEST(CompareReports, DuplicateLabelsAreFatal)
{
    // Two runs sharing a label make every per-label lookup ambiguous;
    // the comparison must refuse a verdict rather than silently
    // matching one of the pair (griffin compare exits 2 on fatal).
    Value extra = Value::object();
    extra["label"] = "MT/griffin";
    Value result = Value::object();
    result["cycles"] = 9999.0;
    extra["result"] = std::move(result);

    const Value base = makeReport(1000.0, 5000.0);
    Value dupRuns = Value::array();
    dupRuns.push(base.find("runs")->at(0));
    dupRuns.push(std::move(extra));
    Value dupDoc = Value::object();
    dupDoc["runs"] = std::move(dupRuns);

    const auto res =
        compareReports(base, dupDoc, {*parseThreshold("cycles:+5%")});
    EXPECT_TRUE(res.fatal);
    EXPECT_FALSE(res.pass);
    EXPECT_TRUE(res.checks.empty())
        << "no checks may be reported off an ambiguous label match";
    bool mentioned = false;
    for (const auto &e : res.errors)
        mentioned = mentioned ||
                    e.find("duplicate run label") != std::string::npos;
    EXPECT_TRUE(mentioned);
    EXPECT_EQ(res.verdictJson().find("status")->asString(), "fatal");
}

TEST(CompareReports, UniqueLabelsAreNotFatal)
{
    const Value ref = makeReport(1000.0, 5000.0);
    const auto res =
        compareReports(ref, ref, {*parseThreshold("cycles:+5%")});
    EXPECT_FALSE(res.fatal);
    EXPECT_TRUE(res.pass);
}

TEST(CompareReports, MissingMetricFails)
{
    const Value ref = makeReport(1000.0, 5000.0);
    const Value cur = makeReport(1000.0, 5000.0);
    const auto res =
        compareReports(ref, cur, {*parseThreshold("transfer_share:+5%")});
    EXPECT_FALSE(res.pass) << "a gate that skips a missing metric is "
                              "not a gate";
    ASSERT_EQ(res.checks.size(), 1u);
    EXPECT_FALSE(res.checks[0].note.empty());
}

TEST(CompareReports, UnthresholdedDriftIsInformational)
{
    const Value ref = makeReport(1000.0, 5000.0, 100.0);
    const Value cur = makeReport(1000.0, 5000.0, 150.0); // walks +50%
    const auto res =
        compareReports(ref, cur, {*parseThreshold("fault_p95:+5%")});
    EXPECT_TRUE(res.pass) << "drift without a threshold must not fail";
    bool saw_walks = false;
    for (const auto &d : res.drifts)
        if (d.path.find("iommu.walks") != std::string::npos) {
            saw_walks = true;
            EXPECT_NEAR(d.deltaPct, 50.0, 1e-9);
        }
    EXPECT_TRUE(saw_walks);
}

TEST(CompareReports, UnknownSchemaVersionWarnsButDoesNotFail)
{
    // A report written by a newer library than this build may carry
    // sections the comparer cannot interpret; the numbers it does
    // know still gate, so the skew is surfaced as a warning, never as
    // a failure.
    const Value ref = makeReport(1000.0, 5000.0); // no schema_version
    Value cur = makeReport(1000.0, 5000.0);
    cur["schema_version"] = double(sys::reportSchemaVersion + 96);

    const auto res =
        compareReports(ref, cur, {*parseThreshold("cycles:+5%")});
    EXPECT_TRUE(res.pass);
    EXPECT_FALSE(res.fatal);
    ASSERT_FALSE(res.warnings.empty());
    EXPECT_NE(res.warnings[0].find("schema_version"), std::string::npos);

    // The verdict JSON carries the warnings for CI consumers.
    const Value verdict = res.verdictJson();
    ASSERT_NE(verdict.find("warnings"), nullptr);
    EXPECT_EQ(verdict.find("warnings")->size(), res.warnings.size());
}

TEST(CompareReports, KnownSchemaVersionsProduceNoWarning)
{
    // Every shipped version is additive, so any known pair — v1 (no
    // field) references against a v3 report, say — diffs cleanly and
    // silently. Only versions above the known set warn.
    static_assert(sys::knownReportSchemaVersion(1));
    static_assert(sys::knownReportSchemaVersion(sys::reportSchemaVersion));
    static_assert(!sys::knownReportSchemaVersion(0));
    static_assert(
        !sys::knownReportSchemaVersion(sys::reportSchemaVersion + 1));
    for (std::uint64_t v = 1; v <= sys::reportSchemaVersion; ++v) {
        const Value ref = makeReport(1000.0, 5000.0); // v1 reference
        Value cur = makeReport(1000.0, 5000.0);
        cur["schema_version"] = double(v);
        const auto res =
            compareReports(ref, cur, {*parseThreshold("cycles:+5%")});
        EXPECT_TRUE(res.pass);
        EXPECT_TRUE(res.warnings.empty()) << "version " << v;
    }
}

TEST(CompareReports, DocumentWithoutRunsSectionFails)
{
    // A document that is not a report at all (no "runs" array, no
    // bare-run "label") must fail with a parse error, not compare
    // zero runs and report a clean pass.
    Value bogus = Value::object();
    bogus["results"] = Value::array(); // wrong section name
    const auto res =
        compareReports(bogus, makeReport(1000.0, 5000.0),
                       {*parseThreshold("cycles:+5%")});
    EXPECT_FALSE(res.pass);
    ASSERT_FALSE(res.errors.empty());
    EXPECT_NE(res.errors[0].find("runs"), std::string::npos);
}

TEST(CompareReports, RunWithoutLabelIsReported)
{
    Value run = Value::object();
    Value result = Value::object();
    result["cycles"] = 5000.0;
    run["result"] = std::move(result); // no "label"
    Value runs = Value::array();
    runs.push(std::move(run));
    Value doc = Value::object();
    doc["runs"] = std::move(runs);

    const auto res = compareReports(doc, makeReport(1000.0, 5000.0), {});
    EXPECT_FALSE(res.pass);
    bool mentioned = false;
    for (const auto &e : res.errors)
        mentioned = mentioned || e.find("no label") != std::string::npos;
    EXPECT_TRUE(mentioned);
}

TEST(CompareReports, NanMetricFailsWithAnExplicitNote)
{
    // A NaN comparison result is false for every <=, so without
    // special handling the check would fail with deltaPct=nan and no
    // explanation; the verdict must name the non-finite input instead.
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const Value ref = makeReport(1000.0, 5000.0);
    const Value cur = makeReport(1000.0, nan);
    const auto res =
        compareReports(ref, cur, {*parseThreshold("cycles:+5%")});
    EXPECT_FALSE(res.pass);
    ASSERT_EQ(res.checks.size(), 1u);
    EXPECT_FALSE(res.checks[0].ok);
    EXPECT_NE(res.checks[0].note.find("non-finite"), std::string::npos);
    EXPECT_NE(res.checks[0].note.find("current"), std::string::npos);
}

TEST(CompareReports, NanInTheReferenceIsAlsoNamed)
{
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const Value ref = makeReport(1000.0, nan);
    const Value cur = makeReport(1000.0, 5000.0);
    const auto res =
        compareReports(ref, cur, {*parseThreshold("cycles:+5%")});
    EXPECT_FALSE(res.pass);
    ASSERT_EQ(res.checks.size(), 1u);
    EXPECT_NE(res.checks[0].note.find("reference"), std::string::npos);
}

TEST(CompareReports, NonFiniteLeavesStayOutOfDrift)
{
    // The drift table sorts by |deltaPct|; a NaN delta would break the
    // comparator's strict weak ordering (undefined behavior), so
    // non-finite leaves are excluded from drift entirely — the
    // threshold path above is where they get reported.
    const double inf = std::numeric_limits<double>::infinity();
    const Value ref = makeReport(1000.0, 5000.0, 100.0);
    const Value cur = makeReport(
        1100.0, std::numeric_limits<double>::quiet_NaN(), inf);
    const auto res = compareReports(ref, cur, {});
    EXPECT_TRUE(res.pass); // no thresholds, labels match
    for (const auto &d : res.drifts) {
        EXPECT_EQ(d.path.find("result.cycles"), std::string::npos)
            << "NaN leaf leaked into drift";
        EXPECT_EQ(d.path.find("iommu.walks"), std::string::npos)
            << "inf leaf leaked into drift";
        EXPECT_TRUE(std::isfinite(d.deltaPct)) << d.path;
    }
    // The finite fault-latency drift still shows up.
    bool sawFaultDrift = false;
    for (const auto &d : res.drifts)
        sawFaultDrift =
            sawFaultDrift || d.path.find("faultLatency") != std::string::npos;
    EXPECT_TRUE(sawFaultDrift);
}

TEST(CompareReports, VerdictJsonShape)
{
    const Value ref = makeReport(1000.0, 5000.0);
    const Value cur = makeReport(1080.0, 5000.0);
    const auto res =
        compareReports(ref, cur, {*parseThreshold("fault_p95:+5%")});
    const Value verdict = res.verdictJson();

    // Round-trip through text like CI consumers would.
    const auto parsed = Value::parse(verdict.dump(2));
    ASSERT_TRUE(parsed.has_value());
    ASSERT_NE(parsed->find("status"), nullptr);
    EXPECT_EQ(parsed->find("status")->asString(), "fail");
    ASSERT_NE(parsed->find("checks"), nullptr);
    ASSERT_GE(parsed->find("checks")->size(), 1u);
    const Value &check = parsed->find("checks")->at(0);
    EXPECT_EQ(check.find("metric")->asString(), "fault_p95");
    EXPECT_EQ(check.find("run")->asString(), "MT/griffin");
    EXPECT_FALSE(check.find("ok")->asBool());
    EXPECT_NEAR(check.find("deltaPct")->asNumber(), 8.0, 1e-9);
}

namespace {

/**
 * @p doc with a host_profile section grafted onto its first run
 * (Value::at is const-only, so the document is rebuilt around a
 * copied run).
 */
Value
withHostProfile(const Value &doc, double events_per_sec, double wall_ns,
                double events = 168000.0)
{
    Value run = doc.find("runs")->at(0);
    Value hp = Value::object();
    hp["events"] = events;
    Value counts = Value::object();
    counts["gpu;l1_tlb"] = 11264.0;
    counts["network;deliver"] = 23010.0;
    hp["counts"] = std::move(counts);
    Value host = Value::object();
    host["wall_ns"] = wall_ns;
    host["dispatch_ns"] = wall_ns * 0.7;
    host["events_per_sec"] = events_per_sec;
    Value self = Value::object();
    self["gpu;l1_tlb"] = wall_ns * 0.2;
    self["network;deliver"] = wall_ns * 0.5;
    host["self_ns"] = std::move(self);
    hp["host"] = std::move(host);
    run["host_profile"] = std::move(hp);

    Value out = Value::object();
    Value runs = Value::array();
    runs.push(std::move(run));
    out["runs"] = std::move(runs);
    return out;
}

} // namespace

TEST(ResolveMetricPath, HostProfileAlias)
{
    EXPECT_EQ(sys::resolveMetricPath("host_events_per_sec"),
              "host_profile.host.events_per_sec");
}

TEST(CompareReports, HostTimesAreExcludedFromDrift)
{
    // Host wall time doubles between machines — pure noise.
    const Value ref =
        withHostProfile(makeReport(1000.0, 5000.0), 2.0e6, 9.0e7);
    const Value cur =
        withHostProfile(makeReport(1000.0, 5000.0), 1.0e6, 1.8e8);
    const auto res =
        compareReports(ref, cur, {*parseThreshold("cycles:+5%")});
    EXPECT_TRUE(res.pass);
    for (const auto &d : res.drifts) {
        EXPECT_EQ(d.path.find("host_profile.host"), std::string::npos)
            << "host-time noise leaked into drift: " << d.path;
    }
}

TEST(CompareReports, DeterministicHostProfileCountsStillDrift)
{
    const Value ref =
        withHostProfile(makeReport(1000.0, 5000.0), 2.0e6, 9.0e7);
    // A changed dispatch count is a real behaviour change...
    const Value cur = withHostProfile(makeReport(1000.0, 5000.0),
                                      2.0e6, 9.0e7, 200000.0);
    const auto res =
        compareReports(ref, cur, {*parseThreshold("cycles:+5%")});
    EXPECT_TRUE(res.pass);
    bool saw = false;
    for (const auto &d : res.drifts)
        saw = saw || d.path == "host_profile.events";
    EXPECT_TRUE(saw) << "deterministic profile counts must keep "
                        "participating in drift";
}

TEST(CompareReports, HostEventsPerSecIsForcedWarnOnly)
{
    const Value ref =
        withHostProfile(makeReport(1000.0, 5000.0), 2.0e6, 9.0e7);
    // 4x slower: breaches the -50% bound.
    const Value cur =
        withHostProfile(makeReport(1000.0, 5000.0), 0.5e6, 3.6e8);
    const auto res = compareReports(
        ref, cur, {*parseThreshold("host_events_per_sec:-50%")});
    // The breach downgrades to a warning: host time never hard-fails.
    EXPECT_TRUE(res.pass);
    ASSERT_EQ(res.checks.size(), 1u);
    EXPECT_TRUE(res.checks[0].ok);
    EXPECT_TRUE(res.checks[0].warnedOnly);
    ASSERT_FALSE(res.warnings.empty());
    EXPECT_NE(res.warnings.back().find("warn-only"), std::string::npos);

    const Value verdict = res.verdictJson();
    EXPECT_EQ(verdict.find("status")->asString(), "pass");
    const Value &check = verdict.find("checks")->at(0);
    ASSERT_NE(check.find("warned_only"), nullptr);
    EXPECT_TRUE(check.find("warned_only")->asBool());
}

TEST(CompareReports, ExplicitWarnOnlyThresholdDowngradesAnyMetric)
{
    const Value ref = makeReport(1000.0, 5000.0);
    const Value cur = makeReport(1200.0, 5000.0); // p95 +20%
    Threshold t = *parseThreshold("fault_p95:+5%");

    // As a hard threshold the regression fails...
    EXPECT_FALSE(compareReports(ref, cur, {t}).pass);

    // ...as a warn-only one (--warn-on) it warns and passes.
    t.warnOnly = true;
    const auto res = compareReports(ref, cur, {t});
    EXPECT_TRUE(res.pass);
    ASSERT_EQ(res.checks.size(), 1u);
    EXPECT_TRUE(res.checks[0].warnedOnly);
    ASSERT_FALSE(res.warnings.empty());
}

TEST(CompareReports, WarnOnlyStillFailsWhenMetricIsMissing)
{
    // warn-only downgrades *breaches*; being unable to read the
    // metric at all still warns rather than silently passing clean.
    const Value ref = makeReport(1000.0, 5000.0);
    const Value cur = makeReport(1000.0, 5000.0);
    const auto res = compareReports(
        ref, cur, {*parseThreshold("host_events_per_sec:-50%")});
    EXPECT_TRUE(res.pass) << "forced warn-only: missing host profile "
                             "must not hard-fail";
    ASSERT_EQ(res.checks.size(), 1u);
    EXPECT_TRUE(res.checks[0].warnedOnly);
    EXPECT_FALSE(res.checks[0].note.empty());
    ASSERT_FALSE(res.warnings.empty());
    EXPECT_NE(res.warnings.back().find(res.checks[0].note),
              std::string::npos);
}
