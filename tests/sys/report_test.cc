/**
 * @file
 * Unit tests for the report helpers: geomean, table rendering, CSV,
 * ASCII bars, and the JSON run report.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "src/obs/json.hh"
#include "src/obs/sampler.hh"
#include "src/obs/span.hh"
#include "src/sim/engine.hh"
#include "src/sys/multi_gpu_system.hh"
#include "src/sys/csv.hh"
#include "src/sys/report.hh"
#include "src/sys/system_config.hh"

using namespace griffin;
using namespace griffin::sys;

TEST(Geomean, KnownValues)
{
    EXPECT_DOUBLE_EQ(geomean({4.0}), 4.0);
    EXPECT_NEAR(geomean({1.0, 4.0}), 2.0, 1e-12);
    EXPECT_NEAR(geomean({2.0, 2.0, 2.0}), 2.0, 1e-12);
}

TEST(Geomean, EmptyIsZero)
{
    EXPECT_DOUBLE_EQ(geomean({}), 0.0);
}

TEST(Geomean, MatchesPaperStyleSpeedups)
{
    // A slowdown below 1 pulls the geomean down but stays defined.
    EXPECT_LT(geomean({2.9, 0.95, 1.1}), 1.6);
    EXPECT_GT(geomean({2.9, 0.95, 1.1}), 1.3);
}

TEST(Table, RendersAlignedColumns)
{
    Table t({"name", "value"});
    t.addRow({"a", "1"});
    t.addRow({"long-name", "2"});
    const std::string s = t.str();
    EXPECT_NE(s.find("name"), std::string::npos);
    EXPECT_NE(s.find("long-name"), std::string::npos);
    EXPECT_NE(s.find("----"), std::string::npos);
    // Each row ends with a newline.
    EXPECT_EQ(s.back(), '\n');
}

TEST(Table, ShortRowsArePadded)
{
    Table t({"a", "b", "c"});
    t.addRow({"x"});
    EXPECT_NO_THROW(t.str());
    EXPECT_NE(t.csv().find("x,,"), std::string::npos);
}

TEST(TableDeathTest, OversizedRowAsserts)
{
    // A row wider than its header used to be silently truncated; it
    // is a caller bug and must be loud (asserts are on in all builds).
    Table t({"a", "b"});
    EXPECT_DEATH(t.addRow({"1", "2", "3"}), "wider than its header");
}

TEST(Geomean, SkipsNonPositiveValues)
{
    // The geometric mean is only defined over positive values. A
    // degenerate entry (zero-cycle run, NaN from a dead counter) is
    // skipped with a warning instead of killing the whole report.
    EXPECT_DOUBLE_EQ(geomean({2.0, -1.0}), 2.0);
    EXPECT_DOUBLE_EQ(geomean({0.0}), 0.0);
    EXPECT_NEAR(geomean({1.0, 4.0, -7.0, 0.0}), 2.0, 1e-12);
    EXPECT_DOUBLE_EQ(geomean({std::nan(""), 8.0}), 8.0);
}

TEST(Table, CsvFormat)
{
    Table t({"h1", "h2"});
    t.addRow({"v1", "v2"});
    EXPECT_EQ(t.csv(), "h1,h2\nv1,v2\n");
}

TEST(Table, NumFormatsPrecision)
{
    EXPECT_EQ(Table::num(1.2345), "1.23");
    EXPECT_EQ(Table::num(1.2345, 1), "1.2");
    EXPECT_EQ(Table::num(2.0, 0), "2");
}

TEST(AsciiBar, ScalesAndClamps)
{
    EXPECT_EQ(asciiBar(0.0, 1.0, 10), "|----------|");
    EXPECT_EQ(asciiBar(1.0, 1.0, 10), "|##########|");
    EXPECT_EQ(asciiBar(0.5, 1.0, 10), "|#####-----|");
    EXPECT_EQ(asciiBar(5.0, 1.0, 10), "|##########|"); // clamped
    EXPECT_EQ(asciiBar(1.0, 0.0, 4), "|####|");        // max guard
}

namespace {

/** A complete 8-stage fault record ending at origin + 1500. */
obs::FaultRecord
makeFaultRecord(FaultId fid, Tick origin)
{
    obs::FaultRecord rec;
    rec.id = fid;
    rec.gpu = 1;
    rec.page = PageId(fid);
    rec.origin = origin;
    const Tick ends[obs::numStages] = {10, 310, 315, 500,
                                       700, 700, 1400, 1500};
    for (unsigned s = 0; s < obs::numStages; ++s)
        rec.marks.push_back(
            obs::StageMark{obs::Stage(s), origin + ends[s]});
    return rec;
}

/** A hand-filled RunResult with recognizable values. */
RunResult
sampleResult()
{
    RunResult r;
    r.cycles = 123456;
    r.pagesPerDevice = {10, 20, 30, 0, 0};
    r.cpuShootdowns = 7;
    r.gpuShootdowns = 3;
    r.localAccesses = 900;
    r.remoteAccesses = 100;
    r.pagesMigratedFromCpu = 50;
    r.pagesMigratedInterGpu = 5;
    r.stats.set("driver.faults", 50.0);
    r.stats.set("iommu.walks", 64.0);
    for (int i = 0; i < 100; ++i)
        r.latency.faultLatency.sample(1000.0 + 10.0 * double(i));
    return r;
}

} // namespace

TEST(RunReportJson, RoundTripsResultFields)
{
    const RunResult r = sampleResult();
    const auto report =
        runReportJson("test/run", SystemConfig::baseline(), r);

    // The dump must parse back (well-formed JSON, both compact and
    // pretty-printed).
    const auto parsed = obs::json::Value::parse(report.dump(2));
    ASSERT_TRUE(parsed.has_value());

    EXPECT_EQ(parsed->find("label")->asString(), "test/run");

    const auto *res = parsed->find("result");
    ASSERT_NE(res, nullptr);
    EXPECT_DOUBLE_EQ(res->find("cycles")->asNumber(), 123456.0);
    EXPECT_DOUBLE_EQ(res->find("cpuShootdowns")->asNumber(), 7.0);
    EXPECT_DOUBLE_EQ(res->find("localFraction")->asNumber(), 0.9);
    ASSERT_EQ(res->find("pagesPerDevice")->size(), 5u);
    EXPECT_DOUBLE_EQ(res->find("pagesPerDevice")->at(2).asNumber(),
                     30.0);

    const auto *counters = parsed->find("counters");
    ASSERT_NE(counters, nullptr);
    EXPECT_DOUBLE_EQ(counters->find("driver.faults")->asNumber(), 50.0);
    EXPECT_DOUBLE_EQ(counters->find("iommu.walks")->asNumber(), 64.0);
}

TEST(RunReportJson, HistogramPercentilesMatchTheSource)
{
    const RunResult r = sampleResult();
    const auto report =
        runReportJson("x", SystemConfig::griffinDefault(), r);
    const auto parsed = obs::json::Value::parse(report.dump());
    ASSERT_TRUE(parsed.has_value());

    const auto *h =
        parsed->find("histograms")->find("faultLatency");
    ASSERT_NE(h, nullptr);
    const auto &src = r.latency.faultLatency;
    EXPECT_DOUBLE_EQ(h->find("count")->asNumber(), double(src.count()));
    EXPECT_DOUBLE_EQ(h->find("mean")->asNumber(), src.mean());
    EXPECT_DOUBLE_EQ(h->find("p50")->asNumber(), src.percentile(50));
    EXPECT_DOUBLE_EQ(h->find("p95")->asNumber(), src.percentile(95));
    EXPECT_DOUBLE_EQ(h->find("p99")->asNumber(), src.percentile(99));
    // Empty histograms serialize with zero counts and no buckets.
    const auto *empty =
        parsed->find("histograms")->find("remoteAccessLatency");
    EXPECT_DOUBLE_EQ(empty->find("count")->asNumber(), 0.0);
    EXPECT_EQ(empty->find("buckets")->size(), 0u);
}

TEST(RunReportJson, ConfigIdentifiesThePolicy)
{
    const RunResult r = sampleResult();
    const auto base =
        runReportJson("b", SystemConfig::baseline(), r);
    const auto grif =
        runReportJson("g", SystemConfig::griffinDefault(), r);
    EXPECT_EQ(base.find("config")->find("policy")->asString(),
              "first-touch");
    EXPECT_EQ(grif.find("config")->find("policy")->asString(),
              "griffin");
    // Griffin config details only appear for the griffin policy.
    EXPECT_EQ(base.find("config")->find("griffin"), nullptr);
    EXPECT_NE(grif.find("config")->find("griffin"), nullptr);
}

TEST(RunReportJson, ConfigSeedIsTheSeedTheRunUsed)
{
    // A run under workload seed 7, not the default 42: config.seed
    // names the seed that drove the run.
    wl::WorkloadConfig wcfg;
    wcfg.scaleDiv = 256;
    wcfg.seed = 7;
    const auto workload = wl::makeWorkload("MT", wcfg);
    SystemConfig cfg = SystemConfig::baseline();
    cfg.numGpus = 2;
    MultiGpuSystem system(cfg);
    const RunResult r = system.run(*workload);
    const auto report = runReportJson("MT/first-touch", cfg, r);
    EXPECT_EQ(report.find("config")->find("seed")->asNumber(), 7.0);
}

TEST(RunReportJson, SamplerRowsAreEmbedded)
{
    sim::Engine e;
    obs::Sampler s;
    s.add("probe", [] { return 3.5; });
    s.start(e, 100);
    e.schedule(250, [] {});
    e.run();
    s.stop();

    const RunResult r = sampleResult();
    const auto report =
        runReportJson("s", SystemConfig::baseline(), r, &s);
    const auto parsed = obs::json::Value::parse(report.dump());
    ASSERT_TRUE(parsed.has_value());
    const auto *samples = parsed->find("samples");
    ASSERT_NE(samples, nullptr);
    EXPECT_DOUBLE_EQ(samples->find("period")->asNumber(), 100.0);
    ASSERT_EQ(samples->find("columns")->size(), 2u); // tick + probe
    // Boundaries 0, 100, 200 plus the final partial row stop() takes
    // at the end time (250).
    ASSERT_EQ(samples->find("rows")->size(), 4u);
    EXPECT_DOUBLE_EQ(samples->find("rows")->at(3).at(0).asNumber(),
                     250.0);
    EXPECT_DOUBLE_EQ(samples->find("rows")->at(1).at(0).asNumber(),
                     100.0);
    EXPECT_DOUBLE_EQ(samples->find("rows")->at(1).at(1).asNumber(),
                     3.5);
    // Without a sampler there is no "samples" member at all.
    const auto bare =
        runReportJson("s", SystemConfig::baseline(), r);
    EXPECT_EQ(bare.find("samples"), nullptr);
}

TEST(RunReportJson, PageStatsSectionAppearsOnlyWhenEnabled)
{
    RunResult r = sampleResult();
    const auto off =
        runReportJson("off", SystemConfig::baseline(), r);
    EXPECT_EQ(off.find("page_stats"), nullptr);
    EXPECT_EQ(off.find("timeseries"), nullptr);

    r.pageStats.enabled = true;
    r.pageStats.churnWindow = 500;
    r.pageStats.topN = 4;
    r.pageStats.events[unsigned(obs::PageEvent::MigrationCommit)] = 9;
    r.pageStats.pagesTracked = 3;
    r.pageStats.pagesMigrated = 2;
    r.pageStats.totalMigrations = 9;
    r.pageStats.churnEvents = 1;
    r.pageStats.churnPages = 1;
    r.pageStats.maxMigrationsOnePage = 5;
    obs::PageStatsSummary::TopPage tp;
    tp.page = 42;
    tp.migrations = 5;
    tp.churn = 1;
    tp.lastLocation = 2;
    tp.residency = {{0, 0}, {100, 1}, {200, 2}};
    r.pageStats.hotPages.push_back(tp);
    r.pageStats.thrashingPages.push_back(tp);

    const auto report =
        runReportJson("on", SystemConfig::griffinDefault(), r);
    const auto parsed = obs::json::Value::parse(report.dump(2));
    ASSERT_TRUE(parsed.has_value());

    const auto *ps = parsed->find("page_stats");
    ASSERT_NE(ps, nullptr);
    EXPECT_DOUBLE_EQ(ps->find("churn_window")->asNumber(), 500.0);
    EXPECT_DOUBLE_EQ(
        ps->find("events")->find("migration_commit")->asNumber(), 9.0);
    EXPECT_DOUBLE_EQ(ps->find("pages_tracked")->asNumber(), 3.0);
    EXPECT_DOUBLE_EQ(ps->find("churn_events")->asNumber(), 1.0);
    EXPECT_DOUBLE_EQ(ps->find("max_migrations_one_page")->asNumber(),
                     5.0);
    const auto *hot = ps->find("hot_pages");
    ASSERT_NE(hot, nullptr);
    ASSERT_EQ(hot->size(), 1u);
    EXPECT_DOUBLE_EQ(hot->at(0).find("page")->asNumber(), 42.0);
    // Residency serializes as [tick, device] pairs.
    const auto *res = hot->at(0).find("residency");
    ASSERT_NE(res, nullptr);
    ASSERT_EQ(res->size(), 3u);
    EXPECT_DOUBLE_EQ(res->at(1).at(0).asNumber(), 100.0);
    EXPECT_DOUBLE_EQ(res->at(1).at(1).asNumber(), 1.0);
}

TEST(RunReportJson, TimeseriesSectionRoundTrips)
{
    RunResult r = sampleResult();
    r.timeseries.tick = 100;
    using S = obs::TimeSeries::Series;
    obs::TimeSeries::Row row;
    row.begin = 0;
    row.end = 100;
    row.counts[unsigned(S::Migrations)] = 4;
    row.counts[unsigned(S::Faults)] = 2;
    row.faultP50 = 11.0;
    row.faultP95 = 19.0;
    row.linkUtil = 0.25;
    r.timeseries.rows.push_back(row);
    row.begin = 100;
    row.end = 150;
    row.counts[unsigned(S::Migrations)] = 1;
    r.timeseries.rows.push_back(row);
    r.timeseries.totals[unsigned(S::Migrations)] = 5;
    r.timeseries.totals[unsigned(S::Faults)] = 4;

    const auto report =
        runReportJson("ts", SystemConfig::griffinDefault(), r);
    const auto parsed = obs::json::Value::parse(report.dump(2));
    ASSERT_TRUE(parsed.has_value());

    const auto *ts = parsed->find("timeseries");
    ASSERT_NE(ts, nullptr);
    EXPECT_DOUBLE_EQ(ts->find("tick")->asNumber(), 100.0);
    // Rows are flat arrays matching the declared column order.
    ASSERT_EQ(ts->find("columns")->size(), 9u);
    EXPECT_EQ(ts->find("columns")->at(2).asString(), "migrations");
    ASSERT_EQ(ts->find("rows")->size(), 2u);
    EXPECT_DOUBLE_EQ(ts->find("rows")->at(0).at(2).asNumber(), 4.0);
    EXPECT_DOUBLE_EQ(ts->find("rows")->at(0).at(8).asNumber(), 0.25);
    EXPECT_DOUBLE_EQ(
        ts->find("totals")->find("migrations")->asNumber(), 5.0);
    // Peak is the per-interval maximum, computed at serialization.
    EXPECT_DOUBLE_EQ(
        ts->find("peak")->find("migrations")->asNumber(), 4.0);
}

TEST(ReportDocument, StampsTheSchemaVersion)
{
    obs::json::Value runs = obs::json::Value::array();
    runs.push(runReportJson("a", SystemConfig::baseline(),
                            sampleResult()));
    const auto doc = reportDocument(std::move(runs));
    ASSERT_NE(doc.find("schema_version"), nullptr);
    EXPECT_DOUBLE_EQ(doc.find("schema_version")->asNumber(),
                     double(reportSchemaVersion));
    ASSERT_NE(doc.find("runs"), nullptr);
    EXPECT_EQ(doc.find("runs")->size(), 1u);
    // schema_version leads so diffs and humans see it first.
    const std::string text = doc.dump(2);
    EXPECT_LT(text.find("schema_version"), text.find("runs"));
}

TEST(ReportDocument, SchemaVersionReadsNumbersOnly)
{
    using obs::json::Value;
    const auto version = [](const char *text) {
        return reportSchemaVersionOf(*Value::parse(text));
    };
    EXPECT_EQ(version(R"({"runs":[]})"), 1u); // pre-versioning
    EXPECT_EQ(version(R"({"schema_version":2})"), 2u);
    EXPECT_EQ(version(R"({"schema_version":99})"), 99u);
    // Not a positive number, or not a document: the absent-field rule.
    EXPECT_EQ(version(R"({"schema_version":"3"})"), 1u);
    EXPECT_EQ(version(R"({"schema_version":0})"), 1u);
    EXPECT_EQ(version(R"({"schema_version":-2})"), 1u);
    EXPECT_EQ(version(R"([{"label":"a"}])"), 1u);
    EXPECT_FALSE(
        knownReportSchemaVersion(version(R"({"schema_version":1e300})")));
}

TEST(RunReportJson, FaultBreakdownRoundTrips)
{
    RunResult r = sampleResult();
    r.faultBreakdown.addFault(makeFaultRecord(1, 0));
    r.faultBreakdown.addFault(makeFaultRecord(2, 10000));
    r.faultSpansOpen = 1; // one orphan, deliberately

    const auto report =
        runReportJson("fb", SystemConfig::griffinDefault(), r);
    const auto parsed = obs::json::Value::parse(report.dump(2));
    ASSERT_TRUE(parsed.has_value());

    const auto *fb = parsed->find("fault_breakdown");
    ASSERT_NE(fb, nullptr);
    EXPECT_DOUBLE_EQ(fb->find("faults")->asNumber(), 2.0);
    EXPECT_DOUBLE_EQ(fb->find("orphans")->asNumber(), 1.0);
    EXPECT_DOUBLE_EQ(fb->find("total")->find("count")->asNumber(), 2.0);

    const auto *stages = fb->find("stages");
    ASSERT_NE(stages, nullptr);
    double stage_sum = 0.0, share_sum = 0.0;
    for (unsigned s = 0; s < obs::numStages; ++s) {
        const auto *sv = stages->find(obs::stageName(obs::Stage(s)));
        ASSERT_NE(sv, nullptr) << obs::stageName(obs::Stage(s));
        EXPECT_DOUBLE_EQ(sv->find("count")->asNumber(), 2.0);
        stage_sum += sv->find("sum")->asNumber();
        share_sum += sv->find("share")->asNumber();
    }
    // The serialized stage sums partition the serialized total.
    EXPECT_DOUBLE_EQ(stage_sum, 2.0 * 1500.0);
    EXPECT_NEAR(share_sum, 1.0, 1e-12);
    // Spot-check a stage against the source aggregation.
    const auto *walk = stages->find("walk");
    EXPECT_DOUBLE_EQ(walk->find("sum")->asNumber(),
                     r.faultBreakdown.stageSum(obs::Stage::Walk));
    EXPECT_DOUBLE_EQ(walk->find("sum")->asNumber(), 600.0);
}


TEST(CsvEscape, QuotesOnlyWhenNeeded)
{
    // Plain fields pass through byte-identical (the compatibility
    // contract: quoting must not perturb existing CSV output).
    EXPECT_EQ(csvEscape("plain"), "plain");
    EXPECT_EQ(csvEscape(""), "");
    EXPECT_EQ(csvEscape("MT/griffin/gpus=4"), "MT/griffin/gpus=4");
    // RFC 4180: commas, quotes and line breaks force quoting, with
    // embedded quotes doubled.
    EXPECT_EQ(csvEscape("a,b"), "\"a,b\"");
    EXPECT_EQ(csvEscape("say \"hi\""), "\"say \"\"hi\"\"\"");
    EXPECT_EQ(csvEscape("two\nlines"), "\"two\nlines\"");
    EXPECT_EQ(csvEscape("cr\rhere"), "\"cr\rhere\"");
}

TEST(Table, CsvQuotesEmbeddedCommas)
{
    Table t({"run", "value"});
    t.addRow({"SC/griffin/fabric=a,b", "1"});
    EXPECT_EQ(t.csv(), "run,value\n\"SC/griffin/fabric=a,b\",1\n");
}

namespace {

obs::HostProfile
sampleHostProfile()
{
    obs::HostProfile p;
    p.enabled = true;
    p.wallNs = 5'000'000;
    p.dispatchNs = 4'000'000;
    p.events = 2000;
    p.buckets = {{"gpu", "l1_tlb", 800, 1'500'000},
                 {"network", "deliver", 1200, 2'100'000},
                 {"obs", "trace", 500, 300'000},
                 {"sim", "unattributed", 10, 100'000}};
    return p;
}

} // namespace

TEST(HostProfileJson, RoundTripsThroughParse)
{
    const obs::HostProfile p = sampleHostProfile();
    const auto v = hostProfileJson(p);
    const auto parsed = obs::json::Value::parse(v.dump(2));
    ASSERT_TRUE(parsed.has_value());

    const auto back = hostProfileFromJson(*parsed);
    ASSERT_TRUE(back.has_value());
    EXPECT_TRUE(back->enabled);
    EXPECT_EQ(back->events, p.events);
    EXPECT_EQ(back->wallNs, p.wallNs);
    EXPECT_EQ(back->dispatchNs, p.dispatchNs);
    ASSERT_EQ(back->buckets.size(), p.buckets.size());
    for (std::size_t i = 0; i < p.buckets.size(); ++i) {
        EXPECT_EQ(back->buckets[i].name(), p.buckets[i].name());
        EXPECT_EQ(back->buckets[i].count, p.buckets[i].count);
        EXPECT_EQ(back->buckets[i].selfNs, p.buckets[i].selfNs);
    }
    EXPECT_DOUBLE_EQ(back->attributedFraction(),
                     p.attributedFraction());
    EXPECT_EQ(back->obsNs(), p.obsNs());
}

TEST(HostProfileJson, SeparatesDeterministicAndHostSections)
{
    const auto v = hostProfileJson(sampleHostProfile());
    // Deterministic across --jobs=N: the event total and the bucket
    // counts...
    ASSERT_NE(v.find("events"), nullptr);
    ASSERT_NE(v.find("counts"), nullptr);
    EXPECT_DOUBLE_EQ(
        v.find("counts")->find("gpu;l1_tlb")->asNumber(), 800.0);
    // ...while every nanosecond-derived number lives under "host",
    // the subtree compare treats warn-only and excludes from drift.
    const auto *host = v.find("host");
    ASSERT_NE(host, nullptr);
    ASSERT_NE(host->find("wall_ns"), nullptr);
    ASSERT_NE(host->find("events_per_sec"), nullptr);
    ASSERT_NE(host->find("attributed_fraction"), nullptr);
    ASSERT_NE(host->find("self_ns"), nullptr);
    EXPECT_EQ(v.find("wall_ns"), nullptr);
}

TEST(HostProfileJson, FromJsonRejectsMalformedSections)
{
    EXPECT_FALSE(
        hostProfileFromJson(obs::json::Value::array()).has_value());
    auto noCounts = obs::json::Value::object();
    noCounts["events"] = 3.0;
    EXPECT_FALSE(hostProfileFromJson(noCounts).has_value());
}

TEST(RunReportJson, HostProfileSectionAppearsOnlyWhenEnabled)
{
    RunResult off = sampleResult();
    const auto without =
        runReportJson("off", SystemConfig::baseline(), off);
    EXPECT_EQ(without.find("host_profile"), nullptr);

    RunResult on = sampleResult();
    on.hostProfile = sampleHostProfile();
    const auto with = runReportJson("on", SystemConfig::baseline(), on);
    const auto *hp = with.find("host_profile");
    ASSERT_NE(hp, nullptr);
    EXPECT_DOUBLE_EQ(hp->find("events")->asNumber(), 2000.0);
}

TEST(ReportRuns, ReadsDocumentsBareArraysAndBareRuns)
{
    using obs::json::Value;
    const auto doc = Value::parse(
        R"({"schema_version":3,"runs":[{"label":"a"},{"x":1}]})");
    ASSERT_TRUE(doc);
    const auto runs = reportRuns(*doc);
    ASSERT_TRUE(runs);
    ASSERT_EQ(runs->size(), 2u);
    EXPECT_EQ((*runs)[0].first, "a");
    EXPECT_EQ((*runs)[1].first, "run1"); // unlabelled: named by index
    EXPECT_EQ((*runs)[1].second, &doc->find("runs")->at(1));

    const auto bare = Value::parse(R"([{"label":"b"}])");
    ASSERT_TRUE(reportRuns(*bare));
    EXPECT_EQ(reportRuns(*bare)->at(0).first, "b");

    const auto single = Value::parse(R"({"label":"c","cycles":5})");
    const auto one = reportRuns(*single);
    ASSERT_TRUE(one);
    ASSERT_EQ(one->size(), 1u);
    EXPECT_EQ(one->at(0).second, &*single);

    EXPECT_FALSE(reportRuns(*Value::parse(R"({"schema_version":3})")));
    EXPECT_FALSE(reportRuns(*Value::parse(R"({"runs":{"label":"d"}})")));
}

TEST(LoadReport, NamesTheToolAndPathOnFailure)
{
    testing::internal::CaptureStderr();
    EXPECT_FALSE(loadReport("/nonexistent/report.json", "griffin-test"));
    EXPECT_EQ(testing::internal::GetCapturedStderr(),
              "griffin-test: cannot open /nonexistent/report.json\n");
}
