#include "src/sys/report.hh"

#include <algorithm>
#include <array>
#include <cassert>
#include <cmath>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <ostream>
#include <sstream>

#include "src/obs/sampler.hh"
#include "src/obs/span.hh"
#include "src/sim/log.hh"
#include "src/sim/stats.hh"
#include "src/sys/csv.hh"
#include "src/sys/multi_gpu_system.hh"
#include "src/sys/system_config.hh"

namespace griffin::sys {

double
geomean(const std::vector<double> &values)
{
    // The geometric mean is only defined over positive values. A
    // degenerate input (a zero-cycle run, a NaN from a dead counter)
    // should not take the whole report down: skip such values with a
    // warning and average what remains. Note !(v > 0.0) is also true
    // for NaN, so this is NaN-safe.
    double log_sum = 0.0;
    std::size_t used = 0;
    for (const double v : values) {
        if (!(v > 0.0)) {
            GLOG(Warn, "geomean: skipping non-positive value " << v);
            continue;
        }
        log_sum += std::log(v);
        ++used;
    }
    if (used == 0)
        return 0.0;
    return std::exp(log_sum / double(used));
}

Table::Table(std::vector<std::string> header) : _header(std::move(header))
{
    assert(!_header.empty());
}

void
Table::addRow(std::vector<std::string> row)
{
    if (row.size() > _header.size()) {
        GLOG(Warn, "table: row of " << row.size() << " cells under a "
                       << _header.size()
                       << "-column header; extra cells dropped");
        assert(false && "table row wider than its header");
    }
    row.resize(_header.size());
    _rows.push_back(std::move(row));
}

std::string
Table::num(double value, int precision)
{
    std::ostringstream os;
    os << std::fixed << std::setprecision(precision) << value;
    return os.str();
}

std::string
Table::str() const
{
    std::vector<std::size_t> widths(_header.size());
    for (std::size_t c = 0; c < _header.size(); ++c)
        widths[c] = _header[c].size();
    for (const auto &row : _rows) {
        for (std::size_t c = 0; c < row.size(); ++c)
            widths[c] = std::max(widths[c], row[c].size());
    }

    std::ostringstream os;
    auto emit = [&](const std::vector<std::string> &cells) {
        for (std::size_t c = 0; c < cells.size(); ++c) {
            os << std::left << std::setw(int(widths[c]) + 2) << cells[c];
        }
        os << "\n";
    };
    emit(_header);
    std::string rule;
    for (std::size_t c = 0; c < _header.size(); ++c)
        rule += std::string(widths[c], '-') + "  ";
    os << rule << "\n";
    for (const auto &row : _rows)
        emit(row);
    return os.str();
}

std::string
Table::csv() const
{
    std::ostringstream os;
    auto emit = [&](const std::vector<std::string> &cells) {
        for (std::size_t c = 0; c < cells.size(); ++c) {
            if (c)
                os << ",";
            os << csvEscape(cells[c]);
        }
        os << "\n";
    };
    emit(_header);
    for (const auto &row : _rows)
        emit(row);
    return os.str();
}

void
Table::print(std::ostream &os) const
{
    os << str();
}

obs::json::Value
histogramJson(const sim::Histogram &hist)
{
    obs::json::Value v = obs::json::Value::object();
    v["count"] = hist.count();
    v["mean"] = hist.mean();
    v["min"] = hist.min();
    v["max"] = hist.max();
    v["p50"] = hist.percentile(50.0);
    v["p95"] = hist.percentile(95.0);
    v["p99"] = hist.percentile(99.0);
    v["bucketWidth"] = hist.bucketWidth();
    obs::json::Value buckets = obs::json::Value::array();
    const auto &b = hist.buckets();
    for (std::size_t i = 0; i < b.size(); ++i) {
        if (b[i] == 0)
            continue;
        obs::json::Value entry = obs::json::Value::array();
        entry.push(std::uint64_t(i));
        entry.push(b[i]);
        buckets.push(std::move(entry));
    }
    v["buckets"] = std::move(buckets);
    return v;
}

obs::json::Value
configJson(const SystemConfig &config, std::uint64_t seed)
{
    obs::json::Value v = obs::json::Value::object();
    v["policy"] = policyName(config.policy);
    v["numGpus"] = config.numGpus;
    v["pageShift"] = config.gpu.pageShift;
    v["cusPerGpu"] = config.gpu.numCus();
    v["linkBytesPerCycle"] = config.link.bytesPerCycle;
    v["linkLatency"] = std::uint64_t(config.link.latency);
    v["cpuFlushPenalty"] = std::uint64_t(config.cpuFlushPenalty);
    v["seed"] = seed;
    if (config.policy == PolicyKind::Griffin) {
        obs::json::Value g = obs::json::Value::object();
        g["enableDftm"] = config.griffin.enableDftm;
        g["enableInterGpuMigration"] =
            config.griffin.enableInterGpuMigration;
        g["useAcud"] = config.griffin.useAcud;
        g["nPtw"] = config.griffin.nPtw;
        g["alpha"] = config.griffin.alpha;
        g["tAc"] = std::uint64_t(config.griffin.tAc);
        v["griffin"] = std::move(g);
    }
    if (config.chaos.enabled()) {
        obs::json::Value c = obs::json::Value::object();
        c["linkFaultRate"] = config.chaos.linkFaultRate;
        c["linkDegradeRate"] = config.chaos.linkDegradeRate;
        c["dmaFaultRate"] = config.chaos.dmaFaultRate;
        c["shootdownAckLossRate"] = config.chaos.shootdownAckLossRate;
        c["walkerStallRate"] = config.chaos.walkerStallRate;
        c["migrationTimeout"] =
            std::uint64_t(config.chaos.migrationTimeout);
        c["seed"] = config.chaos.seed;
        v["chaos"] = std::move(c);
    }
    return v;
}

namespace {

obs::json::Value
topPageJson(const obs::PageStatsSummary::TopPage &tp)
{
    obs::json::Value v = obs::json::Value::object();
    v["page"] = std::uint64_t(tp.page);
    v["migrations"] = tp.migrations;
    v["churn"] = tp.churn;
    v["denials"] = tp.denials;
    v["last_location"] = std::uint64_t(tp.lastLocation);
    obs::json::Value res = obs::json::Value::array();
    for (const auto &hop : tp.residency) {
        obs::json::Value entry = obs::json::Value::array();
        entry.push(std::uint64_t(hop.at));
        entry.push(std::uint64_t(hop.device));
        res.push(std::move(entry));
    }
    v["residency"] = std::move(res);
    return v;
}

obs::json::Value
pageStatsJson(const obs::PageStatsSummary &ps)
{
    obs::json::Value v = obs::json::Value::object();
    v["churn_window"] = std::uint64_t(ps.churnWindow);
    v["top_n"] = std::uint64_t(ps.topN);
    obs::json::Value events = obs::json::Value::object();
    for (unsigned e = 0; e < obs::numPageEvents; ++e)
        events[obs::pageEventName(obs::PageEvent(e))] = ps.events[e];
    v["events"] = std::move(events);
    v["pages_tracked"] = ps.pagesTracked;
    v["pages_migrated"] = ps.pagesMigrated;
    v["total_migrations"] = ps.totalMigrations;
    v["churn_events"] = ps.churnEvents;
    v["churn_pages"] = ps.churnPages;
    v["max_migrations_one_page"] = ps.maxMigrationsOnePage;
    v["reuse_distance"] = histogramJson(ps.reuseDistance);
    obs::json::Value hot = obs::json::Value::array();
    for (const auto &tp : ps.hotPages)
        hot.push(topPageJson(tp));
    v["hot_pages"] = std::move(hot);
    obs::json::Value thrash = obs::json::Value::array();
    for (const auto &tp : ps.thrashingPages)
        thrash.push(topPageJson(tp));
    v["thrashing_pages"] = std::move(thrash);
    return v;
}

obs::json::Value
timeseriesJson(const obs::TimeSeries::Summary &ts)
{
    obs::json::Value v = obs::json::Value::object();
    v["tick"] = std::uint64_t(ts.tick);
    obs::json::Value cols = obs::json::Value::array();
    cols.push("t_begin");
    cols.push("t_end");
    for (unsigned s = 0; s < obs::TimeSeries::numSeries; ++s)
        cols.push(obs::seriesName(obs::TimeSeries::Series(s)));
    for (const char *c : {"fault_p50", "fault_p95", "link_util"})
        cols.push(c);
    v["columns"] = std::move(cols);
    obs::json::Value rows = obs::json::Value::array();
    std::array<std::uint64_t, obs::TimeSeries::numSeries> peak{};
    for (const auto &row : ts.rows) {
        obs::json::Value jr = obs::json::Value::array();
        jr.push(std::uint64_t(row.begin));
        jr.push(std::uint64_t(row.end));
        for (unsigned s = 0; s < obs::TimeSeries::numSeries; ++s) {
            jr.push(row.counts[s]);
            peak[s] = std::max(peak[s], row.counts[s]);
        }
        jr.push(row.faultP50);
        jr.push(row.faultP95);
        jr.push(row.linkUtil);
        rows.push(std::move(jr));
    }
    v["rows"] = std::move(rows);
    obs::json::Value totals = obs::json::Value::object();
    obs::json::Value pk = obs::json::Value::object();
    for (unsigned s = 0; s < obs::TimeSeries::numSeries; ++s) {
        const char *name = obs::seriesName(obs::TimeSeries::Series(s));
        totals[name] = ts.totals[s];
        pk[name] = peak[s];
    }
    v["totals"] = std::move(totals);
    v["peak"] = std::move(pk);
    return v;
}

} // namespace

obs::json::Value
hostProfileJson(const obs::HostProfile &hp)
{
    obs::json::Value v = obs::json::Value::object();
    // Deterministic members first: the dispatched-event total and the
    // per-bucket scope counts are pure functions of the simulated
    // event sequence, so they diff cleanly across --jobs=N.
    v["events"] = hp.events;
    obs::json::Value counts = obs::json::Value::object();
    for (const auto &b : hp.buckets)
        counts[b.name()] = b.count;
    v["counts"] = std::move(counts);

    // Everything nanosecond-derived is a host measurement: machine-
    // and load-dependent, never byte-stable. sys::compare treats the
    // whole "host" subtree as warn-only and excludes it from drift.
    obs::json::Value host = obs::json::Value::object();
    host["wall_ns"] = hp.wallNs;
    host["dispatch_ns"] = hp.dispatchNs;
    host["events_per_sec"] = hp.eventsPerSec();
    host["attributed_ns"] = hp.attributedNs();
    host["attributed_fraction"] = hp.attributedFraction();
    host["unattributed_ns"] = hp.unattributedNs();
    host["obs_ns"] = hp.obsNs();
    host["obs_fraction"] = hp.obsFraction();
    obs::json::Value self = obs::json::Value::object();
    for (const auto &b : hp.buckets)
        self[b.name()] = b.selfNs;
    host["self_ns"] = std::move(self);
    v["host"] = std::move(host);
    return v;
}

std::optional<obs::HostProfile>
hostProfileFromJson(const obs::json::Value &v)
{
    const obs::json::Value *counts = v.find("counts");
    const obs::json::Value *host = v.find("host");
    if (!counts || !host ||
        counts->kind() != obs::json::Value::Kind::Object ||
        host->kind() != obs::json::Value::Kind::Object)
        return std::nullopt;
    const obs::json::Value *self = host->find("self_ns");
    if (!self || self->kind() != obs::json::Value::Kind::Object)
        return std::nullopt;

    obs::HostProfile hp;
    hp.enabled = true;
    if (const auto *ev = v.find("events"))
        hp.events = std::uint64_t(ev->asNumber());
    hp.wallNs = std::uint64_t(
        host->find("wall_ns") ? host->find("wall_ns")->asNumber() : 0.0);
    hp.dispatchNs = std::uint64_t(
        host->find("dispatch_ns") ? host->find("dispatch_ns")->asNumber()
                                  : 0.0);

    for (const auto &[name, count] : counts->members()) {
        const auto semi = name.find(';');
        if (semi == std::string::npos)
            return std::nullopt;
        obs::HostProfile::Bucket b;
        b.component = name.substr(0, semi);
        b.event = name.substr(semi + 1);
        b.count = std::uint64_t(count.asNumber());
        if (const auto *ns = self->find(name))
            b.selfNs = std::uint64_t(ns->asNumber());
        hp.buckets.push_back(std::move(b));
    }
    std::sort(hp.buckets.begin(), hp.buckets.end(),
              [](const obs::HostProfile::Bucket &a,
                 const obs::HostProfile::Bucket &b) {
                  return a.component != b.component
                             ? a.component < b.component
                             : a.event < b.event;
              });
    return hp;
}

obs::json::Value
runReportJson(const std::string &label, const SystemConfig &config,
              const RunResult &result, const obs::Sampler *sampler)
{
    obs::json::Value v = obs::json::Value::object();
    v["label"] = label;
    v["config"] = configJson(config, result.seed);

    obs::json::Value r = obs::json::Value::object();
    r["cycles"] = std::uint64_t(result.cycles);
    obs::json::Value pages = obs::json::Value::array();
    for (const std::uint64_t n : result.pagesPerDevice)
        pages.push(n);
    r["pagesPerDevice"] = std::move(pages);
    r["cpuShootdowns"] = result.cpuShootdowns;
    r["gpuShootdowns"] = result.gpuShootdowns;
    r["localAccesses"] = result.localAccesses;
    r["remoteAccesses"] = result.remoteAccesses;
    r["localFraction"] = result.localFraction();
    r["pagesMigratedFromCpu"] = result.pagesMigratedFromCpu;
    r["pagesMigratedInterGpu"] = result.pagesMigratedInterGpu;
    v["result"] = std::move(r);

    // Chaos accounting: emitted unconditionally (all zeros when
    // injection is off) so report consumers can rely on the shape.
    obs::json::Value chaos = obs::json::Value::object();
    chaos["injected"] = result.chaosInjected;
    chaos["retries"] = result.chaosRetries;
    chaos["fallbacks"] = result.chaosFallbacks;
    chaos["recovery_cycles"] = result.chaosRecoveryCycles;
    chaos["audit_violations"] = result.auditViolations;
    v["chaos"] = std::move(chaos);

    obs::json::Value counters = obs::json::Value::object();
    for (const auto &[name, value] : result.stats.all())
        counters[name] = value;
    v["counters"] = std::move(counters);

    obs::json::Value hists = obs::json::Value::object();
    hists["faultLatency"] = histogramJson(result.latency.faultLatency);
    hists["cpuMigrationLatency"] =
        histogramJson(result.latency.cpuMigrationLatency);
    hists["interGpuMigrationLatency"] =
        histogramJson(result.latency.interGpuMigrationLatency);
    hists["remoteAccessLatency"] =
        histogramJson(result.latency.remoteAccessLatency);
    v["histograms"] = std::move(hists);

    // Critical-path decomposition: one entry per span-model stage,
    // whose sums partition the end-to-end total exactly.
    const obs::CriticalPath &cp = result.faultBreakdown;
    obs::json::Value fb = obs::json::Value::object();
    fb["faults"] = cp.faults();
    fb["orphans"] = result.faultSpansOpen;
    fb["total"] = histogramJson(cp.total());
    obs::json::Value stages = obs::json::Value::object();
    for (unsigned s = 0; s < obs::numStages; ++s) {
        const auto stage = obs::Stage(s);
        obs::json::Value sv = histogramJson(cp.stageHistogram(stage));
        sv["sum"] = cp.stageSum(stage);
        sv["share"] = cp.share(stage);
        stages[obs::stageName(stage)] = std::move(sv);
    }
    fb["stages"] = std::move(stages);
    v["fault_breakdown"] = std::move(fb);

    // Telemetry sections are emitted only when their recorder ran, so
    // reports from `--page-stats`-off runs keep their exact old shape.
    if (result.pageStats.enabled)
        v["page_stats"] = pageStatsJson(result.pageStats);
    if (result.timeseries.tick > 0)
        v["timeseries"] = timeseriesJson(result.timeseries);
    if (result.hostProfile.enabled)
        v["host_profile"] = hostProfileJson(result.hostProfile);

    if (sampler) {
        obs::json::Value s = obs::json::Value::object();
        s["period"] = std::uint64_t(sampler->period());
        obs::json::Value cols = obs::json::Value::array();
        cols.push("tick");
        for (const auto &c : sampler->columns())
            cols.push(c);
        s["columns"] = std::move(cols);
        obs::json::Value rows = obs::json::Value::array();
        for (const auto &row : sampler->rows()) {
            obs::json::Value jr = obs::json::Value::array();
            jr.push(std::uint64_t(row.tick));
            for (const double val : row.values)
                jr.push(val);
            rows.push(std::move(jr));
        }
        s["rows"] = std::move(rows);
        v["samples"] = std::move(s);
    }

    return v;
}

std::uint64_t
reportSchemaVersionOf(const obs::json::Value &doc)
{
    const obs::json::Value *v = doc.find("schema_version");
    if (!v || v->kind() != obs::json::Value::Kind::Number ||
        !(v->asNumber() >= 1))
        return 1;
    // Clamped so a huge version converts safely and still warns.
    return std::uint64_t(std::min(v->asNumber(), 1e15));
}

obs::json::Value
reportDocument(obs::json::Value runs)
{
    obs::json::Value doc = obs::json::Value::object();
    doc["schema_version"] = reportSchemaVersion;
    doc["runs"] = std::move(runs);
    return doc;
}

std::optional<obs::json::Value>
loadReport(const std::string &path, const char *tool)
{
    std::ifstream is(path);
    if (!is) {
        std::cerr << tool << ": cannot open " << path << "\n";
        return std::nullopt;
    }
    std::ostringstream text;
    text << is.rdbuf();
    auto doc = obs::json::Value::parse(text.str());
    if (!doc)
        std::cerr << tool << ": " << path << ": parse error\n";
    return doc;
}

std::optional<std::vector<ReportRun>>
reportRuns(const obs::json::Value &doc)
{
    using Kind = obs::json::Value::Kind;
    const obs::json::Value *runs = &doc;
    if (doc.kind() == Kind::Object) {
        if (const obs::json::Value *r = doc.find("runs"))
            runs = r;
        else if (const obs::json::Value *label = doc.find("label"))
            return std::vector<ReportRun>{{label->asString(), &doc}};
    }
    if (runs->kind() != Kind::Array)
        return std::nullopt;
    std::vector<ReportRun> out;
    for (std::size_t i = 0; i < runs->size(); ++i) {
        const obs::json::Value &run = runs->at(i);
        const obs::json::Value *label = run.find("label");
        out.emplace_back(label ? label->asString()
                               : "run" + std::to_string(i),
                         &run);
    }
    return out;
}

std::string
asciiBar(double value, double max_value, int width)
{
    if (max_value <= 0.0)
        max_value = 1.0;
    const int filled = int(std::round(
        std::clamp(value / max_value, 0.0, 1.0) * width));
    std::string bar = "|";
    bar += std::string(filled, '#');
    bar += std::string(width - filled, '-');
    bar += "|";
    return bar;
}

} // namespace griffin::sys
