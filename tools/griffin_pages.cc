/**
 * @file
 * griffin-pages: query the page-lifecycle telemetry of a JSON run
 * report (written by a bench with --page-stats / --timeseries=TICKS).
 *
 *   griffin-pages summarize REPORT.json [--run=LABEL] [--csv]
 *   griffin-pages top       REPORT.json [--run=LABEL] [--n=N]
 *                           [--by=migrations|churn] [--csv]
 *   griffin-pages churn     REPORT.json [--run=LABEL] [--csv]
 *
 * summarize: per-run event totals, churn counts, reuse-distance
 * percentiles and (when present) the time-series peaks.
 * top:       the hot-page table (most-migrated pages), or the
 *            thrashing table with --by=churn.
 * churn:     churn-focused view: churn events/pages per run plus the
 *            full thrashing table with residency timelines.
 *
 * --run=LABEL restricts to one run (default: all runs in the report).
 * --csv emits the table as CSV instead of aligned text.
 *
 * Exit status: 0 OK, 1 the selected runs carry no page_stats section
 * (the bench ran without --page-stats), 2 usage / IO / parse error.
 */

#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "src/obs/json.hh"
#include "src/sys/report.hh"

namespace {

using griffin::obs::json::Value;

void
usage()
{
    std::cerr
        << "usage: griffin-pages COMMAND REPORT.json [options]\n"
           "  summarize  per-run page-stats digest (+ timeseries peaks)\n"
           "  top        hot-page table [--n=N] [--by=migrations|churn]\n"
           "  churn      churn counts and the thrashing table\n"
           "options: --run=LABEL  --n=N  --by=migrations|churn  --csv\n";
}

double
numberAt(const Value &obj, const char *key)
{
    const Value *v = obj.find(key);
    return v ? v->asNumber() : 0.0;
}

std::string
u64(double v)
{
    return std::to_string(std::uint64_t(v));
}

/** The residency timeline as "t:dev > t:dev > ..." (capped). */
std::string
residencyString(const Value &tp)
{
    const Value *res = tp.find("residency");
    if (!res || res->kind() != Value::Kind::Array)
        return "";
    std::string out;
    constexpr std::size_t maxHops = 6;
    const std::size_t n = res->size();
    for (std::size_t i = 0; i < n && i < maxHops; ++i) {
        const Value &hop = res->at(i);
        if (hop.size() != 2)
            continue;
        if (!out.empty())
            out += " > ";
        out += u64(hop.at(0).asNumber()) + ":" +
               u64(hop.at(1).asNumber());
    }
    if (n > maxHops)
        out += " > ... (" + std::to_string(n) + " hops)";
    return out;
}

void
addTopPageRows(griffin::sys::Table &table, const std::string &label,
               const Value &pages, unsigned n)
{
    for (std::size_t i = 0; i < pages.size() && i < n; ++i) {
        const Value &tp = pages.at(i);
        table.addRow({label, u64(numberAt(tp, "page")),
                      u64(numberAt(tp, "migrations")),
                      u64(numberAt(tp, "churn")),
                      u64(numberAt(tp, "denials")),
                      u64(numberAt(tp, "last_location")),
                      residencyString(tp)});
    }
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace griffin;

    std::string command;
    std::string reportFile;
    std::string runLabel;
    std::string by = "migrations";
    unsigned topN = 0; // 0 = the report's own top-N
    bool csv = false;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            usage();
            return 0;
        } else if (arg.rfind("--run=", 0) == 0) {
            runLabel = arg.substr(6);
        } else if (arg.rfind("--n=", 0) == 0) {
            topN = unsigned(std::strtoul(arg.substr(4).c_str(),
                                         nullptr, 10));
            if (topN == 0) {
                std::cerr << "griffin-pages: bad --n value\n";
                return 2;
            }
        } else if (arg.rfind("--by=", 0) == 0) {
            by = arg.substr(5);
            if (by != "migrations" && by != "churn") {
                std::cerr << "griffin-pages: --by must be migrations"
                             " or churn\n";
                return 2;
            }
        } else if (arg == "--csv") {
            csv = true;
        } else if (!arg.empty() && arg[0] == '-') {
            std::cerr << "griffin-pages: unknown flag " << arg << "\n";
            usage();
            return 2;
        } else if (command.empty()) {
            command = arg;
        } else if (reportFile.empty()) {
            reportFile = arg;
        } else {
            usage();
            return 2;
        }
    }

    if (reportFile.empty() ||
        (command != "summarize" && command != "top" &&
         command != "churn")) {
        usage();
        return 2;
    }

    const auto doc = sys::loadReport(reportFile, "griffin-pages");
    if (!doc)
        return 2;

    const Value *schema = doc->find("schema_version");
    const std::uint64_t version =
        schema ? std::uint64_t(schema->asNumber()) : 1;
    if (version != sys::reportSchemaVersion) {
        std::cerr << "griffin-pages: warning: report schema_version "
                  << version << " != expected "
                  << sys::reportSchemaVersion << "\n";
    }

    auto runs = sys::reportRuns(*doc).value_or(std::vector<sys::ReportRun>{});
    if (runs.empty()) {
        std::cerr << "griffin-pages: no runs in " << reportFile << "\n";
        return 2;
    }
    if (!runLabel.empty()) {
        std::erase_if(runs, [&](const auto &r) {
            return r.first != runLabel;
        });
        if (runs.empty()) {
            std::cerr << "griffin-pages: no run labelled \"" << runLabel
                      << "\" in " << reportFile << "\n";
            return 2;
        }
    }

    // Every selected run must carry telemetry: a gate-style consumer
    // pointing this tool at a --page-stats-less report should notice.
    std::size_t withStats = 0;
    for (const auto &[label, run] : runs)
        withStats += run->find("page_stats") != nullptr;
    if (withStats == 0) {
        std::cerr << "griffin-pages: no page_stats section in the"
                     " selected runs (re-run the bench with"
                     " --page-stats)\n";
        return 1;
    }

    if (command == "summarize") {
        sys::Table table({"run", "pages", "migrated", "commits",
                          "churn", "churn_pages", "max_one_page",
                          "reuse_p50", "reuse_p95", "peak_migr/ival"});
        for (const auto &[label, run] : runs) {
            const Value *ps = run->find("page_stats");
            if (!ps)
                continue;
            const Value *reuse = ps->find("reuse_distance");
            std::string peak = "-";
            if (const Value *ts = run->find("timeseries")) {
                if (const Value *pk = ts->find("peak"))
                    peak = u64(numberAt(*pk, "migrations"));
            }
            table.addRow(
                {label, u64(numberAt(*ps, "pages_tracked")),
                 u64(numberAt(*ps, "pages_migrated")),
                 u64(numberAt(*ps, "total_migrations")),
                 u64(numberAt(*ps, "churn_events")),
                 u64(numberAt(*ps, "churn_pages")),
                 u64(numberAt(*ps, "max_migrations_one_page")),
                 reuse ? sys::Table::num(numberAt(*reuse, "p50"), 0)
                       : "-",
                 reuse ? sys::Table::num(numberAt(*reuse, "p95"), 0)
                       : "-",
                 peak});
        }
        std::cout << (csv ? table.csv() : table.str());
        return 0;
    }

    const char *section =
        command == "churn" || by == "churn" ? "thrashing_pages"
                                            : "hot_pages";
    if (command == "churn") {
        sys::Table counts({"run", "churn_events", "churn_pages",
                           "churn_window"});
        for (const auto &[label, run] : runs) {
            const Value *ps = run->find("page_stats");
            if (!ps)
                continue;
            counts.addRow({label, u64(numberAt(*ps, "churn_events")),
                           u64(numberAt(*ps, "churn_pages")),
                           u64(numberAt(*ps, "churn_window"))});
        }
        std::cout << (csv ? counts.csv() : counts.str());
        if (!csv)
            std::cout << "\n";
    }

    sys::Table table({"run", "page", "migrations", "churn", "denials",
                      "last_loc", "residency"});
    for (const auto &[label, run] : runs) {
        const Value *ps = run->find("page_stats");
        if (!ps)
            continue;
        const Value *pages = ps->find(section);
        if (!pages || pages->kind() != Value::Kind::Array)
            continue;
        const unsigned n =
            topN ? topN : unsigned(numberAt(*ps, "top_n"));
        addTopPageRows(table, label, *pages, n ? n : 16);
    }
    std::cout << (csv ? table.csv() : table.str());
    return 0;
}
