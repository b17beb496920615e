/**
 * @file
 * griffin pages: query the page-lifecycle telemetry of a JSON run
 * report (written by a bench with --page-stats / --timeseries=TICKS).
 *
 *   griffin pages summarize REPORT.json [--run=LABEL] [--csv]
 *   griffin pages top       REPORT.json [--run=LABEL] [--n=N]
 *                           [--by=migrations|churn] [--csv]
 *   griffin pages churn     REPORT.json [--run=LABEL] [--csv]
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
#include <iostream>
#include <string>

#include "tools/cli.hh"

namespace griffin::cli {

namespace {

using obs::json::Value;

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
addTopPageRows(sys::Table &table, const std::string &label,
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
pagesMain(const Args &args)
{
    std::string by = "migrations";
    const Flag byFlag{"--by", nullptr, [&](const std::string &v) {
                          if (v != "migrations" && v != "churn")
                              throw Exit{2, "--by must be migrations or"
                                            " churn"};
                          by = v;
                      }};
    ReportQuery q;
    openReport(q, "griffin pages", args, {"summarize", "top", "churn"},
               "page_stats", "--page-stats", {byFlag});

    if (q.command == "summarize") {
        sys::Table table({"run", "pages", "migrated", "commits",
                          "churn", "churn_pages", "max_one_page",
                          "reuse_p50", "reuse_p95", "peak_migr/ival"});
        for (const auto &[label, run] : q.runs) {
            const Value *ps = run->find("page_stats");
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
        std::cout << (q.csv ? table.csv() : table.str());
        return 0;
    }

    const char *section =
        q.command == "churn" || by == "churn" ? "thrashing_pages"
                                              : "hot_pages";
    if (q.command == "churn") {
        sys::Table counts({"run", "churn_events", "churn_pages",
                           "churn_window"});
        for (const auto &[label, run] : q.runs) {
            const Value *ps = run->find("page_stats");
            counts.addRow({label, u64(numberAt(*ps, "churn_events")),
                           u64(numberAt(*ps, "churn_pages")),
                           u64(numberAt(*ps, "churn_window"))});
        }
        std::cout << (q.csv ? counts.csv() : counts.str());
        if (!q.csv)
            std::cout << "\n";
    }

    sys::Table table({"run", "page", "migrations", "churn", "denials",
                      "last_loc", "residency"});
    for (const auto &[label, run] : q.runs) {
        const Value *ps = run->find("page_stats");
        const Value *pages = ps->find(section);
        if (!pages || pages->kind() != Value::Kind::Array)
            continue;
        const unsigned n =
            q.n ? q.n : unsigned(numberAt(*ps, "top_n"));
        addTopPageRows(table, label, *pages, n ? n : 16);
    }
    std::cout << (q.csv ? table.csv() : table.str());
    return 0;
}

} // namespace griffin::cli
