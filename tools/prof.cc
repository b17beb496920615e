/**
 * @file
 * griffin prof: query the host-side self-profile of a JSON run report
 * (written by a bench with --host-prof).
 *
 *   griffin prof summarize REPORT.json [--run=LABEL] [--csv]
 *   griffin prof top       REPORT.json [--run=LABEL] [--n=N] [--csv]
 *   griffin prof folded    REPORT.json [--run=LABEL]
 *
 * summarize: per-run dispatch counts, host wall/dispatch time,
 *            throughput, attribution coverage and telemetry overhead,
 *            plus an aggregate TOTAL row when several runs match.
 * top:       the hottest (component;event) buckets by self time, with
 *            each bucket's share of total dispatch time.
 * folded:    the merged folded stacks ("component;event self_ns" per
 *            line) of the selected runs — pipe into flamegraph.pl or
 *            import into speedscope.
 *
 * --run=LABEL restricts to one run (default: all runs in the report).
 * --csv emits the table as CSV instead of aligned text.
 *
 * Host times are wall-clock and therefore machine-dependent; only the
 * bucket names and dispatch counts are deterministic. Comparing two
 * reports' host numbers is what griffin compare's warn-only
 * host_profile.host handling is for — this tool just displays them.
 *
 * Exit status: 0 OK, 1 the selected runs carry no host_profile section
 * (the bench ran without --host-prof), 2 usage / IO / parse error.
 */

#include <algorithm>
#include <cstdint>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "src/obs/hostprof.hh"
#include "tools/cli.hh"

namespace griffin::cli {

namespace {

using obs::HostProfile;

std::string
ms(std::uint64_t ns)
{
    return sys::Table::num(double(ns) / 1e6, 2);
}

void
addSummaryRow(sys::Table &table, const std::string &label,
              const HostProfile &p)
{
    using sys::Table;
    table.addRow({label, std::to_string(p.events), ms(p.wallNs),
                  ms(p.dispatchNs),
                  Table::num(p.eventsPerSec() / 1e6, 2),
                  Table::num(p.attributedFraction() * 100.0, 1),
                  Table::num(p.obsFraction() * 100.0, 1)});
}

} // namespace

int
profMain(const Args &args)
{
    ReportQuery q;
    openReport(q, "griffin prof", args, {"summarize", "top", "folded"},
               "host_profile", "--host-prof");
    const unsigned topN = q.n ? q.n : 10;

    std::vector<std::pair<std::string, HostProfile>> profiles;
    for (const auto &[label, run] : q.runs) {
        auto profile = sys::hostProfileFromJson(*run->find("host_profile"));
        if (!profile) {
            throw Exit{2, "run \"" + label +
                              "\": malformed host_profile section"};
        }
        profiles.emplace_back(label, std::move(*profile));
    }

    if (q.command == "summarize") {
        sys::Table table({"run", "dispatches", "wall_ms",
                          "dispatch_ms", "Mevents/s", "attributed%",
                          "obs%"});
        HostProfile total;
        for (const auto &[label, p] : profiles) {
            addSummaryRow(table, label, p);
            total.merge(p);
        }
        if (profiles.size() > 1)
            addSummaryRow(table, "TOTAL", total);
        std::cout << (q.csv ? table.csv() : table.str());
        return 0;
    }

    if (q.command == "top") {
        sys::Table table({"run", "bucket", "count", "self_ms",
                          "share%"});
        for (const auto &[label, p] : profiles) {
            std::vector<HostProfile::Bucket> top = p.buckets;
            std::sort(top.begin(), top.end(),
                      [](const auto &a, const auto &b) {
                          return a.selfNs != b.selfNs
                                     ? a.selfNs > b.selfNs
                                     : a.name() < b.name();
                      });
            if (top.size() > topN)
                top.resize(topN);
            for (const auto &b : top) {
                const double share =
                    p.dispatchNs > 0
                        ? double(b.selfNs) / double(p.dispatchNs)
                        : 0.0;
                table.addRow({label, b.name(), std::to_string(b.count),
                              ms(b.selfNs),
                              sys::Table::num(share * 100.0, 1)});
            }
        }
        std::cout << (q.csv ? table.csv() : table.str());
        return 0;
    }

    // folded: one merged profile so repeated buckets across runs
    // collapse into single lines, as flamegraph tooling expects.
    HostProfile total;
    for (const auto &[label, p] : profiles)
        total.merge(p);
    std::cout << total.folded();
    return 0;
}

} // namespace griffin::cli
