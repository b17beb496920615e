/**
 * @file
 * griffin-prof: query the host-side self-profile of a JSON run report
 * (written by a bench with --host-prof).
 *
 *   griffin-prof summarize REPORT.json [--run=LABEL] [--csv]
 *   griffin-prof top       REPORT.json [--run=LABEL] [--n=N] [--csv]
 *   griffin-prof folded    REPORT.json [--run=LABEL]
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
 * reports' host numbers is what griffin-compare's warn-only
 * host_profile.host handling is for — this tool just displays them.
 *
 * Exit status: 0 OK, 1 the selected runs carry no host_profile section
 * (the bench ran without --host-prof), 2 usage / IO / parse error.
 */

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "src/obs/hostprof.hh"
#include "src/obs/json.hh"
#include "src/sys/report.hh"

namespace {

using griffin::obs::HostProfile;
using griffin::obs::json::Value;

void
usage()
{
    std::cerr
        << "usage: griffin-prof COMMAND REPORT.json [options]\n"
           "  summarize  per-run host-time digest (+ TOTAL row)\n"
           "  top        hottest component;event buckets [--n=N]\n"
           "  folded     merged folded stacks for flamegraph tools\n"
           "options: --run=LABEL  --n=N  --csv\n";
}

std::string
ms(std::uint64_t ns)
{
    return griffin::sys::Table::num(double(ns) / 1e6, 2);
}

void
addSummaryRow(griffin::sys::Table &table, const std::string &label,
              const HostProfile &p)
{
    using griffin::sys::Table;
    table.addRow({label, std::to_string(p.events), ms(p.wallNs),
                  ms(p.dispatchNs),
                  Table::num(p.eventsPerSec() / 1e6, 2),
                  Table::num(p.attributedFraction() * 100.0, 1),
                  Table::num(p.obsFraction() * 100.0, 1)});
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace griffin;

    std::string command;
    std::string reportFile;
    std::string runLabel;
    unsigned topN = 10;
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
                std::cerr << "griffin-prof: bad --n value\n";
                return 2;
            }
        } else if (arg == "--csv") {
            csv = true;
        } else if (!arg.empty() && arg[0] == '-') {
            std::cerr << "griffin-prof: unknown flag " << arg << "\n";
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
         command != "folded")) {
        usage();
        return 2;
    }

    const auto doc = sys::loadReport(reportFile, "griffin-prof");
    if (!doc)
        return 2;

    const Value *schema = doc->find("schema_version");
    const std::uint64_t version =
        schema ? std::uint64_t(schema->asNumber()) : 1;
    if (!sys::knownReportSchemaVersion(version)) {
        std::cerr << "griffin-prof: warning: report schema_version "
                  << version << " > known "
                  << sys::reportSchemaVersion << "\n";
    }

    auto runs = sys::reportRuns(*doc).value_or(std::vector<sys::ReportRun>{});
    if (runs.empty()) {
        std::cerr << "griffin-prof: no runs in " << reportFile << "\n";
        return 2;
    }
    if (!runLabel.empty()) {
        std::erase_if(runs, [&](const auto &r) {
            return r.first != runLabel;
        });
        if (runs.empty()) {
            std::cerr << "griffin-prof: no run labelled \"" << runLabel
                      << "\" in " << reportFile << "\n";
            return 2;
        }
    }

    // Parse every selected run's host_profile up front; a consumer
    // pointing this tool at an unprofiled report should notice.
    std::vector<std::pair<std::string, HostProfile>> profiles;
    for (const auto &[label, run] : runs) {
        const Value *hp = run->find("host_profile");
        if (!hp)
            continue;
        auto profile = sys::hostProfileFromJson(*hp);
        if (!profile) {
            std::cerr << "griffin-prof: run \"" << label
                      << "\": malformed host_profile section\n";
            return 2;
        }
        profiles.emplace_back(label, std::move(*profile));
    }
    if (profiles.empty()) {
        std::cerr << "griffin-prof: no host_profile section in the"
                     " selected runs (re-run the bench with"
                     " --host-prof)\n";
        return 1;
    }

    if (command == "summarize") {
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
        std::cout << (csv ? table.csv() : table.str());
        return 0;
    }

    if (command == "top") {
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
        std::cout << (csv ? table.csv() : table.str());
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
