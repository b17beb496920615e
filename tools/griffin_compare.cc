/**
 * @file
 * griffin-compare: diff two JSON run reports and gate on regressions.
 *
 *   griffin-compare REF.json CUR.json
 *       [--fail-on METRIC:[+|-]P%]... [--warn-on METRIC:[+|-]P%]...
 *       [--verdict=FILE] [--csv] [--quiet]
 *
 * --warn-on thresholds report a breach as a warning without failing
 * the gate (host-time metrics like host_events_per_sec are warn-only
 * even under --fail-on). --csv renders the checks as RFC-4180 CSV
 * instead of the aligned text (drift stays on stdout as text).
 *
 * Exit status: 0 every check passed, 1 a check or run matching
 * failed, 2 usage / IO / parse error or an invalid comparison (e.g.
 * duplicate run labels in a report — there is no way to tell which
 * pair was compared). With no --fail-on, the tool only prints drift
 * (and still fails on mismatched run sets).
 */

#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "src/obs/json.hh"
#include "src/sys/compare.hh"
#include "src/sys/report.hh"

namespace {

void
usage()
{
    std::cerr << "usage: griffin-compare REF.json CUR.json"
                 " [--fail-on METRIC:[+|-]P%]..."
                 " [--warn-on METRIC:[+|-]P%]..."
                 " [--verdict=FILE] [--csv] [--quiet]\n"
                 "  e.g. griffin-compare ref.json cur.json"
                 " --fail-on fault_p95:+5% --fail-on cycles:+3%\n";
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace griffin;

    std::vector<std::string> files;
    std::vector<sys::Threshold> thresholds;
    std::string verdictFile;
    bool quiet = false;
    bool csv = false;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        std::string spec;
        bool warn_only = false;
        if (arg == "--fail-on" && i + 1 < argc) {
            spec = argv[++i];
        } else if (arg.rfind("--fail-on=", 0) == 0) {
            spec = arg.substr(10);
        } else if (arg == "--warn-on" && i + 1 < argc) {
            spec = argv[++i];
            warn_only = true;
        } else if (arg.rfind("--warn-on=", 0) == 0) {
            spec = arg.substr(10);
            warn_only = true;
        } else if (arg == "--csv") {
            csv = true;
            continue;
        } else if (arg.rfind("--verdict=", 0) == 0) {
            verdictFile = arg.substr(10);
            continue;
        } else if (arg == "--quiet" || arg == "-q") {
            quiet = true;
            continue;
        } else if (arg == "--help" || arg == "-h") {
            usage();
            return 0;
        } else if (!arg.empty() && arg[0] == '-') {
            std::cerr << "griffin-compare: unknown flag " << arg << "\n";
            usage();
            return 2;
        } else {
            files.push_back(arg);
            continue;
        }
        auto t = sys::parseThreshold(spec);
        if (!t) {
            std::cerr << "griffin-compare: bad threshold \"" << spec
                      << "\" (want METRIC:[+|-]P%)\n";
            return 2;
        }
        t->warnOnly = warn_only;
        thresholds.push_back(std::move(*t));
    }

    if (files.size() != 2) {
        usage();
        return 2;
    }

    const auto ref = sys::loadReport(files[0], "griffin-compare");
    const auto cur = sys::loadReport(files[1], "griffin-compare");
    if (!ref || !cur)
        return 2;

    const sys::CompareResult result =
        sys::compareReports(*ref, *cur, thresholds);

    if (!verdictFile.empty()) {
        std::ofstream os(verdictFile);
        if (!os) {
            std::cerr << "griffin-compare: cannot write " << verdictFile
                      << "\n";
            return 2;
        }
        os << result.verdictJson().dump(2) << "\n";
    }

    if (!quiet) {
        for (const std::string &e : result.errors)
            std::cout << "ERROR  " << e << "\n";
        for (const std::string &w : result.warnings)
            std::cout << "WARN   " << w << "\n";
        const auto status = [](const sys::CheckResult &c) {
            return c.warnedOnly ? "WARN" : c.ok ? "ok" : "FAIL";
        };
        if (csv) {
            sys::Table table({"status", "run", "metric", "ref", "cur",
                              "deltaPct"});
            for (const auto &c : result.checks) {
                if (!c.note.empty()) {
                    table.addRow({status(c), c.run, c.metric, "", "",
                                  c.note});
                    continue;
                }
                table.addRow({status(c), c.run, c.metric,
                              sys::Table::num(c.ref, 6),
                              sys::Table::num(c.cur, 6),
                              sys::Table::num(c.deltaPct, 2)});
            }
            std::cout << table.csv();
        } else {
            for (const auto &c : result.checks) {
                if (!c.note.empty()) {
                    std::printf("%-6s %-24s %-14s %s\n", status(c),
                                c.run.c_str(), c.metric.c_str(),
                                c.note.c_str());
                    continue;
                }
                std::printf(
                    "%-6s %-24s %-14s %14.6g -> %-14.6g %+.2f%%\n",
                    status(c), c.run.c_str(), c.metric.c_str(), c.ref,
                    c.cur, c.deltaPct);
            }
        }
        if (!result.drifts.empty()) {
            std::cout << "drift (largest " << result.drifts.size()
                      << " changes, informational):\n";
            for (const auto &d : result.drifts) {
                std::printf("       %-24s %-38s %14.6g -> %-14.6g"
                            " %+.2f%%\n",
                            d.run.c_str(), d.path.c_str(), d.ref, d.cur,
                            d.deltaPct);
            }
        }
        std::cout << (result.fatal ? "FATAL"
                                   : result.pass ? "PASS" : "FAIL")
                  << "\n";
    }

    if (result.fatal)
        return 2;
    return result.pass ? 0 : 1;
}
