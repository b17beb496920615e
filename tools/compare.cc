/**
 * @file
 * griffin compare: diff two JSON run reports and gate on regressions.
 *
 *   griffin compare REF.json CUR.json
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

#include "src/sys/compare.hh"
#include "tools/cli.hh"

namespace griffin::cli {

int
compareMain(const Args &args)
{
    std::vector<sys::Threshold> thresholds;
    const auto threshold = [&](bool warnOnly) {
        return [&thresholds, warnOnly](const std::string &spec) {
            auto t = sys::parseThreshold(spec);
            if (!t) {
                throw Exit{2, "bad threshold \"" + spec +
                                  "\" (want METRIC:[+|-]P%)"};
            }
            t->warnOnly = warnOnly;
            thresholds.push_back(std::move(*t));
        };
    };
    std::string verdictFile;
    bool quiet = false;
    bool csv = false;
    const Args files = parseFlags(
        args, {{"--fail-on", nullptr, threshold(false)},
               {"--warn-on", nullptr, threshold(true)},
               {"--verdict", nullptr,
                [&](const std::string &v) { verdictFile = v; }},
               {"--csv", &csv},
               {"--quiet", &quiet}});
    if (files.size() != 2)
        throw usageError("want REF.json CUR.json");

    const auto ref = sys::loadReport(files[0], "griffin compare");
    const auto cur = sys::loadReport(files[1], "griffin compare");
    if (!ref || !cur)
        return 2;

    const sys::CompareResult result =
        sys::compareReports(*ref, *cur, thresholds);

    if (!verdictFile.empty()) {
        std::ofstream os(verdictFile);
        if (!os)
            throw Exit{2, "cannot write " + verdictFile};
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

} // namespace griffin::cli
