/**
 * @file
 * griffin: the developer/CI command line. `griffin SUB ARGS...`
 * dispatches on SUB:
 *
 *   run      regenerate a paper figure, table or ablation (run.cc)
 *   compare  diff two run reports and gate on regressions (compare.cc)
 *   pages    query a report's page-lifecycle telemetry (pages.cc)
 *   prof     query a report's host-side self-profile (prof.cc)
 *   fuzz     randomized differential testing (fuzz.cc)
 *
 * Exit status, for every subcommand: 0 OK, 1 a negative answer (a
 * check or oracle failed, a simulation failed, or the report lacks the
 * queried section), 2 usage / IO / parse error.
 */

#include <algorithm>
#include <iostream>
#include <string>

#include "tools/cli.hh"

namespace {

void
usage()
{
    std::cerr
        << "usage: griffin SUB ARGS...\n"
           "  griffin run     NAME|--list [--scale=N] [--seed=N] [--jobs=N]"
           " [--csv] [--workload=ABBV]...\n"
           "                  [--trace=FILE [--trace-all]] [--report=FILE]"
           " [--samples=FILE] [--sample=N]\n"
           "                  [--page-stats] [--timeseries=N]"
           " [--host-prof] [--progress]\n"
           "                  [--log=error|warn|info|trace] [--chaos=SPEC]"
           " [--chaos-seed=N]\n"
           "  griffin compare REF.json CUR.json"
           " [--fail-on METRIC:[+|-]P%]... [--warn-on METRIC:[+|-]P%]...\n"
           "                  [--verdict=FILE] [--csv] [--quiet]\n"
           "  griffin pages   summarize|top|churn REPORT.json"
           " [--run=LABEL] [--n=N]\n"
           "                  [--by=migrations|churn] [--csv]\n"
           "  griffin prof    summarize|top|folded REPORT.json"
           " [--run=LABEL] [--n=N] [--csv]\n"
           "  griffin fuzz    [--seeds=N] [--seed=S] [--jobs=N] [--batch=K]"
           " [--duration=SECS]\n"
           "                  [--shrink] [--pin=KNOB[,KNOB...]] [--corpus]"
           " [--describe]\n"
           "                  [--list-knobs] [--quiet]\n"
           "  e.g. griffin run fig12_speedup --jobs=4 --report=report.json\n"
           "       griffin compare ref.json cur.json"
           " --fail-on fault_p95:+5% --fail-on cycles:+3%\n"
           "       griffin pages top report.json --n=5 --by=churn\n"
           "       griffin fuzz --seed=0x2a --seeds=1 --shrink\n"
           "exit status: 0 OK, 1 a check, oracle or simulation failed,"
           " or the report\n"
           "             lacks the queried section,"
           " 2 usage / IO / parse error\n";
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace griffin::cli;

    const std::string sub = argc > 1 ? argv[1] : "";
    const Args args(argv + std::min(argc, 2), argv + argc);
    const auto isHelp = [](const std::string &a) {
        return a == "--help" || a == "-h";
    };
    if (isHelp(sub) || std::any_of(args.begin(), args.end(), isHelp)) {
        usage();
        return 0;
    }

    using Main = int (*)(const Args &);
    const std::pair<std::string, Main> subcommands[] = {
        {"run", runMain},
        {"compare", compareMain},
        {"pages", pagesMain},
        {"prof", profMain},
        {"fuzz", fuzzMain},
    };
    const auto it = std::find_if(
        std::begin(subcommands), std::end(subcommands),
        [&](const auto &s) { return s.first == sub; });
    if (it == std::end(subcommands)) {
        std::cerr << "griffin: "
                  << (sub.empty() ? "missing subcommand"
                                  : "unknown subcommand " + sub)
                  << "\n";
        usage();
        return 2;
    }

    try {
        return it->second(args);
    } catch (const Exit &e) {
        if (!e.message.empty())
            std::cerr << "griffin " << sub << ": " << e.message << "\n";
        if (e.showUsage)
            usage();
        return e.status;
    }
}
