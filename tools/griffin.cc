/**
 * @file
 * griffin: the developer/CI command line over run reports and the
 * fuzzer. `griffin SUB ARGS...` dispatches on SUB:
 *
 *   compare  diff two run reports and gate on regressions (compare.cc)
 *   pages    query a report's page-lifecycle telemetry (pages.cc)
 *   prof     query a report's host-side self-profile (prof.cc)
 *   fuzz     randomized differential testing (fuzz.cc)
 *
 * Exit status, for every subcommand: 0 OK, 1 a negative answer (a
 * check or oracle failed, or the report lacks the queried section),
 * 2 usage / IO / parse error.
 */

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "tools/cli.hh"

namespace griffin::cli {

namespace {

void
usage()
{
    std::cerr
        << "usage: griffin SUB ARGS...\n"
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
           "  e.g. griffin compare ref.json cur.json"
           " --fail-on fault_p95:+5% --fail-on cycles:+3%\n"
           "       griffin pages top report.json --n=5 --by=churn\n"
           "       griffin fuzz --seed=0x2a --seeds=1 --shrink\n"
           "exit status: 0 OK, 1 a check or oracle failed or the report"
           " lacks the queried section,\n"
           "             2 usage / IO / parse error\n";
}

} // namespace

Exit
usageError(std::string message)
{
    return {2, std::move(message), true};
}

Args
parseFlags(const Args &args, const std::vector<Flag> &flags)
{
    Args positional;
    for (std::size_t i = 0; i < args.size(); ++i) {
        const std::string arg = args[i] == "-q" ? "--quiet" : args[i];
        if (arg.empty() || arg[0] != '-') {
            positional.push_back(arg);
            continue;
        }
        const std::size_t eq = arg.find('=');
        const std::string name = arg.substr(0, eq);
        const auto flag =
            std::find_if(flags.begin(), flags.end(),
                         [&](const Flag &f) { return f.name == name; });
        if (flag == flags.end())
            throw usageError("unknown flag " + arg);
        if (flag->toggle) {
            if (eq != std::string::npos)
                throw usageError(name + " takes no value");
            *flag->toggle = true;
        } else if (eq != std::string::npos) {
            flag->set(arg.substr(eq + 1));
        } else if (i + 1 < args.size()) {
            flag->set(args[++i]);
        } else {
            throw usageError(name + " needs a value");
        }
    }
    return positional;
}

std::uint64_t
parseNumber(const std::string &flag, const std::string &text,
            std::uint64_t lo, std::uint64_t hi, int base)
{
    // strtoull skips blanks and accepts a sign ("-1" wraps to 2^64-1),
    // so demand a leading digit before calling it.
    char *end = nullptr;
    errno = 0;
    const unsigned long long v =
        !text.empty() && std::isdigit(static_cast<unsigned char>(text[0]))
            ? std::strtoull(text.c_str(), &end, base)
            : 0;
    if (!end || *end != '\0' || errno == ERANGE || v < lo || v > hi) {
        throw Exit{2, "bad value for " + flag + ": \"" + text +
                          "\" (want an integer in [" +
                          std::to_string(lo) + ", " +
                          std::to_string(hi) + "])"};
    }
    return v;
}

void
openReport(ReportQuery &query, const char *tool, const Args &args,
           const std::vector<std::string> &commands, const char *section,
           const char *benchFlag, std::vector<Flag> extra)
{
    std::string runLabel;
    extra.push_back({"--run", nullptr,
                     [&](const std::string &v) { runLabel = v; }});
    extra.push_back({"--n", nullptr, [&](const std::string &v) {
                         query.n = unsigned(parseNumber(
                             "--n", v, 1,
                             std::numeric_limits<unsigned>::max()));
                     }});
    extra.push_back({"--csv", &query.csv});
    const Args positional = parseFlags(args, extra);
    if (positional.size() != 2)
        throw usageError("want COMMAND REPORT.json");
    if (std::find(commands.begin(), commands.end(), positional[0]) ==
        commands.end())
        throw usageError("unknown command " + positional[0]);
    query.command = positional[0];
    const std::string &file = positional[1];

    auto doc = sys::loadReport(file, tool);
    if (!doc)
        throw Exit{2, ""};
    query.doc = std::move(*doc);

    const obs::json::Value *schema = query.doc.find("schema_version");
    const std::uint64_t version =
        schema ? std::uint64_t(schema->asNumber()) : 1;
    if (!sys::knownReportSchemaVersion(version)) {
        std::cerr << tool << ": warning: report schema_version "
                  << version << " > known "
                  << sys::reportSchemaVersion << "\n";
    }

    query.runs = sys::reportRuns(query.doc).value_or(
        std::vector<sys::ReportRun>{});
    if (query.runs.empty())
        throw Exit{2, "no runs in " + file};
    if (!runLabel.empty()) {
        std::erase_if(query.runs,
                      [&](const auto &r) { return r.first != runLabel; });
        if (query.runs.empty())
            throw Exit{2, "no run labelled \"" + runLabel + "\" in " +
                              file};
    }

    // Every selected run must carry the section: a gate-style
    // consumer pointing a query at a telemetry-off report should
    // notice instead of reading all-zeros.
    std::erase_if(query.runs, [&](const auto &r) {
        return r.second->find(section) == nullptr;
    });
    if (query.runs.empty()) {
        throw Exit{1, std::string("no ") + section +
                          " section in the selected runs (re-run the"
                          " bench with " +
                          benchFlag + ")"};
    }
}

} // namespace griffin::cli

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
