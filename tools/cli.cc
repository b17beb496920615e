/**
 * @file
 * The shared front end of every griffin subcommand: the flag parser,
 * the strict number parser and the report-query loader (tools/cli.hh).
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

Exit
usageError(std::string message)
{
    return {2, std::move(message), true};
}

Args
parseFlags(const Args &args, const std::vector<Flag> &flags)
{
    Args positional;
    std::vector<std::string> seen;
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
        // A repeated single-shot flag almost always means a script
        // overriding its own earlier value, so it is an error rather
        // than last-one-wins.
        if (!flag->repeatable) {
            if (std::find(seen.begin(), seen.end(), name) != seen.end())
                throw usageError("duplicate flag " + name);
            seen.push_back(name);
        }
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
           const char *runFlag, std::vector<Flag> extra)
{
    std::string runLabel;
    extra.push_back({"--run", nullptr,
                     [&](const std::string &v) { runLabel = v; }});
    extra.push_back(
        numberFlag("--n", query.n, 1, std::numeric_limits<unsigned>::max()));
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

    const std::uint64_t version = sys::reportSchemaVersionOf(query.doc);
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
                          " section in the selected runs (re-run"
                          " griffin run with " +
                          runFlag + ")"};
    }
}

} // namespace griffin::cli
