/**
 * @file
 * The shared front end of the griffin CLI (tools/griffin.cc): one flag
 * parser, one strict number parser, one report-query loader, and the
 * entry point of every subcommand.
 *
 * Every subcommand follows one exit contract: 0 OK, 1 the question
 * has a negative answer (a gate check or oracle failed, or the report
 * lacks the queried telemetry section), 2 usage / IO / parse error.
 */

#ifndef GRIFFIN_TOOLS_CLI_HH
#define GRIFFIN_TOOLS_CLI_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/obs/json.hh"
#include "src/sys/report.hh"

namespace griffin::cli {

using Args = std::vector<std::string>;

/**
 * Ends the running subcommand with @p status. main() prints
 * "griffin SUB: MESSAGE" (when the message is non-empty) and, for a
 * usage error, the usage text.
 */
struct Exit
{
    int status;
    std::string message;
    bool showUsage = false;
};

/** A usage error (status 2) that prints the usage text. */
Exit usageError(std::string message);

/**
 * One flag a subcommand accepts. A switch ("--csv") sets *toggle; any
 * other flag takes a value as "--name=VALUE" or "--name VALUE".
 */
struct Flag
{
    std::string name;
    bool *toggle = nullptr;
    std::function<void(const std::string &)> set = {};
};

/**
 * Apply @p flags to @p args ("-q" is short for "--quiet").
 * @return the positional arguments, in order.
 * @throws Exit on an unknown flag or a missing / unwanted value.
 */
Args parseFlags(const Args &args, const std::vector<Flag> &flags);

/**
 * @p text as a number in [@p lo, @p hi]: the whole string must parse,
 * with no sign. @p base 0 also accepts 0x hex (fuzz seeds are printed
 * that way).
 * @throws Exit (status 2, naming @p flag) otherwise.
 */
std::uint64_t parseNumber(const std::string &flag, const std::string &text,
                          std::uint64_t lo, std::uint64_t hi,
                          int base = 10);

/** A parsed `COMMAND REPORT.json [--run=LABEL] [--n=N] [--csv]`. */
struct ReportQuery
{
    std::string command;
    unsigned n = 0; ///< --n, 0 when not given
    bool csv = false;
    obs::json::Value doc;
    /**
     * The selected runs that carry the queried section. They point
     * into doc, so a query is filled in place and never copied.
     */
    std::vector<sys::ReportRun> runs;
};

/**
 * The report-query front end of `pages` and `prof`: parse @p args
 * (@p extra adds subcommand-only flags), check COMMAND is one of
 * @p commands, load the report (warning on an unknown schema
 * version), and select the runs matching --run that carry
 * @p section.
 * @throws Exit 2 on a usage / IO / parse error or an unknown --run
 *         label, 1 when no selected run carries @p section (the hint
 *         names @p benchFlag, the bench flag that records it).
 */
void openReport(ReportQuery &query, const char *tool, const Args &args,
                const std::vector<std::string> &commands,
                const char *section, const char *benchFlag,
                std::vector<Flag> extra = {});

int compareMain(const Args &args);
int pagesMain(const Args &args);
int profMain(const Args &args);
int fuzzMain(const Args &args);

} // namespace griffin::cli

#endif // GRIFFIN_TOOLS_CLI_HH
