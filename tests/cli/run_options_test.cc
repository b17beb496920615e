#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "tools/run.hh"

namespace {

using griffin::cli::Args;
using griffin::cli::Exit;
using griffin::cli::RunOptions;

RunOptions
parse(const Args &args)
{
    RunOptions opt;
    griffin::cli::parseRunFlags(args, opt);
    return opt;
}

/** The Exit that parsing @p args throws (status -1 when none). */
Exit
parseError(const Args &args)
{
    try {
        parse(args);
    } catch (const Exit &e) {
        return e;
    }
    return {-1, ""};
}

const griffin::cli::Experiment &
entry(const std::string &name)
{
    for (const auto &e : griffin::cli::experiments()) {
        if (e.name == name)
            return e;
    }
    throw std::runtime_error("no entry " + name);
}

/** @p args resolved against entry @p name. */
RunOptions
resolve(const std::string &name, const Args &args)
{
    RunOptions opt = parse(args);
    griffin::cli::resolveSelection(entry(name), args, opt);
    return opt;
}

TEST(Options, ParsesTheCommonFlags)
{
    const RunOptions opt =
        parse({"--scale=64", "--seed=7", "--jobs=2", "--csv"});
    EXPECT_EQ(opt.workload.scaleDiv, 64u);
    EXPECT_EQ(opt.workload.seed, 7u);
    EXPECT_EQ(opt.jobs, 2u);
    EXPECT_TRUE(opt.csv);
}

TEST(OptionsDeathTest, DuplicateValueFlagExitsWithUsageError)
{
    const Exit e = parseError({"--scale=64", "--scale=32"});
    EXPECT_EQ(e.status, 2);
    EXPECT_EQ(e.message, "duplicate flag --scale");
}

TEST(OptionsDeathTest, DuplicateBooleanFlagExitsWithUsageError)
{
    const Exit e = parseError({"--csv", "--csv"});
    EXPECT_EQ(e.status, 2);
    EXPECT_EQ(e.message, "duplicate flag --csv");
}

TEST(OptionsDeathTest, ValueAndValuelessFormsAreTheSameFlag)
{
    // A switch given bare and then with a value is still one flag
    // given twice: the repeat is the error reported.
    const Exit e = parseError({"--host-prof", "--host-prof=out.folded"});
    EXPECT_EQ(e.status, 2);
    EXPECT_EQ(e.message, "duplicate flag --host-prof");
}

TEST(Options, WorkloadStaysRepeatable)
{
    const RunOptions opt = parse({"--workload=MT", "--workload=BFS"});
    ASSERT_EQ(opt.workloads.size(), 2u);
    EXPECT_EQ(opt.workloads[0], "MT");
    EXPECT_EQ(opt.workloads[1], "BFS");
}

TEST(Options, DistinctFlagsWithEqualValuesAreFine)
{
    const RunOptions opt = parse({"--seed=5", "--sample=5"});
    EXPECT_EQ(opt.workload.seed, 5u);
    EXPECT_EQ(opt.samplePeriod, 5u);
}

TEST(OptionsDeathTest, NonNumericValueExitsWithUsageError)
{
    const Exit e = parseError({"--scale=banana"});
    EXPECT_EQ(e.status, 2);
    EXPECT_NE(e.message.find("--scale: \"banana\""), std::string::npos)
        << e.message;
}

TEST(OptionsDeathTest, OutOfRangeValueExitsWithUsageError)
{
    // scale=0 would divide every workload footprint by zero.
    const Exit e = parseError({"--scale=0"});
    EXPECT_EQ(e.status, 2);
    EXPECT_NE(e.message.find("--scale: \"0\""), std::string::npos)
        << e.message;
}

TEST(Options, HostProfIsASwitchAndNeverTakesTheNextWord)
{
    const Exit e = parseError({"--host-prof=out.folded"});
    EXPECT_EQ(e.status, 2);
    EXPECT_EQ(e.message, "--host-prof takes no value");
    RunOptions opt;
    const Args positional =
        griffin::cli::parseRunFlags({"--host-prof", "fig12"}, opt);
    EXPECT_TRUE(opt.hostProf);
    EXPECT_EQ(positional, Args{"fig12"});
}

TEST(Options, ValueFlagsTakeTheNextWordToo)
{
    const RunOptions opt = parse({"--jobs", "4", "--workload", "SC"});
    EXPECT_EQ(opt.jobs, 4u);
    EXPECT_EQ(opt.workloads, std::vector<std::string>{"SC"});
}

TEST(Options, UnknownFlagAndLogLevelAreUsageErrors)
{
    EXPECT_EQ(parseError({"--scael=1"}).message, "unknown flag --scael=1");
    const Exit e = parseError({"--log=bogus"});
    EXPECT_EQ(e.status, 2);
    EXPECT_NE(e.message.find("--log"), std::string::npos) << e.message;
}

TEST(Selection, DefaultSubsetOnlyWithoutWorkloadFlags)
{
    EXPECT_EQ(resolve("abl_alpha_sweep", {}).workloads,
              (std::vector<std::string>{"SC", "KM", "ST", "PR"}));
    // Naming all ten runs all ten, not the subset.
    Args all;
    for (const auto &w : griffin::wl::workloadNames())
        all.push_back("--workload=" + w);
    EXPECT_EQ(resolve("abl_alpha_sweep", all).workloads,
              griffin::wl::workloadNames());
    EXPECT_EQ(resolve("fig12_speedup", {}).workloads,
              griffin::wl::workloadNames());
}

TEST(Selection, WorkloadOutsideTheSetIsAUsageError)
{
    for (const auto &[name, w] :
         std::vector<std::pair<std::string, std::string>>{
             {"fig12_speedup", "XX"},
             {"tab03_workloads", "XX"},
             {"perf_gate", "FIR"},
             {"fig01_page_access_timeline", "MT"},
             {"fig10_dpc_timeline", "MT"}}) {
        try {
            resolve(name, {"--workload=" + w});
            ADD_FAILURE() << name << " accepted --workload=" << w;
        } catch (const Exit &e) {
            EXPECT_EQ(e.status, 2);
            EXPECT_NE(e.message.find("--workload " + w), std::string::npos)
                << e.message;
        }
    }
}

TEST(Selection, PinnedFlagsApplyAndCannotBeGiven)
{
    const RunOptions opt = resolve("perf_gate", {"--workload=SC"});
    EXPECT_EQ(opt.workload.scaleDiv, 64u);
    EXPECT_EQ(opt.workload.seed, 42u);
    EXPECT_EQ(opt.samplePeriod, 0u);
    EXPECT_EQ(opt.workloads, std::vector<std::string>{"SC"});
    for (const Args &args : {Args{"--scale=16"}, Args{"--seed", "42"}}) {
        try {
            resolve("perf_gate", args);
            ADD_FAILURE() << "perf_gate accepted " << args[0];
        } catch (const Exit &e) {
            EXPECT_EQ(e.status, 2);
            EXPECT_NE(e.message.find(args[0].substr(0, 6)),
                      std::string::npos)
                << e.message;
        }
    }
}

} // namespace
