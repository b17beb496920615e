/**
 * @file
 * The `griffin run` sweep harness's per-run sinks across a run that
 * throws: a watchdog trip must stop the run's Sampler and uninstall its
 * trace while the system (and the engine the Sampler reads) is still
 * alive, not leave them to the invocation's teardown, and the sweep
 * reports the failure as exit 1 naming the run. A run's report records
 * the workload seed it used.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "src/obs/trace.hh"
#include "src/sys/system_config.hh"
#include "tools/run.hh"

using namespace griffin;

TEST(SweepObs, WatchdogTripStopsTheSamplerBeforeTheSystemDies)
{
    const std::string dir = ::testing::TempDir();
    cli::RunOptions opt;
    opt.jobs = 1; // one worker: the run installs its sinks on this thread
    opt.workload.scaleDiv = 64;
    opt.traceFile = dir + "sweep_obs_trace.json";
    opt.reportFile = dir + "sweep_obs_report.json";
    opt.samplePeriod = 1000;
    {
        cli::Sweep sweep(opt);
        sys::SystemConfig cfg = sys::SystemConfig::griffinDefault();
        cfg.maxTicks = 5000;
        sweep.add("MT", cfg);

        Tick tripped = 0;
        try {
            sweep.run();
            FAIL() << "the watchdog should have tripped";
        } catch (const cli::Exit &e) {
            EXPECT_EQ(e.status, 1);
            const std::string prefix = "MT/griffin: simulation watchdog";
            EXPECT_EQ(e.message.rfind(prefix, 0), 0u) << e.message;
            const std::string &what = e.message;
            const std::string at = "tripped at tick ";
            tripped = std::stoull(what.substr(what.find(at) + at.size()));
        }
        ASSERT_GT(tripped, cfg.maxTicks);

        // The sampler was stopped at the trip (its last row is the
        // final partial interval, taken at the trip tick) and the
        // trace uninstalled; the failed run left no report fragment.
        const cli::Sweep::Slot &slot = sweep.slots().at(0);
        ASSERT_FALSE(slot.sampler->rows().empty());
        EXPECT_EQ(slot.sampler->rows().back().tick, tripped);
        EXPECT_EQ(obs::TraceSession::active(), nullptr);
        EXPECT_FALSE(slot.report.has_value());
    }
    std::remove(opt.traceFile.c_str());
    std::remove(opt.reportFile.c_str());
}

TEST(SweepObs, ReportRecordsTheSeedTheRunUsed)
{
    // --seed sets the workload seed; the report's config.seed must say
    // which one generated the run, not the system config's default.
    const std::string dir = ::testing::TempDir();
    cli::RunOptions opt;
    opt.jobs = 1;
    opt.workload.scaleDiv = 64;
    opt.workload.seed = 7;
    opt.reportFile = dir + "sweep_obs_seed_report.json";
    opt.samplePeriod = 0;
    {
        cli::Sweep sweep(opt);
        sweep.add("MT", sys::SystemConfig::griffinDefault());
        sweep.run();

        const cli::Sweep::Slot &slot = sweep.slots().at(0);
        ASSERT_TRUE(slot.report.has_value());
        const obs::json::Value *config = slot.report->find("config");
        ASSERT_NE(config, nullptr);
        ASSERT_NE(config->find("seed"), nullptr);
        EXPECT_EQ(config->find("seed")->asNumber(), 7.0);
    }
    std::remove(opt.reportFile.c_str());
}
