/**
 * @file
 * The `griffin run` sweep harness's per-run sinks across a run that
 * throws: a watchdog trip must stop the run's Sampler and detach its
 * trace while the system (and the engine the Sampler reads) is still
 * alive, not leave them to the invocation's teardown. A run's report
 * records the workload seed it used.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "src/obs/trace.hh"
#include "src/sim/watchdog.hh"
#include "src/sys/system_config.hh"
#include "tools/run.hh"

using namespace griffin;

TEST(SweepObs, WatchdogTripStopsTheSamplerBeforeTheSystemDies)
{
    const std::string dir = ::testing::TempDir();
    cli::RunOptions opt;
    opt.jobs = 1; // the serial path: the run attaches on this thread
    opt.workload.scaleDiv = 64;
    opt.traceFile = dir + "sweep_obs_trace.json";
    opt.reportFile = dir + "sweep_obs_report.json";
    opt.samplePeriod = 1000;
    {
        cli::ObsState obs{opt, {}};
        cli::Sweep sweep(opt, obs);
        sys::SystemConfig cfg = sys::SystemConfig::griffinDefault();
        cfg.maxTicks = 5000;
        sweep.add("MT", cfg);

        Tick tripped = 0;
        try {
            sweep.run();
            FAIL() << "the watchdog should have tripped";
        } catch (const sim::WatchdogError &e) {
            const std::string what = e.what();
            const std::string at = "tripped at tick ";
            tripped = std::stoull(what.substr(what.find(at) + at.size()));
        }
        ASSERT_GT(tripped, cfg.maxTicks);

        // The sampler was stopped at the trip (its last row is the
        // final partial interval, taken at the trip tick) and the
        // trace detached; the failed run left no report fragment.
        const cli::ObsState::Slot &slot = obs.slots.at(0);
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
        cli::ObsState obs{opt, {}};
        cli::Sweep sweep(opt, obs);
        sweep.add("MT", sys::SystemConfig::griffinDefault());
        sweep.run();

        const cli::ObsState::Slot &slot = obs.slots.at(0);
        ASSERT_TRUE(slot.report.has_value());
        const obs::json::Value *config = slot.report->find("config");
        ASSERT_NE(config, nullptr);
        ASSERT_NE(config->find("seed"), nullptr);
        EXPECT_EQ(config->find("seed")->asNumber(), 7.0);
    }
    std::remove(opt.reportFile.c_str());
}
