/**
 * @file
 * Unit tests for the logging facility: level gating, sink capture,
 * lazy formatting, and the tick prefix read from the telemetry clock
 * slot.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/obs/telemetry.hh"
#include "src/sim/engine.hh"
#include "src/sim/log.hh"

using griffin::obs::Telemetry;
using griffin::sim::Engine;
using griffin::sim::Log;
using griffin::sim::LogLevel;

namespace {

/** RAII capture of log output with a chosen level. */
class LogCapture
{
  public:
    explicit LogCapture(LogLevel lvl)
    {
        _savedLevel = Log::level();
        Log::setLevel(lvl);
        Log::setSink([this](LogLevel l, const std::string &msg) {
            lines.push_back({l, msg});
        });
    }

    ~LogCapture()
    {
        Log::resetSink();
        Log::setLevel(_savedLevel);
    }

    std::vector<std::pair<LogLevel, std::string>> lines;

  private:
    LogLevel _savedLevel;
};

} // namespace

TEST(Log, MessagesBelowLevelPass)
{
    LogCapture cap(LogLevel::Info);
    GLOG(Info, "hello " << 42);
    ASSERT_EQ(cap.lines.size(), 1u);
    EXPECT_EQ(cap.lines[0].second, "hello 42");
}

TEST(Log, MessagesAboveLevelAreDiscarded)
{
    LogCapture cap(LogLevel::Warn);
    GLOG(Trace, "invisible");
    GLOG(Info, "also invisible");
    EXPECT_TRUE(cap.lines.empty());
}

TEST(Log, ErrorAlwaysPassesAtAnyConfiguredLevel)
{
    LogCapture cap(LogLevel::Error);
    GLOG(Error, "bad");
    ASSERT_EQ(cap.lines.size(), 1u);
    EXPECT_EQ(cap.lines[0].first, LogLevel::Error);
}

TEST(Log, FormattingIsLazyWhenDisabled)
{
    LogCapture cap(LogLevel::Warn);
    int evaluations = 0;
    auto expensive = [&] {
        ++evaluations;
        return 1;
    };
    GLOG(Trace, "value " << expensive());
    EXPECT_EQ(evaluations, 0);
    GLOG(Warn, "value " << expensive());
    EXPECT_EQ(evaluations, 1);
}

TEST(Log, EnabledMatchesLevel)
{
    LogCapture cap(LogLevel::Info);
    EXPECT_TRUE(Log::enabled(LogLevel::Error));
    EXPECT_TRUE(Log::enabled(LogLevel::Info));
    EXPECT_FALSE(Log::enabled(LogLevel::Trace));
}

TEST(Log, NoClockMeansNoTickPrefix)
{
    LogCapture cap(LogLevel::Info);
    ASSERT_EQ(Telemetry::current().clock, nullptr);
    GLOG(Info, "bare");
    ASSERT_EQ(cap.lines.size(), 1u);
    EXPECT_EQ(cap.lines[0].second, "bare");
}

TEST(Log, ClockPrefixesMessagesWithTheEngineTick)
{
    LogCapture cap(LogLevel::Info);
    Engine e;
    {
        const Telemetry::Scope clock({.clock = &e});
        e.schedule(25, [] { GLOG(Info, "fired"); });
        e.run();
    }
    ASSERT_EQ(cap.lines.size(), 1u);
    EXPECT_EQ(cap.lines[0].second, "[25] fired");
}

TEST(Log, ClearingTheClockDropsThePrefix)
{
    LogCapture cap(LogLevel::Info);
    Engine e;
    {
        const Telemetry::Scope clock({.clock = &e});
        GLOG(Info, "with");
    }
    GLOG(Info, "without");
    ASSERT_EQ(cap.lines.size(), 2u);
    EXPECT_EQ(cap.lines[0].second, "[0] with");
    EXPECT_EQ(cap.lines[1].second, "without");
}
