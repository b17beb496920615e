#include "src/sim/log.hh"

#include <iostream>
#include <mutex>
#include <string>

#include "src/obs/telemetry.hh"
#include "src/sim/engine.hh"

namespace griffin::sim {

namespace {

const char *
levelName(LogLevel lvl)
{
    switch (lvl) {
      case LogLevel::Error: return "ERROR";
      case LogLevel::Warn:  return "WARN";
      case LogLevel::Info:  return "INFO";
      case LogLevel::Trace: return "TRACE";
    }
    return "?";
}

/** Serializes sink calls so concurrent workers emit whole lines. */
std::mutex &
sinkMutex()
{
    static std::mutex mu;
    return mu;
}

} // namespace

Log &
Log::instance()
{
    static Log log;
    return log;
}

void
Log::setSink(Sink sink)
{
    instance()._sink = std::move(sink);
}

void
Log::resetSink()
{
    instance()._sink = nullptr;
}

void
Log::write(LogLevel lvl, const std::string &msg)
{
    if (!enabled(lvl))
        return;
    auto &log = instance();
    // The tick prefix is applied to the message itself (not just the
    // default sink) so captured output stays time-correlatable too.
    // Built with append() rather than an operator+ chain to dodge a
    // GCC 12 -Wrestrict false positive (PR105651) at -O2 and above.
    std::string line;
    if (const Engine *clock = obs::Telemetry::current().clock) {
        line += '[';
        line += std::to_string(clock->now());
        line += "] ";
    }
    line += msg;
    std::lock_guard<std::mutex> guard(sinkMutex());
    if (log._sink) {
        log._sink(lvl, line);
    } else {
        std::cerr << "[" << levelName(lvl) << "] " << line << "\n";
    }
}

} // namespace griffin::sim
