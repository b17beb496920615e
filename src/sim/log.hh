/**
 * @file
 * Minimal leveled trace logging.
 *
 * Logging defaults to off (Warn); benches and examples enable Info or
 * Trace to watch the migration machinery work. All output goes through
 * one sink so tests can capture it.
 *
 * While the calling thread's telemetry set has an engine in its clock
 * slot (obs::Telemetry::clock, installed by MultiGpuSystem::run()),
 * every message is prefixed with the current simulated tick —
 * "[12345] msg" — so log lines correlate directly with trace-event
 * timestamps. The slot is per-thread: concurrent simulations
 * (sys::SweepRunner workers) each stamp their own engine's time, and a
 * mutex keeps whole lines from interleaving in the shared sink.
 */

#ifndef GRIFFIN_SIM_LOG_HH
#define GRIFFIN_SIM_LOG_HH

#include <functional>
#include <sstream>
#include <string>

#include "src/sim/types.hh"

namespace griffin::sim {

/** Severity levels, in increasing verbosity. */
enum class LogLevel { Error, Warn, Info, Trace };

/**
 * Process-wide logger configuration. Level and sink are global and
 * expected to be configured once, before any worker threads start
 * (benches set them during flag parsing); the clock is the calling
 * thread's telemetry slot so parallel simulations timestamp
 * independently, and write() serializes sink calls under a mutex.
 */
class Log
{
  public:
    using Sink = std::function<void(LogLevel, const std::string &)>;

    /** Current verbosity; messages above it are discarded. */
    static LogLevel level() { return instance()._level; }
    static void setLevel(LogLevel lvl) { instance()._level = lvl; }

    /** Replace the output sink (default writes to stderr). */
    static void setSink(Sink sink);

    /** Restore the default stderr sink. */
    static void resetSink();

    /** Emit a message if @p lvl is enabled. */
    static void write(LogLevel lvl, const std::string &msg);

    /** True if messages at @p lvl would be emitted. */
    static bool enabled(LogLevel lvl) { return lvl <= level(); }

  private:
    static Log &instance();

    LogLevel _level = LogLevel::Warn;
    Sink _sink;
};

/**
 * Format-and-log helper: GLOG(Info, "gpu " << id << " drained").
 * The stream expression is only evaluated when the level is enabled.
 */
#define GLOG(lvl, expr)                                                     \
    do {                                                                    \
        if (::griffin::sim::Log::enabled(::griffin::sim::LogLevel::lvl)) {  \
            std::ostringstream _glog_os;                                    \
            _glog_os << expr;                                               \
            ::griffin::sim::Log::write(::griffin::sim::LogLevel::lvl,       \
                                       _glog_os.str());                     \
        }                                                                   \
    } while (0)

} // namespace griffin::sim

#endif // GRIFFIN_SIM_LOG_HH
